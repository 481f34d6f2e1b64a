"""Tests for scripts/run_all.sh, run against a stub eks-lab first on PATH
that records its argv, writes a report with one fit and exits with a
status chosen per config."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted(ROOT.glob("configs/*.json"))

STUB = """#!{python}
import json, sys
from pathlib import Path

with open({log!r}, "a") as fh:
    fh.write(json.dumps(sys.argv[1:]) + "\\n")
out = Path(sys.argv[sys.argv.index("--out") + 1])
out.mkdir(parents=True, exist_ok=True)
fit = {{"slope": -0.5, "r_squared": 0.25}}
(out / "report.json").write_text(json.dumps({{"fits": {{out.name: fit}}}}))
sys.exit({status} if out.name == {fail!r} else 0)
"""


def run_all(tmp_path, fail=None, status=0):
    """run_all.sh with the stub: (process, the stub's argv per call, the
    argv expected per config)."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    log = tmp_path / "calls.jsonl"
    stub = bin_dir / "eks-lab"
    stub.write_text(STUB.format(python=sys.executable, log=str(log),
                                status=status, fail=fail))
    stub.chmod(stub.stat().st_mode | stat.S_IXUSR)
    env = dict(os.environ, OUT_ROOT=str(tmp_path / "results"),
               PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    proc = subprocess.run(["bash", str(ROOT / "scripts" / "run_all.sh")],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    expected = [[json.loads(config.read_text())["kind"],
                 "--config", f"configs/{config.name}",
                 "--out", str(tmp_path / "results" / config.stem)]
                for config in CONFIGS]
    return proc, calls, expected


def test_runs_every_config_with_its_kind_and_prints_its_fits(tmp_path):
    proc, calls, expected = run_all(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert calls == expected
    lines = proc.stdout.splitlines()
    for name in (config.stem for config in CONFIGS):
        assert any(line.startswith(f"== {name}: ") and "peak RSS" in line
                   for line in lines), name
        assert f"{name}: {name}: slope -0.5000 (r^2 0.2500)" in lines
    assert lines[-1].startswith("all studies passed")


def test_stops_at_the_first_failure_with_its_status(tmp_path):
    proc, calls, expected = run_all(tmp_path, CONFIGS[2].stem, status=7)
    assert proc.returncode == 7
    assert calls == expected[:3]
    assert f"{CONFIGS[1].stem}: {CONFIGS[1].stem}: slope" in proc.stdout
    assert f"{CONFIGS[2].stem}: {CONFIGS[2].stem}: slope" not in proc.stdout
    assert "all studies passed" not in proc.stdout
