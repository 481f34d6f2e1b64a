"""Tests for scripts/ab_rev.py: a missing or unknown revision argument,
or a config that cannot be read or parsed, is a usage error, exit 2,
before any study runs, and nothing is printed to stdout; a study that
fails a band exits 1 and is named with the band; differing outputs are
summarized by report_diff.py's own comparison."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_rev.py"


@pytest.mark.parametrize("args", [[], ["no-such-revision-x"],
                                  ["no-such-revision-x", "coupling-sweep"]],
                         ids=["none", "unknown", "unknown-with-workload"])
def test_bad_revision_argument_exits_two(args):
    result = subprocess.run([sys.executable, str(SCRIPT), *args],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "ab_rev.py" in result.stderr


# a study-j of a few milliseconds whose slope_j band fails
TOY_J = {"kind": "study-j", "seed": 5, "problem": "default",
         "sde": {"h": 0.01, "n_steps": 5},
         "sweep": {"j_values": [8, 16, 32]}, "repeats": 2,
         "bands": {"slope_j": [5.0, 6.0]}}


@pytest.mark.parametrize("doc, message", [
    (None, "cannot read config: [Errno 2] No such file or directory"),
    ({"kind": "sample", "sde": {"h": "x"}},
     "rev side: config error: config field 'sde.h' must be a number"),
], ids=["missing", "rejected"])
def test_unusable_config_exits_two_before_any_study(tmp_path, doc, message):
    """Every target is read and parsed on both sides before the first
    study runs, so the usable toy_j target ahead of it never runs."""
    usable = tmp_path / "toy_j.json"
    usable.write_text(json.dumps(TOY_J))
    target = tmp_path / "target.json"
    if doc is not None:
        target.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "HEAD", str(usable), str(target),
         "--pairs", "1"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.splitlines() == [result.stderr.rstrip("\n")]
    assert result.stderr.startswith(f"ab_rev.py: {target}: {message}")


def test_failing_band_exits_one_naming_it(tmp_path):
    config = tmp_path / "toy_j.json"
    config.write_text(json.dumps(TOY_J))
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "HEAD", str(config), "--pairs", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stderr
    for side in ("rev", "tree"):
        assert f"toy_j: {side} fails band slope_j" in result.stdout
    assert "outputs equal: yes" in result.stdout


def test_problem_path_is_read_beside_the_config(tmp_path):
    """A config's {"path": ...} problem names a file beside the config,
    not in the working directory, on both sides."""
    problem = {"a": [[1.0, 0.0], [0.0, 2.0]], "gamma": [[1.0, 0.0], [0.0, 1.0]],
               "gamma0": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 1.0],
               "u0": [0.0, 0.0]}
    (tmp_path / "problem.json").write_text(json.dumps(problem))
    doc = {k: v for k, v in TOY_J.items() if k != "bands"}
    config = tmp_path / "toy_j.json"
    config.write_text(json.dumps(dict(doc, problem={"path": "problem.json"})))
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "HEAD", str(config), "--pairs", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "toy_j: rev" in result.stdout
    assert "outputs equal: yes" in result.stdout


@pytest.fixture
def ab_rev(monkeypatch):
    """The script as a module, its environment and import path changes
    undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ab_rev_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_report(directory, doc):
    directory.mkdir()
    (directory / "report.json").write_text(json.dumps(doc))
    return directory


def test_report_difference_reads_report_diff_comparison(ab_rev, tmp_path):
    """Differing outputs are summarized by report_diff.compare over the
    two report.json files: the largest absolute and relative leaf
    difference, and the structural differences; "generated" is
    ignored."""
    base = {"generated": "then", "slope": -1.0,
            "errors": [[0.5, 2.0], [0.25, 4.0]], "kind": "study-coupling"}
    moved = json.loads(json.dumps(base))
    moved.update(generated="now", slope=-1.0 - 1e-13)
    moved["errors"][1][1] = 5.0
    rev = write_report(tmp_path / "rev", base)
    assert ab_rev.report_difference(rev, write_report(tmp_path / "same", {
        **base, "generated": "later"})) == (0.0, 0.0, 0)
    assert ab_rev.report_difference(
        rev, write_report(tmp_path / "moved", moved)) == (1.0, 0.2, 0)
    extra = dict(moved, kind="study-j", bands={})
    assert ab_rev.report_difference(
        rev, write_report(tmp_path / "extra", extra)) == (1.0, 0.2, 2)
    # the comparison is report_diff.py's own, not a copy of it
    assert Path(ab_rev.report_diff.__file__) == \
        SCRIPT.parent / "report_diff.py"

