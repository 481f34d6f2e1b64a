"""Fresh reports of the cheap shipped configs against committed goldens.

tests/golden holds the report bodies of configs/{sample,study_time,
validate}.json and the environment stamp they were written under
(scripts/refresh_goldens.py writes both).  Every numeric leaf must be
bitwise the golden's when this process has the same stamp, and within
1e-9 relative when it does not; every key, list length and non-numeric
leaf must match either way.  A change that moves sampled numbers, even
by rounding, fails here until the goldens are refreshed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
REL_TOL = 1e-9


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


refresh = load_script("refresh_goldens")
report_diff = load_script("report_diff")


@pytest.mark.parametrize("name", refresh.CONFIGS)
def test_report_matches_its_golden(name, tmp_path):
    body, environment = refresh.fresh_report(name, tmp_path)
    golden = json.loads((refresh.GOLDEN / f"{name}.json").read_text())
    stamp = json.loads((refresh.GOLDEN / "environment.json").read_text())
    changed = sorted(key for key in set(environment) | set(stamp)
                     if environment.get(key) != stamp.get(key))
    numeric, structural = [], []
    report_diff.walk(body, golden, "", numeric, structural)
    tol = REL_TOL if changed else 0.0
    moved = [f"{path}: abs {absolute:.3g}, rel {relative:.3g}"
             for path, absolute, relative in numeric if relative > tol]
    where = (f"the stamp differs in {changed}" if changed
             else "the environment stamp matches")
    assert not structural, f"{name}: {where}; {structural[:10]}"
    assert not moved, (f"{name}: {len(moved)} numeric leaves moved, "
                       f"{where}; {moved[:10]}")
