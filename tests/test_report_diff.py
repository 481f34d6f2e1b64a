"""Tests for scripts/report_diff.py, run as a script on small reports."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"

REPORT = {
    "generated": "2026-01-01T00:00:00Z wall_ms=1.0",
    "study": "study-j",
    "passed": True,
    "fits": {"w2_vs_j": {"slope": -0.5, "points": [[1.0, 2.0], [3.0, 4.0]]}},
    "cells": [{"J": 8, "value": 0.25}, {"J": 16, "value": 0.125}],
}


def diff(tmp_path, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc, indent=2) + "\n")
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True)


def test_identical_reports_differ_by_zero(tmp_path):
    other = json.loads(json.dumps(REPORT))
    other["generated"] = "2026-02-02T00:00:00Z wall_ms=9.0"
    result = diff(tmp_path, REPORT, other)
    assert result.returncode == 0, result.stderr
    assert "STRUCTURE" not in result.stdout
    last = result.stdout.splitlines()[-1].split()
    assert last[:4] == ["all", "0", "0", "9"]


def test_perturbed_value_names_its_path(tmp_path):
    other = json.loads(json.dumps(REPORT))
    other["cells"][1]["value"] = 0.125 * (1 + 1e-12)
    result = diff(tmp_path, REPORT, other)
    assert result.returncode == 0, result.stderr
    row = next(line for line in result.stdout.splitlines()
               if line.startswith("cells[*].value"))
    assert row.split()[1:3] == ["1.25e-13", "1e-12"]
    assert row.split()[-1] == "cells[1].value"


def test_structural_difference_is_listed_and_fails(tmp_path):
    other = json.loads(json.dumps(REPORT))
    other["passed"] = False
    del other["fits"]["w2_vs_j"]["slope"]
    other["cells"].append({"J": 32, "value": 0.0625})
    result = diff(tmp_path, REPORT, other)
    assert result.returncode == 1
    lines = [line for line in result.stdout.splitlines()
             if line.startswith("STRUCTURE")]
    assert lines == ["STRUCTURE cells: length 2 vs 3",
                     "STRUCTURE fits.w2_vs_j.slope: only in A",
                     "STRUCTURE passed: True vs False"]


def test_usage_error_exits_two(tmp_path):
    result = subprocess.run([sys.executable, str(SCRIPT), "only-one.json"],
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert "usage:" in result.stderr
    # two report files and nothing else: no flag, no directories
    report = tmp_path / "a.json"
    report.write_text(json.dumps(REPORT))
    for args in (["--exact", report, report], [tmp_path, tmp_path]):
        result = subprocess.run([sys.executable, str(SCRIPT),
                                 *map(str, args)],
                                capture_output=True, text=True)
        assert result.returncode == 2, args
        assert result.stdout == ""
