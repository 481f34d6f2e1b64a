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


def diff(tmp_path, a, b, *flags):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc, indent=2) + "\n")
    return subprocess.run([sys.executable, str(SCRIPT), *flags,
                           *map(str, paths)],
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


def test_exact_fails_on_any_numeric_difference(tmp_path):
    other = json.loads(json.dumps(REPORT))
    other["generated"] = "2026-02-02T00:00:00Z wall_ms=9.0"
    assert diff(tmp_path, REPORT, other, "--exact").returncode == 0
    other["fits"]["w2_vs_j"]["points"][1][0] = 3.0 * (1 + 2**-52)
    result = diff(tmp_path, REPORT, other, "--exact")
    assert result.returncode == 1, result.stderr
    assert "STRUCTURE" not in result.stdout
    row = next(line for line in result.stdout.splitlines()
               if line.startswith("fits.w2_vs_j.points[*][*]"))
    assert row.split()[-1] == "fits.w2_vs_j.points[1][0]"
    # without the flag the same reports still compare as matching
    assert diff(tmp_path, REPORT, other).returncode == 0


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


def write_tree(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return str(root)


def test_directories_compare_reports_and_csv_bytes(tmp_path):
    files = {"study_j/report.json": json.dumps(REPORT),
             "study_j/study_j.csv": "wall_ms\n1.0\n",
             "sample/ensemble.csv": "u0,u1\n0.5,0.25\n",
             "sample/diagnostics.csv": "step,time\n0,0.0\n"}
    a = write_tree(tmp_path / "a", files)
    # the per-cell CSV holds wall times and is not compared
    b = write_tree(tmp_path / "b", dict(files, **{
        "study_j/study_j.csv": "wall_ms\n9.0\n"}))
    result = subprocess.run([sys.executable, str(SCRIPT), "--exact", a, b],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "== study_j/report.json" in result.stdout

    write_tree(tmp_path / "b", {"sample/ensemble.csv": "u0,u1\n0.5,0.5\n"})
    result = subprocess.run([sys.executable, str(SCRIPT), "--exact", a, b],
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert "DIFFERS   sample/ensemble.csv" in result.stdout.splitlines()
    # without --exact a CSV's bytes are numbers that may differ
    result = subprocess.run([sys.executable, str(SCRIPT), a, b],
                            capture_output=True, text=True)
    assert result.returncode == 0

    (tmp_path / "a" / "sample" / "diagnostics.csv").unlink()
    write_tree(tmp_path / "b", {"demo/ensemble_alg1.csv": "u0\n1.0\n"})
    result = subprocess.run([sys.executable, str(SCRIPT), a, b],
                            capture_output=True, text=True)
    assert result.returncode == 1
    lines = [line for line in result.stdout.splitlines()
             if line.startswith("STRUCTURE")]
    assert lines == ["STRUCTURE demo/ensemble_alg1.csv: only in B",
                     "STRUCTURE sample/diagnostics.csv: only in B"]


def test_directories_without_results_are_a_usage_error(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    result = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "a"),
                             str(tmp_path / "b")],
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert "no results" in result.stderr
