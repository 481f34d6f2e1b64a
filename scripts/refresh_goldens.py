#!/usr/bin/env python3
"""Rewrite the golden reports of the shipped configs.

    PYTHONPATH=src python3 scripts/refresh_goldens.py

Runs every configs/*.json and writes each report's body, without its
"generated" and "environment" entries, to tests/golden/<name>.json, and
the environment the runs were stamped with to
tests/golden/environment.json.  tests/test_acceptance.py runs each
config once and compares its report with these files.  When any report
fails a band, the script names the config and the band, writes nothing
and exits 1: a golden pins a passing report.  Refresh the goldens only
with a change that moves sampled numbers on purpose, and give that
change's magnitudes (scripts/report_diff.py between the old and the new
report).
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = tuple(sorted(path.stem
                       for path in (ROOT / "configs").glob("*.json")))


def fresh_report(name, out_dir):
    """(body, environment) of one run of configs/<name>.json written
    under out_dir: the report.json document without its "generated"
    line, and its "environment" stamp taken out of it."""
    from eks_lab.studies import load_config, run_study
    run_study(load_config(ROOT / "configs" / f"{name}.json"), out_dir)
    doc = json.loads((Path(out_dir) / "report.json").read_text())
    del doc["generated"]
    return doc, doc.pop("environment")


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: fresh_report(name, Path(tmp) / name)
                   for name in CONFIGS}
    failed = [f"{name}: {flag}" for name, (body, _) in reports.items()
              for flag, ok in body["flags"].items() if not ok]
    if failed:
        print(f"refresh_goldens.py: failing bands, nothing written: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    GOLDEN.mkdir(exist_ok=True)
    for name, (body, environment) in reports.items():
        _write(GOLDEN / f"{name}.json", body)
        print(f"wrote {GOLDEN / name}.json")
    _write(GOLDEN / "environment.json", environment)
    return 0


if __name__ == "__main__":
    sys.exit(main())
