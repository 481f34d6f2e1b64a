#!/usr/bin/env python3
"""Rewrite the golden reports of the cheap shipped configs.

    PYTHONPATH=src python3 scripts/refresh_goldens.py

Runs configs/{sample,study_time,validate}.json and writes each report's
body, without its "generated" and "environment" entries, to
tests/golden/<name>.json, and the environment the runs were stamped
with to tests/golden/environment.json.  tests/test_goldens.py compares
fresh runs with these files.  Refresh them only with a change that
moves sampled numbers on purpose, and give that change's magnitudes
(scripts/report_diff.py between the old and the new report).
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ("sample", "study_time", "validate")


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
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            body, environment = fresh_report(name, Path(tmp) / name)
            _write(GOLDEN / f"{name}.json", body)
            print(f"wrote {GOLDEN / name}.json")
    _write(GOLDEN / "environment.json", environment)
    return 0


if __name__ == "__main__":
    sys.exit(main())
