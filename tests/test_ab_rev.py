"""Tests for scripts/ab_rev.py that stop before any study runs: a missing
or unknown revision argument is a usage error, exit 2, and nothing is
printed to stdout."""

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
