"""Tests for scripts/compare_rev.sh that stop before any study runs: a
missing, extra or unknown revision argument is a usage error, exit 2."""

import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_rev.sh"


@pytest.mark.parametrize("args", [[], ["a", "b"], ["no-such-revision-x"]],
                         ids=["none", "two", "unknown"])
def test_bad_revision_argument_exits_two(args):
    result = subprocess.run(["bash", str(SCRIPT), *args],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "compare_rev.sh" in result.stderr
