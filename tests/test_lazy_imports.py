"""scipy loads on first use, not with the package.

Only study-j and validate measure exact W2, and every report's
environment stamp (studies._environment, called by each write_report)
imports top-level scipy for its version and BLAS build; nothing else in
the package uses scipy.  So no scipy module enters a process with
`import eks_lab` or a config parse, and scipy.optimize (the assignment
solver) and scipy.spatial (the cost matrix) stay out until
empirical_w2_exact has a cloud pair to solve.  Each check runs in a
fresh interpreter: this test process has long imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from eks_lab.metrics import empirical_w2_exact

ROOT = Path(__file__).resolve().parents[1]
LAZY = ("scipy.optimize", "scipy.spatial")

PROBE = """
import json, sys
from pathlib import Path

import numpy as np

import eks_lab
from eks_lab import SizeMismatch, TooLarge, empirical_w2_exact, load_config

LAZY = {lazy!r}


def loaded():
    return sorted(name for name in LAZY if name in sys.modules)


def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))


seen = {{"import": loaded(), "scipy_at_import": scipy_modules()}}
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    load_config(path)
seen["configs"] = loaded()
seen["scipy_after_configs"] = scipy_modules()
try:
    empirical_w2_exact(np.zeros((3, 2)), np.zeros((4, 2)))
except SizeMismatch:
    pass
try:
    empirical_w2_exact(np.zeros((4097, 1)), np.zeros((4097, 1)))
except TooLarge:
    pass
seen["rejected"] = loaded()
x, y = np.random.default_rng(7).standard_normal((2, 40, 3))
seen["w2"] = empirical_w2_exact(x, y).hex()
seen["first_use"] = loaded()
print(json.dumps(seen))
"""


def run_probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(lazy=LAZY),
         str(ROOT / "configs")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_w2_stack_loads_on_first_use_only():
    seen = run_probe()
    # not at import, not for any shipped config, not for a rejected call
    assert seen["import"] == []
    assert seen["configs"] == []
    assert seen["rejected"] == []
    # nor any other scipy module, before the first solvable pair
    assert seen["scipy_at_import"] == []
    assert seen["scipy_after_configs"] == []
    # the first solvable pair loads both and gets this process's bits
    assert seen["first_use"] == sorted(LAZY)
    x, y = np.random.default_rng(7).standard_normal((2, 40, 3))
    assert seen["w2"] == empirical_w2_exact(x, y).hex()
