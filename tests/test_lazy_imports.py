"""No scipy subpackage loads, with the package or with exact W2.

Every report's environment stamp (studies._environment, called by each
write_report) imports top-level scipy for its version and BLAS build,
and empirical_w2_exact binds scipy's compiled assignment kernel from its
extension file on the first cloud pair it solves; nothing else in the
package uses scipy.  So no scipy module enters a process with
`import eks_lab` or a config parse, and no scipy subpackage, neither
scipy.optimize, which re-exports the kernel, nor scipy.spatial nor what
they pull in, enters it with a W2 or a run of the shipped validate
config.  Each check runs in a fresh interpreter: this test process has
long imported them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from eks_lab.metrics import empirical_w2_exact

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg",
         "scipy.special")

PROBE = """
import json, sys, tempfile
from pathlib import Path

import numpy as np

import eks_lab
from eks_lab import (SizeMismatch, TooLarge, empirical_w2_exact, load_config,
                     run_study)

HEAVY = {heavy!r}


def loaded():
    return sorted(name for name in HEAVY if name in sys.modules)


def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))


seen = {{"import": loaded(), "scipy_at_import": scipy_modules()}}
configs = Path(sys.argv[1])
for path in sorted(configs.glob("*.json")):
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
seen["scipy_after_rejected"] = scipy_modules()
x, y = np.random.default_rng(7).standard_normal((2, 40, 3))
seen["w2"] = empirical_w2_exact(x, y).hex()
seen["first_use"] = loaded()
with tempfile.TemporaryDirectory() as out:
    report = run_study(load_config(configs / "validate.json"), out)
seen["validate_passed"] = report.passed
seen["validate"] = loaded()
from eks_lab import _kernels
import scipy.optimize
seen["same_kernel"] = (
    _kernels._assignment is scipy.optimize.linear_sum_assignment)
print(json.dumps(seen))
"""


def run_probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(heavy=HEAVY),
         str(ROOT / "configs")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_w2_stack_loads_on_first_use_only():
    seen = run_probe()
    # no scipy module at import, for any shipped config or a rejected call
    assert seen["scipy_at_import"] == []
    assert seen["scipy_after_configs"] == []
    assert seen["scipy_after_rejected"] == []
    # nor a heavy subpackage with the first solvable pair, which gets
    # this process's bits, or with a whole validate run
    assert seen["first_use"] == []
    x, y = np.random.default_rng(7).standard_normal((2, 40, 3))
    assert seen["w2"] == empirical_w2_exact(x, y).hex()
    assert seen["validate_passed"]
    assert seen["validate"] == []
    # scipy.optimize, imported afterwards, re-exports the bound kernel
    assert seen["same_kernel"]
