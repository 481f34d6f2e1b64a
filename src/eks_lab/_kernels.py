"""The compiled kernels of the particle step, bound once.

A sweep's step does little arithmetic on tiny arrays, so the Python
wrappers numpy puts around its kernels cost about as much as the
kernels.  These are the same kernels, called with the arguments the
wrappers pass them, so the arithmetic and every bit are unchanged:

* einsum is numpy's C einsum, which np.einsum runs unless it optimizes;
* solve, eigh, eigvalsh and cholesky are the LAPACK gufuncs behind
  np.linalg's solve (solve1 for a 1-D rhs), eigh, eigvalsh and
  cholesky, with numpy's signatures and error state, so a singular
  system, an eigensolver that does not converge or a matrix that is not
  positive definite raises LinAlgError as there.

Callers hand in float64 arrays that passed the wrappers' checks.

One kernel is not numpy's: exact W2's assignment solver, scipy's
compiled linear_sum_assignment.  It is loaded from its extension file on
first use, without the scipy.optimize package that re-exports it, whose
import would pull in hundreds of modules for this one function.
"""

import sys
import threading
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

try:
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:  # numpy < 2, where numpy.core is not deprecated
    from numpy.core.multiarray import c_einsum as einsum


def _lapack_errstate(message):
    # numpy.linalg's own error state: LAPACK reports a failure through
    # the invalid flag, and no other flag of the kernel may warn
    def fail(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


@_lapack_errstate("Singular matrix")
def solve(a, b):
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return gufunc(a, b, signature="dd->d")


@_lapack_errstate("Eigenvalues did not converge")
def eigh(a):
    return _umath_linalg.eigh_lo(a, signature="d->dd")


@_lapack_errstate("Eigenvalues did not converge")
def eigvalsh(a):
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")


@_lapack_errstate("Matrix is not positive definite")
def cholesky(a):
    return _umath_linalg.cholesky_lo(a, signature="d->d")


_LSAP = "scipy.optimize._lsap"
_assignment = None
_assignment_lock = threading.Lock()


def _lsap_file():
    """The compiled extension that defines linear_sum_assignment, or None
    where scipy lays it out otherwise."""
    import scipy

    directory = Path(scipy.__file__).parent / "optimize"
    for suffix in EXTENSION_SUFFIXES:
        path = directory / ("_lsap" + suffix)
        if path.is_file():
            return path
    return None


def _bind_assignment():
    module = sys.modules.get(_LSAP)
    if module is None:
        path = _lsap_file()
        if path is None:
            from scipy.optimize import linear_sum_assignment
            return linear_sum_assignment
        loader = ExtensionFileLoader(_LSAP, str(path))
        module = module_from_spec(spec_from_loader(_LSAP, loader))
        loader.exec_module(module)
        # scipy.optimize, imported later, re-exports this same module
        sys.modules[_LSAP] = module
    return module.linear_sum_assignment


def linear_sum_assignment(cost):
    """scipy.optimize.linear_sum_assignment on a float64 cost matrix:
    the (rows, cols) of a minimum-cost assignment.  The first call binds
    the kernel, once, whichever thread makes it."""
    global _assignment
    with _assignment_lock:
        if _assignment is None:
            _assignment = _bind_assignment()
    return _assignment(cost)
