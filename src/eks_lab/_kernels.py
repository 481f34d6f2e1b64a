"""The compiled kernels of the particle step, bound once.

A sweep's step does little arithmetic on tiny arrays, so the Python
wrappers numpy and scipy put around their kernels cost about as much as
the kernels.  These are the same kernels, called with the arguments the
wrappers pass them, so the arithmetic and every bit are unchanged:

* einsum is numpy's C einsum, which np.einsum runs unless it optimizes;
* solve, eigh and eigvalsh are the LAPACK gufuncs behind np.linalg's
  solve (solve1 for a 1-D rhs), eigh and eigvalsh, with numpy's
  signatures and error state, so a singular system or an eigensolver
  that does not converge raises LinAlgError as there;
* potrf and potrs are LAPACK's Cholesky factor and solve as
  scipy.linalg.cho_factor and cho_solve call them; potrf's info > 0
  names the leading minor that is not positive definite.

Callers hand in float64 arrays that passed the wrappers' checks.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
from scipy.linalg import lapack

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


def potrf(m):
    return lapack.dpotrf(m, lower=True, clean=False, overwrite_a=False)


def potrs(factor, rhs):
    return lapack.dpotrs(factor, rhs, lower=True, overwrite_b=False)
