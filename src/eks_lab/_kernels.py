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
"""

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
