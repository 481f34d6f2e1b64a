"""Symmetric positive semidefinite linear algebra kernel.

Every covariance-like matrix in this package passes through here: square
roots for noise, solves against precision matrices, smallest eigenvalues
for the spectral condition diagnostic.  Symmetry is enforced by explicit
symmetrization at the boundary rather than by a wrapper type, and PSD-ness
is policed with a relative eigenvalue tolerance.

symmetrize, spd_sqrt and general_solve also take a (C, n, n) stack of
matrices, which the particle dynamics use to serve every cell of a batch
in one call.  Each slice of the result is bitwise the 2-D call on that
slice (numpy's LAPACK and matmul loops run the same kernel slice by
slice), and a stack that fails raises what the 2-D call raises on its
first failing slice.

spd_solve and spd_invert take a positive definite matrix: its Cholesky
factorization is the check, and a matrix that fails it raises
SingularMatrix.  The solve itself is numpy's LU solve (against the
identity for the inverse, which is what np.linalg.inv computes).

The kernels are called through _kernels, without the Python wrappers
of numpy.linalg: numpy's LAPACK gufuncs behind np.linalg.eigh,
eigvalsh, solve and cholesky.  They are the same kernels with the same
arguments, so every result is bitwise the wrapper's.
"""

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatch,
    EksError,
    NonFinite,
    NotPSD,
    SingularMatrix,
)

__all__ = [
    "symmetrize",
    "spd_sqrt",
    "spd_solve",
    "spd_invert",
    "lambda_min",
    "general_solve",
]

SQRT_TOL = 1e-12


def _as_square(m, stack=False):
    # a square float matrix; with stack, a (C, n, n) stack of them too
    m = np.asarray(m, dtype=float)
    if m.ndim not in ((2, 3) if stack else (2,)) or \
            m.shape[-1] != m.shape[-2]:
        kind = "square 2-d or a (C, n, n) stack" if stack else "square 2-d"
        raise DimensionMismatch(f"matrix must be {kind}, got shape {m.shape}")
    return m


def _per_slice(kernel, m, *args):
    # a stack runs in one call, but its checks see every slice at once
    # (a non-finite slice is found before an earlier singular one, and
    # LAPACK does not say which slice failed): on failure the slices are
    # replayed in order, so the error is the first failing slice's
    try:
        return kernel(m, *args)
    except EksError:
        if m.ndim == 3:
            for matrix in m:
                kernel(matrix, *args)
        raise


def symmetrize(m):
    """Return (M + M^T)/2 after validating that M is square (or a
    (C, n, n) stack, symmetrized slice by slice) and that the result is
    finite: a non-finite entry of M, or a sum that overflows, raises
    NonFinite."""
    return _symmetrize(_as_square(m, stack=True))


# an overflowing sum is reported by _symmetrize's check, as NonFinite,
# not by a numpy warning.  As a decorator np.errstate costs a fifth of
# what a with block costs per call
@np.errstate(over="ignore", invalid="ignore")
def _half_sum(m):
    return 0.5 * (m + m.swapaxes(-1, -2))


def _symmetrize(m):
    out = _half_sum(m)
    # a non-finite entry of M is non-finite in the result too, so this
    # one check covers the input as well as an overflowing sum
    if not np.isfinite(out).all():
        raise NonFinite("matrix contains non-finite entries, or M + M^T "
                        "overflowed")
    return out


def spd_sqrt(m):
    """Symmetric PSD square root via a full eigendecomposition.

    Parameters
    ----------
    m : (n, n) or (C, n, n) array_like
        Symmetric positive semidefinite matrix, or a stack of them, each
        treated on its own.  It is symmetrized on entry, so mild asymmetry
        from accumulated roundoff is fine.  An eigenvalue below
        ``-SQRT_TOL * lam_max`` raises NotPSD; those below
        ``SQRT_TOL * lam_max`` are clamped to zero.

    Returns
    -------
    ndarray of m's shape
        Symmetric PSD matrix S with S @ S ~= M, slice by slice.

    Notes
    -----
    The eigendecomposition route (rather than a Cholesky-based iteration)
    keeps singular and near-singular covariances first-class citizens:
    ensembles whose spread has collapsed in some direction produce exact
    zero eigenvalues here and therefore inject exactly zero noise in that
    direction.
    """
    return _per_slice(_sqrt, _as_square(m, stack=True))


def _sqrt(m):
    # every expression acts on the last two axes alone; lam_max and the
    # floor keep a length-1 (length-0 for an empty matrix) last axis
    w, v = _kernels.eigh(_symmetrize(m))
    lam_max = w[..., -1:]
    floor = SQRT_TOL * np.maximum(lam_max, 0.0)
    low = w < floor
    # an eigenvalue below -floor is also below floor: a matrix with none
    # to clamp skips both checks
    if np.count_nonzero(low):
        if (w[..., :1] < -floor).any():
            # a failing stack is replayed, so only a matrix's own message
            # is ever raised
            raise NotPSD(
                f"eigenvalue {w[..., 0].min():.3e} below -{SQRT_TOL:g} * "
                f"lam_max ({lam_max.max():.3e})")
        w = np.where(low, 0.0, w)
    root = (v * np.sqrt(w[..., None, :])) @ v.swapaxes(-1, -2)
    return 0.5 * (root + root.swapaxes(-1, -2))


def _cholesky_solve(m, rhs):
    # m is already symmetrized and rhs finite, with matching leading size
    try:
        _kernels.cholesky(m)
        return _kernels.solve(m, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrix("Cholesky factorization failed: the matrix is "
                             "not positive definite") from None


def spd_solve(m, rhs):
    """Solve M x = rhs for symmetric positive definite M.

    Raises SingularMatrix if M's Cholesky factorization fails.
    """
    m = _symmetrize(_as_square(m))
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"rhs leading dimension {rhs.shape[0]} != matrix size {m.shape[0]}")
    if not np.isfinite(rhs).all():
        raise NonFinite("rhs contains non-finite entries")
    return _cholesky_solve(m, rhs)


def spd_invert(m):
    """Inverse of a symmetric positive definite matrix, symmetrized.

    M is symmetrized once on entry; an inverse that overflows (a finite M
    with a vanishing eigenvalue) raises NonFinite, so the result is always
    a finite, exactly symmetric matrix."""
    m = _symmetrize(_as_square(m))
    return _symmetrize(_cholesky_solve(m, np.eye(m.shape[0])))


def lambda_min(m):
    """Smallest eigenvalue of the symmetrized input."""
    m = _symmetrize(_as_square(m))
    if m.shape[0] == 0:
        raise DimensionMismatch("empty matrix has no eigenvalues")
    return float(_kernels.eigvalsh(m)[0])


def general_solve(a, rhs):
    """Solve A x = rhs for general square A by LU with partial pivoting.

    One factorization is shared across all right-hand-side columns, which
    is the whole point: the implicit half step of the particle dynamics
    solves the same (generally nonsymmetric) matrix against every particle
    at once.  numpy's gesv gufunc factors and solves in one call.  A may
    also be a (C, n, n) stack, each slice solved against the same rhs.
    """
    return _per_slice(_solve, _as_square(a, stack=True),
                      np.asarray(rhs, dtype=float))


def _solve(a, rhs):
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains non-finite entries")
    if rhs.shape[0] != a.shape[-1]:
        raise DimensionMismatch(
            f"rhs leading dimension {rhs.shape[0]} != matrix size "
            f"{a.shape[-1]}")
    try:
        x = _kernels.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrix("LU factorization produced a zero pivot") \
            from None
    if not np.isfinite(x).all():
        raise SingularMatrix("solution of the linear system is non-finite")
    return x
