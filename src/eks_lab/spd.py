"""Symmetric positive semidefinite linear algebra kernel.

Every covariance-like matrix in this package passes through here: square
roots for noise, solves against precision matrices, smallest eigenvalues
for the spectral condition diagnostic.  Symmetry is enforced by explicit
symmetrization at the boundary rather than by a wrapper type, and PSD-ness
is policed with a relative eigenvalue tolerance.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonFinite, NotPSD, SingularMatrix

__all__ = [
    "symmetrize",
    "spd_sqrt",
    "spd_solve",
    "spd_invert",
    "lambda_min",
    "general_solve",
]

SQRT_TOL = 1e-12


def _as_square(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(
            f"matrix must be square 2-d, got shape {m.shape}")
    return m


def symmetrize(m):
    """Return (M + M^T)/2 after validating that M is square and that the
    result is finite: a non-finite entry of M, or a sum that overflows,
    raises NonFinite."""
    m = _as_square(m)
    # an overflowing sum is reported by the check below, as NonFinite,
    # not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = 0.5 * (m + m.T)
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
    m : (n, n) array_like
        Symmetric positive semidefinite matrix.  It is symmetrized on
        entry, so mild asymmetry from accumulated roundoff is fine.  An
        eigenvalue below ``-SQRT_TOL * lam_max`` raises NotPSD; those
        below ``SQRT_TOL * lam_max`` are clamped to zero.

    Returns
    -------
    (n, n) ndarray
        Symmetric PSD matrix S with S @ S ~= M.

    Notes
    -----
    The eigendecomposition route (rather than a Cholesky-based iteration)
    keeps singular and near-singular covariances first-class citizens:
    ensembles whose spread has collapsed in some direction produce exact
    zero eigenvalues here and therefore inject exactly zero noise in that
    direction.
    """
    m = symmetrize(m)
    w, v = np.linalg.eigh(m)
    lam_max = w[-1] if w.size else 0.0
    floor = SQRT_TOL * lam_max if lam_max > 0.0 else 0.0
    if w.size and w[0] < -floor:
        raise NotPSD(
            f"eigenvalue {w[0]:.3e} below -{SQRT_TOL:g} * lam_max "
            f"({lam_max:.3e})")
    w = np.where(w < floor, 0.0, w)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def _cholesky_solve(m, rhs):
    # m is already symmetrized and rhs finite, with matching leading size
    try:
        factor = scipy.linalg.cho_factor(m, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise SingularMatrix(f"Cholesky factorization failed: {err}") from None
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def spd_solve(m, rhs):
    """Solve M x = rhs for symmetric positive definite M via Cholesky.

    Raises SingularMatrix if the factorization fails.
    """
    m = symmetrize(m)
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
    m = symmetrize(m)
    return symmetrize(_cholesky_solve(m, np.eye(m.shape[0])))


def lambda_min(m):
    """Smallest eigenvalue of the symmetrized input."""
    m = symmetrize(m)
    if m.shape[0] == 0:
        raise DimensionMismatch("empty matrix has no eigenvalues")
    return float(np.linalg.eigvalsh(m)[0])


def general_solve(a, rhs):
    """Solve A x = rhs for general square A by LU with partial pivoting.

    One factorization is shared across all right-hand-side columns, which
    is the whole point: the implicit half step of the particle dynamics
    solves the same (generally nonsymmetric) matrix against every particle
    at once.  numpy's gesv factors and solves in one call, without
    scipy's per-call wrapper cost.
    """
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains non-finite entries")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"rhs leading dimension {rhs.shape[0]} != matrix size {a.shape[0]}")
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrix("LU factorization produced a zero pivot") \
            from None
    if not np.isfinite(x).all():
        raise SingularMatrix("solution of the linear system is non-finite")
    return x
