"""Gaussian-prior inverse problem: forward map, posterior moments.

The forward map is G(u) = A u + m(u) with a linear part A and an optional
bounded perturbation m.  Observations carry Gaussian noise with covariance
gamma, the prior is N(u0, gamma0).  The regularized least-squares loss

    phi_r(u) = 0.5 |y - G(u)|^2_gamma + 0.5 |u - u0|^2_gamma0

(with |z|^2_M = z^T M^{-1} z) defines the posterior exp(-phi_r) up to
normalization.  For linear G the posterior is Gaussian with precision
B = A^T gamma^{-1} A + gamma0^{-1} and mean B^{-1} r,
r = A^T gamma^{-1} y + gamma0^{-1} u0; those closed forms live here next
to a tensor-grid quadrature that does not know about them, so the two can
be played against each other in tests and demos.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._kernels import einsum
from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    EksError,
    NonFinite,
    NonlinearUnsupported,
    NonPositive,
    NotPSD,
    TooLarge,
)
from .spd import lambda_min, spd_invert, spd_solve, spd_sqrt, symmetrize

__all__ = [
    "GaussianMoments",
    "NonlinearPerturbation",
    "InverseProblem",
    "apply_forward_batch",
    "apply_forward_stack",
    "precision_matrix",
    "posterior_moments",
    "make_perpendicular_perturbation",
    "quadrature_moments",
]


def _vector(x, n, name):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"{name} must have shape ({n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"{name} contains non-finite entries")
    return x


def _frozen(x):
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class GaussianMoments:
    """Mean vector and covariance matrix of a Gaussian distribution."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise DimensionMismatch(f"mean must be 1-d, got shape {mean.shape}")
        cov = symmetrize(self.cov)
        if cov.shape != (mean.shape[0],) * 2:
            raise DimensionMismatch(
                f"cov shape {cov.shape} does not match mean size "
                f"{mean.shape[0]}")
        if not np.all(np.isfinite(mean)):
            raise NonFinite("mean contains non-finite entries")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _unchecked(cls, mean, cov):
        # moments whose producers already checked them: a finite 1-d float
        # mean and a finite, exactly symmetric cov of matching size (the
        # validated constructor would return these same arrays' values)
        moments = object.__new__(cls)
        vars(moments).update(mean=mean, cov=cov)
        return moments

    @property
    def dim(self):
        return self.mean.shape[0]


@dataclass(frozen=True)
class NonlinearPerturbation:
    """Bounded perturbation m of the forward map, with its derivative.

    evaluate(u) returns m(u) with shape (K,); gradient(u) returns the
    derivative in (L, K) orientation, so the full forward derivative is
    A^T + gradient(u).  amplitude_bound is an upper bound on
    |m(u)| + ||grad m(u)|| over all u.  direction_basis columns span the
    range of m; for perturbations built by make_perpendicular_perturbation
    they are gamma^{-1}-orthogonal to the columns of A.

    evaluate and gradient act on one point; they are the oracles the
    vectorized forms are checked against.  evaluate_batch /
    gradient_apply_batch are the forms the particle dynamics call,
    component-major like the steps: particles come in as the contiguous
    (L, J) array U whose column j is u_j, and covectors as the (K, J)
    array Z.  evaluate_batch(U) returns the (K, J) array of columns
    m(u_j); gradient_apply_batch(U, Z) returns the (L, J) array of
    columns grad m(u_j) @ z_j.
    """

    evaluate: Callable
    gradient: Callable
    amplitude_bound: float
    direction_basis: np.ndarray
    evaluate_batch: Callable
    gradient_apply_batch: Callable

    def eval_batch(self, u_all):
        out = np.asarray(self.evaluate_batch(u_all), dtype=float)
        if not np.isfinite(out).all():
            raise NonFinite("perturbation produced non-finite values")
        # sqrt is monotone: one sqrt of the largest squared column norm, not J
        peak = float(np.sqrt(einsum("kj,kj->j", out, out).max())) \
            if out.size else 0.0
        if peak > self.amplitude_bound * (1.0 + 1e-9) + 1e-12:
            raise EksError(
                f"perturbation exceeded its stated bound: |m(u)| = {peak:.3e} "
                f"> {self.amplitude_bound:.3e}")
        return out

    def grad_apply_batch(self, u_all, z_all):
        out = np.asarray(self.gradient_apply_batch(u_all, z_all), dtype=float)
        if not np.isfinite(out).all():
            raise NonFinite("perturbation gradient produced non-finite values")
        return out


@dataclass(frozen=True)
class InverseProblem:
    """Forward map, noise and prior covariances, data, and prior mean.

    Fields
    ------
    a : (K, L) observation operator
    gamma : (K, K) SPD observation-noise covariance
    gamma0 : (L, L) SPD prior covariance
    y : (K,) observed data
    u0 : (L,) prior mean
    nonlinear : optional NonlinearPerturbation added to A u

    Instances are treated as immutable; the vector
    r = A^T gamma^{-1} y + gamma0^{-1} u0, the inverses of gamma and
    gamma0 and the linear posterior are computed once at construction.
    """

    a: np.ndarray
    gamma: np.ndarray
    gamma0: np.ndarray
    y: np.ndarray
    u0: np.ndarray
    nonlinear: Optional[NonlinearPerturbation] = None
    r: np.ndarray = field(init=False, repr=False, compare=False)
    gamma_inv: np.ndarray = field(init=False, repr=False, compare=False)
    gamma0_inv: np.ndarray = field(init=False, repr=False, compare=False)
    _precision: np.ndarray = field(init=False, repr=False, compare=False)
    _precision_lambda_min: float = field(init=False, repr=False,
                                         compare=False)
    _posterior: GaussianMoments = field(init=False, repr=False,
                                        compare=False)
    _prior_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _misfit_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _gradient_rows: np.ndarray = field(init=False, repr=False,
                                       compare=False)
    _drift_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _eye_l: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch(f"a must be 2-d (K, L), got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFinite("a contains non-finite entries")
        k, l = a.shape
        gamma = symmetrize(self.gamma)
        gamma0 = symmetrize(self.gamma0)
        if gamma.shape != (k, k):
            raise DimensionMismatch(
                f"gamma must be ({k}, {k}) to match a, got {gamma.shape}")
        if gamma0.shape != (l, l):
            raise DimensionMismatch(
                f"gamma0 must be ({l}, {l}) to match a, got {gamma0.shape}")
        if lambda_min(gamma) <= 0.0:
            raise NotPSD("gamma must be strictly positive definite")
        if lambda_min(gamma0) <= 0.0:
            raise NotPSD("gamma0 must be strictly positive definite")
        y = _vector(self.y, k, "y")
        u0 = _vector(self.u0, l, "u0")
        # explicit inverses and linear-posterior moments, computed once;
        # the particle dynamics apply these row by row every step
        gamma_inv, gamma0_inv = spd_invert(gamma), spd_invert(gamma0)
        # an overflowing product is named here, with the inputs it came
        # from, not by a numpy warning or by a later generic check
        with np.errstate(over="ignore", invalid="ignore"):
            r = a.T @ spd_solve(gamma, y) + spd_solve(gamma0, u0)
            b = a.T @ spd_solve(gamma, a) + gamma0_inv
            # what the Kalman steps apply row by row, from the inverses
            gamma0_inv_u0 = einsum("ab,b->a", gamma0_inv, u0)
            a_t_gamma_inv = einsum("kl,km->lm", a, gamma_inv)
            data_pull = einsum("lk,k->l", a_t_gamma_inv, y) + gamma0_inv_u0
        if not np.isfinite(r).all():
            raise NonFinite(
                "r = A^T gamma^-1 y + gamma0^-1 u0 overflowed: a, gamma and "
                "y (or gamma0 and u0) are too far apart in scale")
        try:
            b = symmetrize(b)
        except NonFinite:
            raise NonFinite(
                "posterior precision A^T gamma^-1 A + gamma0^-1 overflowed: "
                "a is too large for gamma, or gamma0 too small") from None
        # the closed-form posterior of the linear part, built once and
        # handed out, read-only, by posterior_moments
        posterior = GaussianMoments(mean=spd_solve(b, r), cov=spd_invert(b))
        _frozen(posterior.mean)
        _frozen(posterior.cov)
        vars(self).update(
            a=a, gamma=gamma, gamma0=gamma0, y=y, u0=u0, r=r,
            gamma_inv=gamma_inv, gamma0_inv=gamma0_inv, _precision=b,
            # B is constant, so the diagnostics' lambda_min(B) is taken once
            _precision_lambda_min=lambda_min(b),
            _posterior=posterior,
            # the rows each step multiplies by its covariances to build a
            # cell's step matrix (see dynamics): h cov_uu [gamma0^-1 |
            # gamma0^-1 u0] and h cov_ug [-gamma^-1 | gamma^-1 y] in the
            # Kalman step; h cov_uu [gamma0^-1 | -A^T gamma^-1 |
            # A^T gamma^-1 y + gamma0^-1 u0 (| -I for the perturbation's
            # rows)] in the gradient step; h C(t) [B | B u*] in the
            # reference step
            _prior_rows=_frozen(np.concatenate(
                [gamma0_inv, gamma0_inv_u0[:, None]], axis=1)),
            _misfit_rows=_frozen(np.concatenate(
                [-gamma_inv, einsum("km,m->k", gamma_inv, y)[:, None]],
                axis=1)),
            _gradient_rows=_frozen(np.concatenate(
                [gamma0_inv, -a_t_gamma_inv, data_pull[:, None]]
                + ([-np.eye(l)] if self.nonlinear is not None else []),
                axis=1)),
            _drift_rows=_frozen(np.concatenate(
                [b, einsum("ab,b->a", b, posterior.mean)[:, None]], axis=1)),
            _eye_l=_frozen(np.eye(l)))

    @property
    def dim_k(self):
        return self.a.shape[0]

    @property
    def dim_l(self):
        return self.a.shape[1]


def apply_forward_batch(problem, u_all):
    """Evaluate the forward map on all rows of u_all, shape (J, L) -> (J, K),
    returned as the transpose of a C-contiguous (K, J) array."""
    u_all = np.asarray(u_all, dtype=float)
    if u_all.ndim != 2 or u_all.shape[1] != problem.dim_l:
        raise DimensionMismatch(
            f"batch must have shape (J, {problem.dim_l}), got {u_all.shape}")
    return _forward(problem, np.ascontiguousarray(u_all.T)[None])[0].T


def apply_forward_stack(problem, u_stack):
    """Evaluate the forward map on R cells at once: the (R, L, J) stack of
    their particles' columns -> the C-contiguous (R, K, J) stack of their
    G(u_j) columns.  Each slice is bitwise apply_forward_batch on the
    cell's rows."""
    u_stack = np.asarray(u_stack, dtype=float)
    if u_stack.ndim != 3 or u_stack.shape[1] != problem.dim_l:
        raise DimensionMismatch(
            f"stack must have shape (R, {problem.dim_l}, J), got "
            f"{u_stack.shape}")
    return _forward(problem, np.ascontiguousarray(u_stack))


def _forward(problem, u):
    # A applied to the contiguous (R, L, J) stack sums over l in one fixed
    # order for every particle, whatever its position, cell, the input's
    # layout or the thread count; the perturbation runs per cell
    out = einsum("kl,rlj->rkj", problem.a, u)
    if problem.nonlinear is not None:
        for out_c, u_c in zip(out, u):
            out_c += problem.nonlinear.eval_batch(u_c)
    return out


def precision_matrix(problem):
    """Posterior precision of the linear part, B = A^T gamma^{-1} A + gamma0^{-1}."""
    return problem._precision


def posterior_moments(problem):
    """Closed-form Gaussian posterior moments for a linear forward map.

    Returns GaussianMoments(mean = B^{-1} r, cov = B^{-1}), one read-only
    object per problem, built when the problem is.  Raises
    NonlinearUnsupported when the problem carries a perturbation, because
    then the posterior is not Gaussian and has no closed form here; use
    quadrature_moments for small L instead.
    """
    if problem.nonlinear is not None:
        raise NonlinearUnsupported(
            "closed-form posterior moments require a linear forward map")
    return problem._posterior


def make_perpendicular_perturbation(a, gamma, seed_direction, frequency,
                                    amplitude):
    """Build a bounded tanh perturbation orthogonal to the range of A.

    The perturbation is m(u) = amplitude * b * tanh(frequency @ u) where b
    is the unit vector obtained by projecting seed_direction onto the
    gamma^{-1}-orthogonal complement of the columns of A.  That makes
    A^T gamma^{-1} m(u) = 0 identically, so the data misfit splits into a
    part the linear map sees and a part it cannot.

    Parameters
    ----------
    a : (K, L) array_like
        Observation operator whose range the perturbation must avoid.
    gamma : (K, K) array_like
        SPD noise covariance defining the inner product.
    seed_direction : (K,) array_like
        Any vector with a component outside the range of A.
    frequency : (L,) array_like
        The scalar argument of tanh is frequency @ u.
    amplitude : float
        Scale of the perturbation; |m(u)| <= amplitude for all u.  Zero is
        allowed and gives m == 0, i.e. the map degenerates to the plain
        linear forward map (useful as a control case).

    Raises
    ------
    DegenerateDirection
        If the projected direction has norm below 1e-10, i.e. the seed lies
        (numerically) inside the range of A.
    NonPositive
        If amplitude < 0.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"a must be 2-d (K, L), got shape {a.shape}")
    k, l = a.shape
    gamma = symmetrize(gamma)
    if gamma.shape != (k, k):
        raise DimensionMismatch(
            f"gamma must be ({k}, {k}) to match a, got {gamma.shape}")
    seed_direction = _vector(seed_direction, k, "seed_direction")
    frequency = _vector(frequency, l, "frequency")
    if amplitude < 0.0:
        raise NonPositive(f"amplitude must be nonnegative, got {amplitude}")

    # project the seed off Range(A) in the gamma^{-1} inner product by
    # whitening with gamma^{-1/2} and using an ordinary least-squares fit
    white = spd_sqrt(spd_invert(gamma))
    coef, *_ = np.linalg.lstsq(white @ a, white @ seed_direction, rcond=None)
    residual = seed_direction - a @ coef
    norm = np.linalg.norm(residual)
    if norm <= 1e-10:
        raise DegenerateDirection(
            "seed_direction lies inside the range of A; nothing is left "
            "after projection")
    b = residual / norm
    freq_norm = float(np.linalg.norm(frequency))

    def evaluate(u):
        return amplitude * np.tanh(float(frequency @ u)) * b

    def gradient(u):
        s = amplitude * (1.0 - np.tanh(float(frequency @ u)) ** 2)
        return s * np.outer(frequency, b)

    # the batched closures run on component-major (L, J) and (K, J) rows:
    # each einsum sums over the short axis in one fixed order per
    # particle, and tanh runs once over a contiguous length-J row
    def evaluate_batch(u):
        t = np.tanh(einsum("l,lj->j", frequency, u))
        return b[:, None] * (amplitude * t)[None, :]

    def gradient_apply_batch(u, z):
        t = np.tanh(einsum("l,lj->j", frequency, u))
        s = amplitude * (1.0 - t**2)
        return frequency[:, None] * (s * einsum("k,kj->j", b, z))[None, :]

    return NonlinearPerturbation(
        evaluate=evaluate,
        gradient=gradient,
        amplitude_bound=amplitude * (1.0 + freq_norm),
        direction_basis=b[:, None],
        evaluate_batch=evaluate_batch,
        gradient_apply_batch=gradient_apply_batch,
    )


def _quadratic_form(x, m):
    """x_n^T M x_n for every row x_n of x, bitwise
    einsum("nk,km,nm->n", x, m, x) without its generic three-operand
    loop: each term is (x_k M_km) x_m, added into a zero start with k
    outer and m inner, as that loop adds them (m outer is not bitwise)."""
    cols = np.ascontiguousarray(x.T)
    acc = np.zeros(x.shape[0])
    for k, x_k in enumerate(cols):
        for x_m, m_km in zip(cols, m[k]):
            acc += (x_k * m_km) * x_m
    return acc


def _log_density_batch(problem, points):
    """-phi_r on all rows of points, vectorized; used by the quadrature."""
    g_all = apply_forward_batch(problem, points)
    misfit = problem.y[None, :] - g_all
    data_term = 0.5 * _quadratic_form(misfit, problem.gamma_inv)
    shift = points - problem.u0[None, :]
    prior_term = 0.5 * _quadratic_form(shift, problem.gamma0_inv)
    return -(data_term + prior_term)


# quadrature_moments' grid: points per axis, and the half-width of its
# window in posterior standard deviations
QUADRATURE_POINTS = 400
QUADRATURE_HALF_WIDTH = 8.0
# grid points whose log density is evaluated at once: whole grid rows, so
# the per-point temporaries of a 2-D grid are a tenth of the grid's
QUADRATURE_BLOCK = 40 * QUADRATURE_POINTS


def _grid_moments(problem, center, widths):
    axes = [np.linspace(c - w, c + w, QUADRATURE_POINTS)
            for c, w in zip(center, widths)]
    if len(axes) == 1:
        points = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([xx.ravel(), yy.ravel()])
        del xx, yy
    # blocks move no bit: every operation of the log density acts on one
    # point at a time (the forward map, the perturbation and its bound
    # check, the two quadratic forms), and each reduction below
    # still runs over the whole grid in the same expression form
    logw = np.empty(points.shape[0])
    for start in range(0, points.shape[0], QUADRATURE_BLOCK):
        stop = start + QUADRATURE_BLOCK
        logw[start:stop] = _log_density_batch(problem, points[start:stop])
    w = np.exp(logw - np.max(logw))
    del logw
    w /= np.sum(w)
    mean = w @ points
    points -= mean[None, :]  # centred in place
    cov = (w[:, None] * points).T @ points
    return GaussianMoments(mean=mean, cov=symmetrize(cov))


def quadrature_moments(problem):
    """Posterior mean and covariance by dense tensor-grid quadrature.

    Only for dimension L <= 2 (TooLarge otherwise).  The grid spans
    QUADRATURE_HALF_WIDTH linear-posterior standard deviations around the
    linear posterior mean, and is re-centered once on the first pass's
    moments so bounded perturbations that shift the posterior stay well
    inside the window.  Deliberately ignorant of the closed-form Gaussian answer:
    this is the reference the closed form gets checked against.
    """
    if problem.dim_l > 2:
        raise TooLarge("tensor-grid quadrature is limited to L <= 2")
    linear = InverseProblem(a=problem.a, gamma=problem.gamma,
                            gamma0=problem.gamma0, y=problem.y,
                            u0=problem.u0)
    start = posterior_moments(linear)
    widths = QUADRATURE_HALF_WIDTH * np.sqrt(np.diag(start.cov))
    first = _grid_moments(problem, start.mean, widths)
    widths = QUADRATURE_HALF_WIDTH * np.sqrt(np.diag(first.cov))
    return _grid_moments(problem, first.mean, widths)
