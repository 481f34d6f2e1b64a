"""Analytic mean-field flow for the linear-Gaussian case.

With a linear forward map and Gaussian start N(m0, C0), the mean-field
law stays Gaussian for all time and its moments obey

    dm/dt = -C(t) (B m - r),        dC/dt = -2 C B C + 2 C,

with B the posterior precision and r = A^T gamma^{-1} y + gamma0^{-1} u0.
Both equations have closed forms.  The covariance is

    C(t) = ((1 - e^{-2t}) B + e^{-2t} C0^{-1})^{-1},

a matrix-convex interpolation between C0 and the posterior covariance
B^{-1}; differentiating it reproduces the ODE exactly.  Take V with
V^T B V = I and V^T (C0^{-1} - B) V = diag(lam), so lam > -1.  The mean
then decouples in the coordinates V^T B (m - m*), with m* = B^{-1} r:

    m(t1) = m* + V diag(g) V^T B (m(t0) - m*),
    g = e^{-(t1 - t0)} sqrt((1 + lam e^{-2 t0}) / (1 + lam e^{-2 t1})).

Both moments converge to the posterior (m*, B^{-1}) exponentially; the
decay curve of the W2 distance to the posterior is the reference every
particle experiment is measured against.  integrate_moments solves the
raw ODEs with RK4 and is kept only as the independent oracle the closed
forms are checked against.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NonFinite, NonlinearUnsupported, NonPositive, NotPSD
from .metrics import gaussian_w2
from .model import GaussianMoments, posterior_moments, precision_matrix
from .spd import lambda_min, spd_invert, symmetrize

__all__ = [
    "MomentFlow",
    "covariance_closed_form",
    "advance_mean",
    "integrate_moments",
    "rho_at",
    "w2_decay_curve",
]


@dataclass(frozen=True)
class MomentFlow:
    """Initial Gaussian moments plus the problem defining B and r.

    dt_ode is the substep length of the RK4 oracle integrate_moments; the
    closed forms do not use it.
    """

    problem: object
    m0: np.ndarray
    c0: np.ndarray
    dt_ode: float = 1e-3
    _b: np.ndarray = field(init=False, repr=False, compare=False)
    _r: np.ndarray = field(init=False, repr=False, compare=False)
    _c0_inv: np.ndarray = field(init=False, repr=False, compare=False)
    # eigendecomposition of C0^{-1} - B in the B metric: V^T B V = I and
    # V^T (C0^{-1} - B) V = diag(_lam), the basis in which the mean flow
    # map is diagonal
    _v: np.ndarray = field(init=False, repr=False, compare=False)
    _lam: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.problem.nonlinear is not None:
            raise NonlinearUnsupported(
                "the Gaussian moment flow requires a linear forward map")
        m0 = np.asarray(self.m0, dtype=float)
        c0 = symmetrize(self.c0)
        l = self.problem.dim_l
        if m0.shape != (l,) or c0.shape != (l, l):
            raise NonPositive(
                f"m0/c0 must have shapes ({l},)/({l},{l}), got "
                f"{m0.shape}/{c0.shape}")
        if lambda_min(c0) <= 0.0:
            raise NotPSD("c0 must be strictly positive definite")
        if not (self.dt_ode > 0.0):
            raise NonPositive(f"dt_ode must be positive, got {self.dt_ode}")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "_b", precision_matrix(self.problem))
        object.__setattr__(self, "_r", self.problem.r)
        object.__setattr__(self, "_c0_inv", spd_invert(c0))
        lam, v = scipy.linalg.eigh(self._c0_inv - self._b, self._b)
        object.__setattr__(self, "_v", v)
        # lam > -1 exactly, since C0^{-1} is positive definite; when B
        # dwarfs C0^{-1} the solver may return lam just below -1, which
        # would put a negative number under advance_mean's square root
        object.__setattr__(self, "_lam", np.maximum(lam, -1.0))


def covariance_closed_form(flow, t):
    """C(t) = ((1 - e^{-2t}) B + e^{-2t} C0^{-1})^{-1}, SPD for all t >= 0."""
    if t < 0.0:
        raise NonPositive(f"t must be >= 0, got {t}")
    decay = np.exp(-2.0 * t)
    mat = (1.0 - decay) * flow._b + decay * flow._c0_inv
    return spd_invert(mat)


def advance_mean(flow, m_start, t_start, t_end):
    """Exact mean of the flow at t_end, given the mean m_start at t_start.

    In the cached eigenbasis each coordinate of V^T B (m - m*) decays by
    e^{-(t_end - t_start)} sqrt((1 + lam e^{-2 t_start})
    / (1 + lam e^{-2 t_end})).  The factors are written in e^{-2t}, so
    they stay finite at any horizon.  Advancing in pieces composes to the
    direct map up to rounding.
    """
    if t_end < t_start or t_start < 0.0:
        raise NonPositive(
            f"need 0 <= t_start <= t_end, got {t_start}, {t_end}")
    m = np.asarray(m_start, dtype=float)
    if t_end == t_start:
        return m
    lam = flow._lam
    gain = np.exp(-(t_end - t_start)) * np.sqrt(
        (1.0 + lam * np.exp(-2.0 * t_start))
        / (1.0 + lam * np.exp(-2.0 * t_end)))
    v, m_star = flow._v, posterior_moments(flow.problem).mean
    m = m_star + v @ (gain * (v.T @ (flow._b @ (m - m_star))))
    if not np.all(np.isfinite(m)):
        raise NonFinite("mean flow map gave non-finite entries "
                        "(non-finite m_start?)")
    return m


def integrate_moments(flow, t):
    """Joint RK4 integration of the mean and covariance ODEs from 0 to t.

    Deliberately never touches the closed-form covariance — this is the
    independent route the closed form is checked against.
    """
    if t < 0.0:
        raise NonPositive(f"t must be >= 0, got {t}")
    b, r = flow._b, flow._r

    def rhs(state):
        m, c = state
        return (-c @ (b @ m - r), -2.0 * c @ b @ c + 2.0 * c)

    m = flow.m0.copy()
    c = flow.c0.copy()
    if t > 0.0:
        n_sub = max(1, int(np.ceil(t / flow.dt_ode - 1e-12)))
        dt = t / n_sub
        for _ in range(n_sub):
            k1m, k1c = rhs((m, c))
            k2m, k2c = rhs((m + dt / 2.0 * k1m, c + dt / 2.0 * k1c))
            k3m, k3c = rhs((m + dt / 2.0 * k2m, c + dt / 2.0 * k2c))
            k4m, k4c = rhs((m + dt * k3m, c + dt * k3c))
            m = m + dt / 6.0 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
            c = c + dt / 6.0 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
        raise NonFinite("moment ODEs diverged (dt_ode too large?)")
    return GaussianMoments(mean=m, cov=symmetrize(c))


def rho_at(flow, t):
    """Gaussian moments of the mean-field law at time t, both from their
    closed forms."""
    return GaussianMoments(mean=advance_mean(flow, flow.m0, 0.0, t),
                           cov=covariance_closed_form(flow, t))


def w2_decay_curve(flow, t_grid):
    """[(t, W2(rho(t), posterior))] on an increasing grid of times."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise NonPositive("t_grid must be a non-empty 1-d array")
    if t_grid[0] < 0.0 or np.any(np.diff(t_grid) <= 0.0):
        raise NonPositive("t_grid must be strictly increasing and >= 0")
    target = posterior_moments(flow.problem)
    return [(float(t), gaussian_w2(rho_at(flow, float(t)), target))
            for t in t_grid]
