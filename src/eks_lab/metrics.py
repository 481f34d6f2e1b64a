"""Distances between distributions and rate estimation.

Three distances cover the measurement needs: the closed-form 2-Wasserstein
distance between Gaussians, the exact empirical W2 between equal-size
particle clouds (optimal assignment), and an ensemble-vs-Gaussian
estimator that draws a same-size i.i.d. reference sample.  fit_slope
turns sweeps of (size, distance) pairs into log-log rate exponents.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .ensemble import Ensemble
from .errors import (DimensionMismatch, NonFinite, NonPositive, SizeMismatch,
                     TooLarge)
from .model import GaussianMoments
from .noise import NoiseSource
from .spd import spd_sqrt

__all__ = [
    "SlopeFit",
    "gaussian_w2",
    "empirical_w2_exact",
    "w2_ensemble_vs_gaussian",
    "fit_slope",
]

ASSIGNMENT_LIMIT = 4096


def _cloud(x, name):
    cloud = x.particles if isinstance(x, Ensemble) \
        else np.asarray(x, dtype=float)
    if cloud.ndim != 2:
        raise DimensionMismatch(
            f"cloud {name} must be a 2-D (J, L) array, got shape {cloud.shape}")
    return cloud


def gaussian_w2(a, b):
    """2-Wasserstein distance between two Gaussians.

    W2^2 = |m_a - m_b|^2 + tr(C_a + C_b - 2 (C_b^{1/2} C_a C_b^{1/2})^{1/2}).
    Symmetric in its arguments and zero exactly when the moments agree.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    sb = spd_sqrt(b.cov)
    cross = spd_sqrt(sb @ a.cov @ sb)
    trace_part = float(np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    d2 = float(np.sum((a.mean - b.mean) ** 2)) + max(trace_part, 0.0)
    return float(np.sqrt(d2))


def empirical_w2_exact(x, y):
    """Exact W2 between two equal-size particle clouds.

    Equal-weight empirical measures of the same size reduce the transport
    problem to an assignment: W2^2 = min over pairings of the mean squared
    distance.  Solved exactly (shortest augmenting path) on the squared
    Euclidean cost matrix; guarded at J <= 4096 because the cost matrix
    is dense.

    Each cloud must be a 2-D (J, L) array with J >= 1 finite points, and
    every squared distance must be finite; anything else raises before
    the solve.  The solver is scipy's compiled linear_sum_assignment,
    bound from its extension file, without the scipy.optimize package,
    on the first call that passes these checks (_kernels).
    """
    px, py = _cloud(x, "x"), _cloud(y, "y")
    for name, cloud in (("x", px), ("y", py)):
        if not np.all(np.isfinite(cloud)):
            raise NonFinite(f"cloud {name} holds a non-finite point")
    if px.shape != py.shape:
        raise SizeMismatch(f"cloud shapes differ: {px.shape} vs {py.shape}")
    j = px.shape[0]
    if j == 0:
        raise NonPositive("clouds are empty: J = 0")
    if j > ASSIGNMENT_LIMIT:
        raise TooLarge(
            f"J = {j} exceeds the exact-assignment guard {ASSIGNMENT_LIMIT}")
    # finite points give costs >= 0 that can only overflow, to +inf
    with np.errstate(over="ignore"):
        cost = _squared_distances(px, py)
    if not np.isfinite(cost.max()):
        raise NonFinite("a squared distance between the clouds overflows")
    rows, cols = _kernels.linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


# elements per block of cost rows: the scratch is 256 KiB
_COST_BLOCK = 32768


def _squared_distances(px, py):
    """The (J, J) squared Euclidean distances between the rows of px and
    py, bitwise scipy's cdist(px, py, "sqeuclidean"): for each block of
    rows, (x_0 - y_0)^2 is written and (x_l - y_l)^2 added for l = 1, 2,
    ... in order, cdist's own summation.  One block-sized scratch is the
    only temporary."""
    j, dim = px.shape
    xt, yt = px.T.copy(), py.T.copy()
    cost = np.zeros((j, j)) if dim == 0 else np.empty((j, j))
    rows = max(1, _COST_BLOCK // j)
    scratch = np.empty((rows, j))
    for start in range(0, j, rows):
        block = cost[start:start + rows]
        for l in range(dim):
            out = block if l == 0 else scratch[:len(block)]
            np.subtract(xt[l, start:start + rows, None], yt[l], out=out)
            np.multiply(out, out, out=out)
            if l:
                block += out
    return cost


def w2_ensemble_vs_gaussian(x, g, seed):
    """Distance from a particle cloud to a Gaussian, estimated by exact W2
    against a fresh same-size i.i.d. sample from the Gaussian.

    The estimator is upward-noisy (the reference sample has its own
    sampling error), but that error follows the same J-rate as the
    quantity being measured, so log-log slopes are unaffected; acceptance
    bands absorb the bias.
    """
    px = _cloud(x, "x")
    if px.shape[1] != g.dim:
        raise DimensionMismatch(
            f"cloud dimension {px.shape[1]} vs Gaussian dimension {g.dim}")
    xi = NoiseSource(seed=seed).normal_block(0, px.shape[0], g.dim)
    root = spd_sqrt(g.cov)
    reference = g.mean[None, :] + np.einsum("jl,ml->jm", xi, root)
    return empirical_w2_exact(px, reference)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through its points: (ln x, ln y) from fit_slope,
    (t, ln y) for study-time's semilog decay fit."""

    slope: float
    intercept: float
    r_squared: float
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))


def fit_slope(points):
    """Fit ln y = slope * ln x + intercept by least squares.

    points is a sequence of (x, y) pairs with x, y > 0; at least 3 are
    required for the fit to mean anything.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise NonPositive(
            f"need at least 3 (x, y) pairs, got array of shape {pts.shape}")
    if np.any(pts <= 0.0) or not np.all(np.isfinite(pts)):
        raise NonPositive("all x and y values must be finite and positive")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    slope, intercept, r2 = _line_fit(lx, ly)
    return SlopeFit(slope=slope, intercept=intercept, r_squared=r2,
                    points=np.column_stack([lx, ly]))


def _line_fit(x, y):
    """Least-squares line y = slope * x + intercept and its R^2, clamped
    to [0, 1] and 1 for constant y; the one fit behind every rate."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), r2
