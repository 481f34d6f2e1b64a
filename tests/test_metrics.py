"""Tests for distances and slope fitting.

Oracles: brute-force enumeration of all assignments for small clouds, the
1-D Gaussian W2 closed form, and exact synthetic power laws.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from eks_lab import _kernels
from eks_lab.errors import (
    DimensionMismatch,
    NonFinite,
    NonPositive,
    SizeMismatch,
    TooLarge,
)
from eks_lab.metrics import (
    _squared_distances,
    empirical_w2_exact,
    fit_slope,
    gaussian_w2,
    w2_ensemble_vs_gaussian,
)
from eks_lab.model import GaussianMoments


def brute_force_w2(px, py):
    j = px.shape[0]
    cost = ((px[:, None, :] - py[None, :, :]) ** 2).sum(axis=2)
    best = np.inf
    for perm in itertools.permutations(range(j)):
        best = min(best, cost[np.arange(j), perm].mean())
    return np.sqrt(best)


def gauss1d(m, s):
    return GaussianMoments(mean=np.array([m]), cov=np.array([[s**2]]))


def test_gaussian_w2_zero_and_translation():
    rng = np.random.default_rng(1)
    c = rng.standard_normal((3, 3))
    g = GaussianMoments(mean=rng.standard_normal(3), cov=c @ c.T + np.eye(3))
    assert gaussian_w2(g, g) == 0.0
    shifted = GaussianMoments(mean=g.mean + [3.0, 0.0, 4.0], cov=g.cov)
    assert gaussian_w2(g, shifted) == pytest.approx(5.0, abs=1e-12)


def test_gaussian_w2_one_dimensional_closed_form():
    # W2(N(m1, s1^2), N(m2, s2^2)) = sqrt((m1-m2)^2 + (s1-s2)^2)
    assert gaussian_w2(gauss1d(0, 1), gauss1d(0, 2)) == pytest.approx(
        1.0, abs=1e-12)
    assert gaussian_w2(gauss1d(1, 1), gauss1d(4, 5)) == pytest.approx(
        5.0, abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(25):
        m1, m2 = rng.standard_normal(2) * 3
        s1, s2 = rng.uniform(0.1, 4, size=2)
        expect = np.sqrt((m1 - m2) ** 2 + (s1 - s2) ** 2)
        assert gaussian_w2(gauss1d(m1, s1), gauss1d(m2, s2)) == pytest.approx(
            expect, abs=1e-12)


def test_gaussian_w2_diagonal_reduces_to_coordinatewise():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ma, mb = rng.standard_normal((2, 3))
        da, db = rng.uniform(0.1, 3, size=(2, 3))
        a = GaussianMoments(mean=ma, cov=np.diag(da))
        b = GaussianMoments(mean=mb, cov=np.diag(db))
        expect = np.sqrt(np.sum((ma - mb) ** 2)
                         + np.sum((np.sqrt(da) - np.sqrt(db)) ** 2))
        assert gaussian_w2(a, b) == pytest.approx(expect, abs=1e-12)


def test_gaussian_w2_symmetry_and_positivity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        ca = rng.standard_normal((2, 2))
        cb = rng.standard_normal((2, 2))
        a = GaussianMoments(mean=rng.standard_normal(2),
                            cov=ca @ ca.T + 0.05 * np.eye(2))
        b = GaussianMoments(mean=rng.standard_normal(2),
                            cov=cb @ cb.T + 0.05 * np.eye(2))
        d_ab = gaussian_w2(a, b)
        assert d_ab == pytest.approx(gaussian_w2(b, a), abs=1e-12)
        assert d_ab > 0.0


def test_gaussian_w2_dimension_check():
    with pytest.raises(DimensionMismatch):
        gaussian_w2(gauss1d(0, 1),
                    GaussianMoments(mean=np.zeros(2), cov=np.eye(2)))


def test_empirical_w2_trivial_cases():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, 2))
    assert empirical_w2_exact(x, x) == 0.0
    # J=2 in 1-D, clouds are the same two points in swapped order
    a = np.array([[0.0], [1.0]])
    b = np.array([[1.0], [0.0]])
    assert empirical_w2_exact(a, b) == 0.0


def test_empirical_w2_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 2))
        assert empirical_w2_exact(x, y) == pytest.approx(
            brute_force_w2(x, y), abs=1e-12)


def test_empirical_w2_identity_assignment_upper_bound():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 3))
        paired = np.sqrt(np.mean(np.sum((x - y) ** 2, axis=1)))
        assert empirical_w2_exact(x, y) <= paired + 1e-12


def test_empirical_w2_triangle_inequality():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, y, z = rng.standard_normal((3, 12, 2))
        assert empirical_w2_exact(x, z) <= (empirical_w2_exact(x, y)
                                            + empirical_w2_exact(y, z) + 1e-12)


def test_empirical_w2_guards():
    with pytest.raises(SizeMismatch):
        empirical_w2_exact(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(SizeMismatch):
        empirical_w2_exact(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(TooLarge):
        empirical_w2_exact(np.zeros((4097, 1)), np.zeros((4097, 1)))


@pytest.mark.parametrize("x, y, error", [
    (np.zeros(3), np.zeros(3), DimensionMismatch),
    (np.zeros((3, 2, 1)), np.zeros((3, 2, 1)), DimensionMismatch),
    (np.zeros((0, 2)), np.zeros((0, 2)), NonPositive),
    (np.array([[0.0], [np.nan]]), np.zeros((2, 1)), NonFinite),
    (np.zeros((2, 1)), np.array([[np.inf], [0.0]]), NonFinite),
    (np.array([[0.0], [1e200]]), np.zeros((2, 1)), NonFinite),
], ids=["1-D", "3-D", "empty", "nan-point", "inf-point", "cost-overflow"])
def test_empirical_w2_names_a_bad_input(x, y, error, monkeypatch):
    """Rejected before the solve, not left to scipy or to a NaN."""
    def solve(cost):
        raise AssertionError("solved a rejected input")

    monkeypatch.setattr(_kernels, "linear_sum_assignment", solve)
    with pytest.raises(error):
        empirical_w2_exact(x, y)


@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e-3, 0.0),
                                           (1e3, 0.0), (1.0, 7.5)])
@pytest.mark.parametrize("j", [1, 2, 3, 64, 65, 1024])
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
def test_cost_matrix_is_cdist_bit_for_bit(dim, j, scale, offset):
    rng = np.random.default_rng(dim * 7919 + j)
    x, y = offset + scale * rng.standard_normal((2, j, dim))
    cost = _squared_distances(x, y)
    assert np.array_equal(cost, cdist(x, y, "sqeuclidean"))


def test_cost_matrix_without_coordinates_is_cdist():
    assert np.array_equal(_squared_distances(np.zeros((3, 0)),
                                             np.zeros((3, 0))),
                          cdist(np.zeros((3, 0)), np.zeros((3, 0)),
                                "sqeuclidean"))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_empirical_w2_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 2))
    y = rng.standard_normal((8, 2))
    shift = rng.standard_normal(2)
    assert empirical_w2_exact(x + shift, y + shift) == pytest.approx(
        empirical_w2_exact(x, y), abs=1e-9)


def test_w2_vs_gaussian_degenerate_cases():
    g = GaussianMoments(mean=np.array([1.0, -2.0]), cov=np.zeros((2, 2)))
    at_mean = np.tile(g.mean, (8, 1))
    assert w2_ensemble_vs_gaussian(at_mean, g, seed=0) == 0.0
    displaced = at_mean + np.array([3.0, 4.0])
    assert w2_ensemble_vs_gaussian(displaced, g, seed=0) == pytest.approx(
        5.0, abs=1e-12)


def test_w2_vs_gaussian_rejects_dimension_mismatch():
    g = GaussianMoments(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(DimensionMismatch):
        w2_ensemble_vs_gaussian(np.zeros((8, 3)), g, seed=0)


def test_w2_vs_gaussian_self_distance_rate():
    # a cloud drawn from g itself: distance shrinks like J^(-1/2) in 2-D
    g = GaussianMoments(mean=np.zeros(2), cov=np.eye(2))
    points = []
    for j in (64, 128, 256, 512):
        vals = []
        for rep in range(3):
            rng = np.random.default_rng(1000 + 17 * j + rep)
            cloud = rng.standard_normal((j, 2))
            vals.append(w2_ensemble_vs_gaussian(cloud, g,
                                                seed=50_000 + j + rep))
        points.append((j, np.mean(vals)))
    fit = fit_slope(points)
    assert -0.8 <= fit.slope <= -0.25


def test_fit_slope_exact_power_laws():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_slope(np.column_stack([xs, xs]))
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    fit = fit_slope(np.column_stack([xs, 7.0 * xs**-0.5]))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-12)


def test_fit_slope_noisy_power_law():
    rng = np.random.default_rng(13)
    xs = np.logspace(0, 3, 20)
    ys = 2.0 * xs**-1.0 * np.exp(0.01 * rng.standard_normal(20))
    fit = fit_slope(np.column_stack([xs, ys]))
    assert fit.slope == pytest.approx(-1.0, abs=0.05)
    assert fit.r_squared > 0.99


def test_fit_slope_validation():
    with pytest.raises(NonPositive):
        fit_slope([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(NonPositive):
        fit_slope([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])
