"""Tests for the symmetric PSD kernel.

Expected values come from independent oracles computed in this file:
closed-form 2x2 eigenvalues, multiply-back checks for square roots, and
residual checks for solves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eks_lab.errors import DimensionMismatch, NonFinite, NotPSD, SingularMatrix
from eks_lab.spd import (
    general_solve,
    lambda_min,
    spd_invert,
    spd_solve,
    spd_sqrt,
    symmetrize,
)


def eig2x2_min(m):
    # closed-form smallest eigenvalue of a symmetric 2x2 matrix
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    return (a + c) / 2.0 - np.sqrt(((a - c) / 2.0) ** 2 + b**2)


def random_psd(rng, n, rank=None):
    r = rng.standard_normal((n, rank or n))
    return r @ r.T


def test_symmetrize_basic():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(m)
    assert np.array_equal(s, s.T)
    assert np.allclose(s, [[1.0, 1.0], [1.0, 3.0]])


def test_symmetrize_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        symmetrize(np.ones(4))
    with pytest.raises(NonFinite):
        symmetrize(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_symmetrize_rejects_an_overflowing_sum():
    # finite entries whose sum m + m.T overflows to inf
    with np.errstate(over="ignore"), pytest.raises(NonFinite,
                                                   match="overflowed"):
        symmetrize(np.full((2, 2), 1e308))
    big = np.array([[8e307, -8e307], [-8e307, 8e307]])
    assert np.array_equal(symmetrize(big), big)


def test_sqrt_identity_and_diagonal():
    assert np.allclose(spd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    got = spd_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(got, np.diag([2.0, 3.0]), atol=1e-14)


def test_sqrt_multiplies_back():
    rng = np.random.default_rng(7)
    m = random_psd(rng, 5)
    s = spd_sqrt(m)
    assert np.max(np.abs(s @ s - m)) <= 1e-10
    assert np.array_equal(s, s.T)


def test_sqrt_rejects_indefinite():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    m = q @ np.diag([-1e-6, 1.0, 2.0]) @ q.T
    with pytest.raises(NotPSD):
        spd_sqrt(m)


def test_sqrt_clamps_tiny_negatives():
    # eigenvalue at -1e-15 relative to lam_max 1 is roundoff, not indefiniteness
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    m = q @ np.diag([-1e-15, 0.5, 1.0]) @ q.T
    s = spd_sqrt(m)
    assert np.all(np.linalg.eigvalsh(s) >= 0.0)


def test_sqrt_zero_matrix():
    assert np.array_equal(spd_sqrt(np.zeros((4, 4))), np.zeros((4, 4)))


def test_solve_identity_and_diagonal():
    rhs = np.array([1.0, -2.0, 3.0])
    assert np.allclose(spd_solve(np.eye(3), rhs), rhs, atol=1e-14)
    got = spd_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    assert np.allclose(got, [1.0, 2.0], atol=1e-14)


def test_solve_residual_small():
    rng = np.random.default_rng(11)
    m = random_psd(rng, 6) + 0.1 * np.eye(6)
    b = rng.standard_normal(6)
    x = spd_solve(m, b)
    assert np.linalg.norm(m @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_solve_matrix_rhs():
    rng = np.random.default_rng(12)
    m = random_psd(rng, 4) + 0.5 * np.eye(4)
    b = rng.standard_normal((4, 3))
    x = spd_solve(m, b)
    assert np.max(np.abs(m @ x - b)) <= 1e-10


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        spd_solve(np.zeros((3, 3)), np.ones(3))


def test_solve_shape_checks():
    with pytest.raises(DimensionMismatch):
        spd_solve(np.eye(3), np.ones(4))


def test_invert_multiplies_back():
    rng = np.random.default_rng(21)
    m = random_psd(rng, 5) + 0.2 * np.eye(5)
    inv = spd_invert(m)
    assert np.max(np.abs(m @ inv - np.eye(5))) <= 1e-10
    assert np.array_equal(inv, inv.T)


def test_lambda_min_against_closed_form():
    assert lambda_min(np.diag([3.0, 1.0, 2.0])) == pytest.approx(1.0, abs=1e-14)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert lambda_min(m) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = symmetrize(rng.standard_normal((2, 2)))
        assert lambda_min(m) == pytest.approx(eig2x2_min(m), abs=1e-10)


def test_general_solve_matches_dense_solver():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    b = rng.standard_normal((5, 3))
    x = general_solve(a, b)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-12)


def test_general_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        general_solve(a, np.ones(2))


def test_general_solve_non_finite_solution_raises():
    # a tiny but nonzero pivot passes the factorization; x overflows
    a = np.diag([1e-300, 1.0])
    with pytest.raises(SingularMatrix, match="non-finite"):
        general_solve(a, np.array([1e300, 1.0]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_sqrt_is_psd_and_squares_to_input(seed, n):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, n)
    s = spd_sqrt(m)
    eigs = np.linalg.eigvalsh(s)
    assert np.all(eigs >= -1e-12 * max(eigs[-1], 1.0))
    scale = max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs(s @ s - m)) <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_sqrt_scaling(seed, n):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, n)
    assert np.array_equal(spd_sqrt(0.0 * m), np.zeros_like(m))
    scale = max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs(spd_sqrt(4.0 * m) - 2.0 * spd_sqrt(m))) <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_sqrt_preserves_rank_one(seed, n):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    m = np.outer(v, v)
    s = spd_sqrt(m)
    # rank-1 input: square root is the same projector, rank stays 1
    assert np.max(np.abs(s - m)) <= 1e-10
    assert np.linalg.matrix_rank(s, tol=1e-8) == 1
