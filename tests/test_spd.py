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


def two_pass_invert(m):
    # the inverse as spd_invert once computed it: symmetrized on entry,
    # once more inside spd_solve, then the solve against I symmetrized
    m = symmetrize(m)
    inv = spd_solve(symmetrize(m), np.eye(m.shape[0]))
    return 0.5 * (inv + inv.T)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_invert_equals_the_two_pass_inverse_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        m = random_psd(rng, n) + 0.1 * np.eye(n)
        # asymmetric roundoff on entry, as from an accumulated product
        m[0, -1] += 1e-13
        assert np.array_equal(spd_invert(m), two_pass_invert(m))
        # near singular: one eigenvalue 1e-12 of the largest
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = np.geomspace(1e-12, 1.0, n)
        near = (q * w) @ q.T
        assert np.array_equal(spd_invert(near), two_pass_invert(near))


def test_invert_rejects_an_overflowing_inverse():
    with pytest.raises(NonFinite):
        spd_invert(np.diag([1.0, 1e-310]))


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


# ------------------------------------------------------------- stacks


def stack_of(rng, n, c=5):
    # covariance-like slices of mixed rank, as the particle dynamics
    # stack them, including a zero slice
    slices = [random_psd(rng, n, rank=max(1, n - i)) for i in range(c - 1)]
    return np.stack(slices + [np.zeros((n, n))])


@pytest.mark.parametrize("n", [2, 8, 32])
def test_stacked_forms_equal_the_2d_call_slice_by_slice(n):
    rng = np.random.default_rng(n)
    m = stack_of(rng, n)
    m[1, 0, -1] += 1e-13  # asymmetric roundoff
    system = np.eye(n) + 0.1 * m
    rhs = rng.standard_normal((n, 3))
    outs = (symmetrize(m), spd_sqrt(m), general_solve(system, np.eye(n)),
            general_solve(system, rhs))
    for i in range(m.shape[0]):
        expected = (symmetrize(m[i]), spd_sqrt(m[i]),
                    general_solve(system[i], np.eye(n)),
                    general_solve(system[i], rhs))
        for got, want in zip(outs, expected):
            assert got.shape[0] == m.shape[0]
            assert np.array_equal(got[i], want)


def bad_slice(kind, n):
    if kind == "nonfinite":
        m = np.eye(n)
        m[0, -1] = np.inf
        return m
    if kind == "indefinite":
        return np.diag(np.r_[-1e-3, np.ones(n - 1)])
    return np.zeros((n, n))  # singular


@pytest.mark.parametrize("fn, kind, error", [
    (symmetrize, "nonfinite", NonFinite),
    (spd_sqrt, "nonfinite", NonFinite),
    (spd_sqrt, "indefinite", NotPSD),
    (general_solve, "nonfinite", NonFinite),
    (general_solve, "singular", SingularMatrix),
])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_a_bad_slice_raises_what_the_2d_call_raises(fn, kind, error,
                                                     position):
    n = 3
    rng = np.random.default_rng(position)
    m = np.eye(n) + stack_of(rng, n)
    m[position] = bad_slice(kind, n)
    args = (np.eye(n),) if fn is general_solve else ()
    with pytest.raises(error) as alone:
        fn(m[position], *args)
    with pytest.raises(error) as stacked:
        fn(m, *args)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("fn, first, later, error", [
    (general_solve, "singular", "nonfinite", SingularMatrix),
    (spd_sqrt, "indefinite", "nonfinite", NotPSD),
])
def test_the_first_failing_slice_names_the_error(fn, first, later, error):
    # the stack's own checks would meet the non-finite slice first
    n = 3
    m = np.stack([np.eye(n), bad_slice(first, n), bad_slice(later, n)])
    args = (np.eye(n),) if fn is general_solve else ()
    with pytest.raises(error):
        fn(m, *args)


def test_stacks_are_square_and_only_where_documented():
    for fn in (symmetrize, spd_sqrt):
        with pytest.raises(DimensionMismatch, match="stack"):
            fn(np.ones((2, 2, 3)))
    with pytest.raises(DimensionMismatch, match="stack"):
        general_solve(np.ones((2, 3, 3, 3)), np.eye(3))
    # the single-matrix kernels keep their 2-d rule
    stack = np.stack([np.eye(2)] * 2)
    for call in (lambda: lambda_min(stack), lambda: spd_invert(stack),
                 lambda: spd_solve(stack, np.ones(2))):
        with pytest.raises(DimensionMismatch, match="square 2-d, got"):
            call()
