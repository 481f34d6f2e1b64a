"""Tests for the direct kernel bindings in eks_lab._kernels.

Each binding must be bitwise the public numpy call it stands in for, on
every subscript and shape the package hands it, and the public spd
functions must raise what they raised through the wrappers.  The
assignment solver must be scipy.optimize's own function, bound once.
"""

import sys
import threading
import time
import warnings

import numpy as np
import pytest

from eks_lab import _kernels
from eks_lab.errors import SingularMatrix
from eks_lab.metrics import empirical_w2_exact
from eks_lab.spd import general_solve, lambda_min, spd_invert, spd_solve

L, K, R, C = 3, 2, 4, 5

# every einsum of dynamics, ensemble and model, with its operand shapes
# (J stands for the particle count, filled in below)
EINSUMS = [
    # dynamics
    ("jl,ml->jm", [("J", L), (L, L)]),
    ("cab,bd->cad", [(C, L, L), (L, L)]),
    ("cab,b->ca", [(C, L, L), (L,)]),
    ("km,rkj->rmj", [(K, K), (R, K, "J")]),
    ("kl,rkj->rlj", [(K, L), (R, K, "J")]),
    ("rml,rlj->rmj", [(R, L, L), (R, L, "J")]),
    ("rlk,rkj->rlj", [(R, L, K), (R, K, "J")]),
    ("ab,bc->ac", [(L, L), (L, L)]),
    ("ml,rlj->rmj", [(L, L), (R, L, "J")]),
    ("jl,jl->j", [("J", L), ("J", L)]),
    # ensemble
    ("lj->l", [(L + K, "J")]),
    ("lj,mj->lm", [(L, "J"), (L, "J")]),
    ("lj,lj->j", [(L, "J"), (L, "J")]),
    ("j->", [("J",)]),
    # model
    ("kj,kj->j", [(K, "J"), (K, "J")]),
    ("ab,b->a", [(L, L), (L,)]),
    ("kl,rlj->rkj", [(K, L), (R, L, "J")]),
    ("l,lj->j", [(L,), (L, "J")]),
    ("k,kj->j", [(K,), (K, "J")]),
]


@pytest.mark.parametrize("j", [1, 2, 7, 64, 1000])
@pytest.mark.parametrize("subscripts, shapes", EINSUMS,
                         ids=[s for s, _ in EINSUMS])
def test_einsum_is_np_einsum_bit_for_bit(subscripts, shapes, j):
    rng = np.random.default_rng(j)
    operands = [rng.standard_normal([j if d == "J" else d for d in shape])
                for shape in shapes]
    assert np.array_equal(_kernels.einsum(subscripts, *operands),
                          np.einsum(subscripts, *operands))


@pytest.mark.parametrize("j", [1, 64, 1000])
def test_einsum_on_the_statistics_block_views(j):
    # the covariances contract row slices of one (R, L+K, J) block
    rows = np.random.default_rng(j).standard_normal((R, L + K, j))
    for a, b in ((rows[:, :L], rows[:, :L]), (rows[:, :L], rows[:, L:])):
        assert np.array_equal(_kernels.einsum("rlj,rmj->rlm", a, b),
                              np.einsum("rlj,rmj->rlm", a, b))


def test_the_direct_einsum_is_numpys_c_einsum():
    # np.einsum without optimize runs exactly this function; the fallback
    # is for numpy < 2 only, so a relayout of numpy fails here instead of
    # silently costing the wrapper again
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        from numpy._core import einsumfunc, multiarray
        assert _kernels.einsum is multiarray.c_einsum
        assert einsumfunc.c_einsum is _kernels.einsum


def spd_stack(rng, n, c=C):
    r = rng.standard_normal((c, n, n))
    stack = r @ r.swapaxes(-1, -2) + 0.1 * np.eye(n)
    return 0.5 * (stack + stack.swapaxes(-1, -2))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_eigh_and_eigvalsh_are_numpys(n):
    rng = np.random.default_rng(n)
    stack = spd_stack(rng, n)
    stack[-1] = 0.0  # a collapsed ensemble's covariance
    for m in (stack, stack[0]):
        w, v = _kernels.eigh(m)
        want_w, want_v = np.linalg.eigh(m)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    assert np.array_equal(_kernels.eigvalsh(stack[0]),
                          np.linalg.eigvalsh(stack[0]))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_solve_is_numpys_for_stacks_and_both_rhs_ranks(n):
    rng = np.random.default_rng(n)
    system = np.eye(n) + 0.3 * rng.standard_normal((C, n, n))
    for a in (system, system[0]):
        for rhs in (np.eye(n), rng.standard_normal((n, 3)),
                    rng.standard_normal(n)):
            got = _kernels.solve(a, rhs)
            assert np.array_equal(got, np.linalg.solve(a, rhs))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_cholesky_and_the_spd_inverse_and_solve_are_numpys(n):
    rng = np.random.default_rng(n)
    m = spd_stack(rng, n, c=1)[0]
    assert np.array_equal(_kernels.cholesky(m), np.linalg.cholesky(m))
    inv = np.linalg.inv(m)
    assert np.array_equal(spd_invert(m), 0.5 * (inv + inv.T))
    for rhs in (np.eye(n), rng.standard_normal(n)):
        assert np.array_equal(spd_solve(m, rhs), np.linalg.solve(m, rhs))


def test_a_singular_stack_names_its_first_failing_slice():
    zero_pivot = np.zeros((2, 2))
    overflow = np.diag([1e-300, 1.0])  # a tiny pivot: x overflows
    rhs = np.array([1e300, 1.0])
    messages = []
    for first, later in ((zero_pivot, overflow), (overflow, zero_pivot)):
        with pytest.raises(SingularMatrix) as alone:
            general_solve(first, rhs)
        with pytest.raises(SingularMatrix) as stacked:
            general_solve(np.stack([np.eye(2), first, later]), rhs)
        assert str(stacked.value) == str(alone.value)
        messages.append(str(alone.value))
    # the two slices fail with different messages, so order is tested
    assert messages == ["LU factorization produced a zero pivot",
                        "solution of the linear system is non-finite"]


def test_a_matrix_that_is_not_pd_raises_singular_matrix():
    m = np.diag([1.0, 2.0, -1e-3])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(m)
    for call in (lambda: spd_invert(m), lambda: spd_solve(m, np.ones(3))):
        with pytest.raises(SingularMatrix) as err:
            call()
        assert str(err.value) == ("Cholesky factorization failed: the "
                                  "matrix is not positive definite")


def test_empty_matrices_behave_as_through_the_wrappers():
    empty = np.zeros((0, 0))
    assert spd_invert(empty).shape == (0, 0)
    assert spd_solve(empty, np.zeros(0)).shape == (0,)
    assert spd_solve(np.eye(2), np.zeros((2, 0))).shape == (2, 0)


def test_no_runtime_warning_escapes():
    # LAPACK on singular, tiny and huge inputs sets floating-point flags;
    # numpy's error state keeps them from turning into warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0]])):
            with pytest.raises(SingularMatrix):
                general_solve(np.stack([a, a]), np.eye(2))
        tiny = np.diag([5e-324, 1.0])
        with pytest.raises(SingularMatrix):
            general_solve(tiny, np.array([1e308, 1.0]))
        huge = np.array([[1e300, 1e-300], [1e-300, 1e-300]])
        _kernels.eigh(huge)
        lambda_min(huge)
        with pytest.raises(SingularMatrix):
            spd_invert(np.diag([1.0, 0.0]))


def w2_clouds():
    return np.random.default_rng(11).standard_normal((2, 50, 2))


def test_the_assignment_kernel_is_scipy_optimizes():
    import scipy.optimize
    _kernels.linear_sum_assignment(np.zeros((1, 1)))
    assert _kernels._assignment is scipy.optimize.linear_sum_assignment


def test_without_the_extension_file_the_package_function_is_bound(
        monkeypatch):
    expected = empirical_w2_exact(*w2_clouds()).hex()
    looked = []

    def miss():
        looked.append(True)
        return None

    import scipy.optimize
    monkeypatch.setattr(_kernels, "_assignment", None)
    monkeypatch.setattr(_kernels, "_lsap_file", miss)
    # without a loaded extension module the binding looks for its file
    monkeypatch.delitem(sys.modules, _kernels._LSAP)
    assert empirical_w2_exact(*w2_clouds()).hex() == expected
    assert looked == [True]
    assert _kernels._assignment is scipy.optimize.linear_sum_assignment


def test_first_calls_at_once_bind_the_kernel_once(monkeypatch):
    """study-j's worker and its calling thread can both make the first
    W2 call; here more threads than cores make it at once."""
    expected = empirical_w2_exact(*w2_clouds())
    binds = []

    def slow_bind(bind=_kernels._bind_assignment):
        binds.append(threading.get_ident())
        time.sleep(0.05)  # long enough for the other threads to arrive
        return bind()

    monkeypatch.setattr(_kernels, "_assignment", None)
    monkeypatch.setattr(_kernels, "_bind_assignment", slow_bind)
    n = 4
    start = threading.Barrier(n)
    values = []

    def first_call():
        start.wait(timeout=10)
        values.append(empirical_w2_exact(*w2_clouds()))

    threads = [threading.Thread(target=first_call) for _ in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert values == [expected] * n
    assert len(binds) == 1
