"""Tests for the inverse-problem model.

Oracles used here: hand-worked small posteriors (arithmetic in comments),
an independent loss implementation using explicit matrix inverses, central
finite differences for gradients, the scalar perturbation hooks for the
batched forward map, and the tensor-grid quadrature as an analytic-free
route to the posterior moments.
"""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eks_lab import model
from eks_lab.errors import (
    DegenerateDirection,
    DimensionMismatch,
    EksError,
    NonFinite,
    NonlinearUnsupported,
    NonPositive,
    NotPSD,
    TooLarge,
)
from eks_lab.model import (
    GaussianMoments,
    InverseProblem,
    NonlinearPerturbation,
    _log_density_batch,
    _quadratic_form,
    apply_forward_batch,
    make_perpendicular_perturbation,
    posterior_moments,
    precision_matrix,
    quadrature_moments,
)
from eks_lab.spd import spd_invert, spd_solve, symmetrize
from eks_lab.studies import default_problem, parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def loss_oracle(problem, u):
    # independent route: explicit inverses, no Cholesky plumbing shared
    # with the implementation
    g = problem.a @ u
    if problem.nonlinear is not None:
        g = g + problem.nonlinear.evaluate(u)
    mis = problem.y - g
    shift = u - problem.u0
    gi = np.linalg.inv(problem.gamma)
    g0i = np.linalg.inv(problem.gamma0)
    return 0.5 * mis @ gi @ mis + 0.5 * shift @ g0i @ shift


def fd_gradient(problem, u, h=1e-5):
    # central differences of loss_oracle
    g = np.zeros_like(u)
    for i in range(u.size):
        e = np.zeros_like(u)
        e[i] = h
        g[i] = (loss_oracle(problem, u + e)
                - loss_oracle(problem, u - e)) / (2 * h)
    return g


def forward_loop(problem, u_all):
    # G(u) = A u + m(u) one row at a time, through the scalar hook
    rows = [problem.a @ u for u in u_all]
    if problem.nonlinear is not None:
        rows = [g + problem.nonlinear.evaluate(u)
                for g, u in zip(rows, u_all)]
    return np.stack(rows)


def quadrature_loss(problem, u):
    # phi_r as the quadrature weighs it: -log density of one point
    return -float(_log_density_batch(problem, np.atleast_2d(u))[0])


def random_problem(seed, l=3, k=4):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, l))
    rg = rng.standard_normal((k, k))
    rp = rng.standard_normal((l, l))
    return InverseProblem(
        a=a,
        gamma=rg @ rg.T + 0.5 * np.eye(k),
        gamma0=rp @ rp.T + 0.5 * np.eye(l),
        y=rng.standard_normal(k),
        u0=rng.standard_normal(l),
    )


def tanh_problem(amplitude=2.0):
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    gamma = np.diag([1.0, 2.0, 0.5])
    pert = make_perpendicular_perturbation(
        a, gamma, seed_direction=np.array([1.0, 1.0, 1.0]),
        frequency=np.array([0.7, -0.4]), amplitude=amplitude)
    return InverseProblem(a=a, gamma=gamma, gamma0=np.eye(2),
                          y=np.array([1.0, 1.0, 1.5]),
                          u0=np.zeros(2), nonlinear=pert)


def test_construction_validates():
    with pytest.raises(NotPSD):
        InverseProblem(a=np.eye(2), gamma=-np.eye(2), gamma0=np.eye(2),
                       y=np.zeros(2), u0=np.zeros(2))
    with pytest.raises(DimensionMismatch):
        InverseProblem(a=np.eye(2), gamma=np.eye(3), gamma0=np.eye(2),
                       y=np.zeros(2), u0=np.zeros(2))
    with pytest.raises(DimensionMismatch):
        InverseProblem(a=np.eye(2), gamma=np.eye(2), gamma0=np.eye(2),
                       y=np.zeros(3), u0=np.zeros(2))
    with pytest.raises(NonFinite):
        InverseProblem(a=np.eye(2), gamma=np.eye(2), gamma0=np.eye(2),
                       y=np.array([np.nan, 0.0]), u0=np.zeros(2))


@pytest.mark.filterwarnings("error")
def test_gaussian_moments_validates():
    with pytest.raises(DimensionMismatch):
        GaussianMoments(mean=np.zeros(2), cov=np.eye(3))
    # symmetrize takes a stack of matrices; a covariance is one matrix
    with pytest.raises(DimensionMismatch):
        GaussianMoments(mean=np.zeros(2), cov=np.stack([np.eye(2)] * 2))
    g = GaussianMoments(mean=np.zeros(2), cov=np.eye(2))
    assert g.dim == 2
    # finite entries, but their symmetrized sum overflows: a named error,
    # not a numpy warning
    with pytest.raises(NonFinite):
        GaussianMoments(mean=[0.0, 0.0], cov=[[1e308, 1e308], [1e308, 1e308]])


def test_apply_forward_linear():
    problem = InverseProblem(a=np.array([[1.0, 0.0], [0.0, 2.0]]),
                             gamma=np.eye(2), gamma0=np.eye(2),
                             y=np.zeros(2), u0=np.zeros(2))
    assert np.allclose(apply_forward_batch(problem, [[3.0, -1.0]]),
                       [[3.0, -2.0]], atol=1e-15)


def test_apply_forward_with_tanh_matches_direct_formula():
    problem = tanh_problem()
    pert = problem.nonlinear
    b = pert.direction_basis[:, 0]
    u = np.array([0.4, -1.2])
    expect = problem.a @ u + 2.0 * np.tanh(0.7 * 0.4 - 0.4 * (-1.2)) * b
    assert np.allclose(forward_loop(problem, [u]), [expect], atol=1e-14)
    assert np.allclose(apply_forward_batch(problem, [u]), [expect],
                       atol=1e-14)


def test_batch_matches_loop():
    problem = tanh_problem()
    rng = np.random.default_rng(5)
    u_all = rng.standard_normal((40, 2))
    batch = apply_forward_batch(problem, u_all)
    loop = forward_loop(problem, u_all)
    assert np.array_equal(batch.shape, (40, 3))
    assert np.max(np.abs(batch - loop)) <= 1e-14


def test_loss_zero_at_perfect_fit():
    problem = InverseProblem(a=np.eye(2), gamma=np.eye(2), gamma0=np.eye(2),
                             y=np.array([0.3, -0.7]), u0=np.array([0.3, -0.7]))
    assert quadrature_loss(problem, problem.u0) == pytest.approx(
        0.0, abs=1e-15)


def test_loss_scalar_half():
    # G(0) = 0, misfit 1, data term 1/2; prior term 0 at u = u0 = 0
    problem = InverseProblem(a=np.array([[1.0]]), gamma=np.array([[1.0]]),
                             gamma0=np.array([[1.0]]),
                             y=np.array([1.0]), u0=np.array([0.0]))
    assert quadrature_loss(problem, np.array([0.0])) == pytest.approx(
        0.5, abs=1e-15)


def test_loss_matches_explicit_inverse_oracle():
    problem = random_problem(17)
    rng = np.random.default_rng(18)
    for _ in range(20):
        u = rng.standard_normal(3)
        assert quadrature_loss(problem, u) == pytest.approx(
            loss_oracle(problem, u), rel=1e-12)


def test_gradient_zero_at_posterior_mean():
    problem = random_problem(23)
    mean = posterior_moments(problem).mean
    assert np.linalg.norm(fd_gradient(problem, mean)) <= 1e-8


def test_linear_gradient_identity():
    # for linear G the gradient is exactly B (u - u_star)
    problem = random_problem(29)
    b = precision_matrix(problem)
    mean = posterior_moments(problem).mean
    rng = np.random.default_rng(30)
    for _ in range(100):
        u = 3.0 * rng.standard_normal(3)
        lhs = fd_gradient(problem, u)
        rhs = b @ (u - mean)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7 * (1.0 + np.max(np.abs(rhs)))


def test_nonlinear_gradient_matches_finite_differences():
    problem = tanh_problem()
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = 2.0 * rng.standard_normal(2)
        # (A^T + grad m(u)) gamma^{-1} (G(u) - y) + gamma0^{-1} (u - u0),
        # with grad m from the perturbation's scalar hook
        residual = forward_loop(problem, [u])[0] - problem.y
        z = np.linalg.solve(problem.gamma, residual)
        g = (problem.a.T + problem.nonlinear.gradient(u)) @ z \
            + np.linalg.solve(problem.gamma0, u - problem.u0)
        fd = fd_gradient(problem, u)
        assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))


def test_posterior_identity_observation():
    # A = I, gamma = gamma0 = I: B = 2 I, cov = I/2, mean = (y + u0)/2
    problem = InverseProblem(a=np.eye(2), gamma=np.eye(2), gamma0=np.eye(2),
                             y=np.array([2.0, 0.0]), u0=np.zeros(2))
    post = posterior_moments(problem)
    assert np.allclose(post.mean, [1.0, 0.0], atol=1e-12)
    assert np.allclose(post.cov, 0.5 * np.eye(2), atol=1e-12)


def test_posterior_scalar_hand_case():
    # A = 2, gamma = gamma0 = 1, y = 3, u0 = 1/2:
    # B = 4 + 1 = 5, r = 2*3 + 1/2 = 6.5, mean = 1.3, cov = 0.2
    problem = InverseProblem(a=np.array([[2.0]]), gamma=np.array([[1.0]]),
                             gamma0=np.array([[1.0]]),
                             y=np.array([3.0]), u0=np.array([0.5]))
    post = posterior_moments(problem)
    assert post.mean[0] == pytest.approx(1.3, abs=1e-14)
    assert post.cov[0, 0] == pytest.approx(0.2, abs=1e-14)
    assert precision_matrix(problem)[0, 0] == pytest.approx(5.0, abs=1e-14)


def test_precision_times_cov_is_identity():
    problem = random_problem(37)
    b = precision_matrix(problem)
    cov = posterior_moments(problem).cov
    assert np.max(np.abs(b @ cov - np.eye(3))) <= 1e-10


def test_posterior_moments_rejects_nonlinear():
    with pytest.raises(NonlinearUnsupported):
        posterior_moments(tanh_problem())


def test_posterior_moments_is_one_read_only_object_per_problem():
    problem = random_problem(38)
    post = posterior_moments(problem)
    assert posterior_moments(problem) is post
    # the validated moments of B^{-1} r and B^{-1}, bit for bit
    b = precision_matrix(problem)
    fresh = GaussianMoments(mean=spd_solve(b, problem.r), cov=spd_invert(b))
    assert np.array_equal(post.mean, fresh.mean)
    assert np.array_equal(post.cov, fresh.cov)
    # shared by every caller, so no caller may write into it
    for array in (post.mean, post.cov):
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1.0
    # the same linear part with a perturbation has no closed form
    perturbed = tanh_problem()
    linear = dataclasses.replace(perturbed, nonlinear=None)
    assert posterior_moments(linear) is posterior_moments(linear)
    with pytest.raises(NonlinearUnsupported):
        posterior_moments(perturbed)


def test_loss_minimized_at_posterior_mean():
    problem = random_problem(41)
    mean = posterior_moments(problem).mean
    base = loss_oracle(problem, mean)
    rng = np.random.default_rng(42)
    for _ in range(100):
        delta = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 1)
        assert loss_oracle(problem, mean + delta) >= base


def test_perturbation_is_perpendicular():
    problem = tanh_problem()
    pert = problem.nonlinear
    gi = np.linalg.inv(problem.gamma)
    at_gi = problem.a.T @ gi
    assert np.max(np.abs(at_gi @ pert.direction_basis)) <= 1e-12
    rng = np.random.default_rng(43)
    for _ in range(1000):
        u = 3.0 * rng.standard_normal(2)
        assert np.max(np.abs(at_gi @ pert.evaluate(u))) <= 1e-10


def test_perturbation_bound_and_gradient():
    problem = tanh_problem()
    pert = problem.nonlinear
    rng = np.random.default_rng(44)
    freq = np.array([0.7, -0.4])
    for _ in range(200):
        u = 5.0 * rng.standard_normal(2)
        val = pert.evaluate(u)
        assert np.linalg.norm(val) <= 2.0 + 1e-12
        grad = pert.gradient(u)
        assert grad.shape == (2, 3)
        norm_bound = 2.0 * np.linalg.norm(freq)
        assert np.linalg.norm(grad, ord=2) <= norm_bound + 1e-12
    assert pert.amplitude_bound == pytest.approx(
        2.0 * (1.0 + np.linalg.norm(freq)))


def test_perturbation_batch_hooks_match_loops():
    # the hooks are component-major: particles (L, J), covectors (K, J)
    pert = tanh_problem().nonlinear
    rng = np.random.default_rng(45)
    u_all = rng.standard_normal((30, 2))
    z_all = rng.standard_normal((30, 3))
    vals = pert.eval_batch(np.ascontiguousarray(u_all.T))
    assert vals.shape == (3, 30)
    assert np.max(np.abs(vals.T - np.stack([pert.evaluate(u)
                                            for u in u_all]))) <= 1e-14
    cols = pert.grad_apply_batch(np.ascontiguousarray(u_all.T),
                                 np.ascontiguousarray(z_all.T))
    assert cols.shape == (2, 30)
    loop = np.stack([pert.gradient(u) @ z for u, z in zip(u_all, z_all)])
    assert np.max(np.abs(cols.T - loop)) <= 1e-14


@pytest.mark.parametrize("j", [7, 63, 1023, 4000])
def test_component_major_hooks_equal_row_major_formula(j):
    # the closures on (L, J) rows give bitwise the numbers of the
    # particle-major formulas they replaced, written out here on (J, L)
    frequency, amplitude = np.array([0.7, -0.4]), 2.0
    pert = tanh_problem(amplitude).nonlinear
    b = pert.direction_basis[:, 0]
    rng = np.random.default_rng(j)
    u_rows = 2.0 * rng.standard_normal((j, 2))
    z_rows = rng.standard_normal((j, 3))
    t = np.tanh(np.einsum("jl,l->j", u_rows, frequency))
    values = amplitude * t[:, None] * b[None, :]
    s = amplitude * (1.0 - t**2)
    pulled = (s * np.einsum("jk,k->j", z_rows, b))[:, None] \
        * frequency[None, :]
    u, z = np.ascontiguousarray(u_rows.T), np.ascontiguousarray(z_rows.T)
    assert np.array_equal(pert.eval_batch(u), values.T)
    assert np.array_equal(pert.grad_apply_batch(u, z), pulled.T)


@pytest.mark.parametrize("excess, inside", [(0.5e-9, True),
                                             (2e-9, False)])
def test_perturbation_bound_check_edges(excess, inside):
    # the check allows a relative slack of 1e-9 over amplitude_bound; the
    # largest row sits just inside or just outside it, among smaller rows
    direction = np.array([0.6, 0.0, 0.8])
    scales = np.array([0.5, 1.9, 2.0 * (1.0 + excess), 1.0])

    def evaluate_batch(u_all):
        return direction[:, None] * scales[None, :]

    pert = NonlinearPerturbation(
        evaluate=None, gradient=None, amplitude_bound=2.0,
        direction_basis=direction[:, None], evaluate_batch=evaluate_batch,
        gradient_apply_batch=None)
    u_all = np.zeros((2, 4))
    if inside:
        assert np.array_equal(pert.eval_batch(u_all),
                              evaluate_batch(u_all))
    else:
        with pytest.raises(EksError, match=r"perturbation exceeded its "
                           r"stated bound: \|m\(u\)\| = 2\.000e\+00 > "
                           r"2\.000e\+00$"):
            pert.eval_batch(u_all)


def test_perturbation_degenerate_seed_raises():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    inside = a @ np.array([1.0, -0.5])
    with pytest.raises(DegenerateDirection):
        make_perpendicular_perturbation(a, np.eye(3), inside,
                                        np.array([1.0, 1.0]), 1.0)
    with pytest.raises(NonPositive):
        make_perpendicular_perturbation(a, np.eye(3), np.array([0.0, 0.0, 1.0]),
                                        np.array([1.0, 1.0]), -0.5)
    # zero amplitude is legal and degenerates to the plain linear map
    off = make_perpendicular_perturbation(a, np.eye(3),
                                          np.array([0.0, 0.0, 1.0]),
                                          np.array([1.0, 1.0]), 0.0)
    assert np.array_equal(off.eval_batch(np.ones((2, 4))), np.zeros((3, 4)))


def test_quadrature_matches_closed_form_linear_2d():
    rng = np.random.default_rng(51)
    a = rng.standard_normal((2, 2))
    rg = rng.standard_normal((2, 2))
    rp = rng.standard_normal((2, 2))
    problem = InverseProblem(a=a, gamma=rg @ rg.T + 0.5 * np.eye(2),
                             gamma0=rp @ rp.T + 0.5 * np.eye(2),
                             y=rng.standard_normal(2),
                             u0=rng.standard_normal(2))
    post = posterior_moments(problem)
    quad = quadrature_moments(problem)
    assert np.linalg.norm(quad.mean - post.mean) <= \
        1e-4 * (1.0 + np.linalg.norm(post.mean))
    assert np.linalg.norm(quad.cov - post.cov) <= 1e-4 * np.linalg.norm(post.cov)


def test_quadrature_matches_closed_form_1d():
    problem = InverseProblem(a=np.array([[2.0]]), gamma=np.array([[1.0]]),
                             gamma0=np.array([[1.0]]),
                             y=np.array([3.0]), u0=np.array([0.5]))
    quad = quadrature_moments(problem)
    assert quad.mean[0] == pytest.approx(1.3, abs=1e-6)
    assert quad.cov[0, 0] == pytest.approx(0.2, abs=1e-6)


def test_quadrature_vanishing_perturbation_recovers_linear():
    tiny = tanh_problem(amplitude=1e-8)
    linear = InverseProblem(a=tiny.a, gamma=tiny.gamma, gamma0=tiny.gamma0,
                            y=tiny.y, u0=tiny.u0)
    quad = quadrature_moments(tiny)
    post = posterior_moments(linear)
    assert np.linalg.norm(quad.mean - post.mean) <= 1e-5
    assert np.linalg.norm(quad.cov - post.cov) <= 1e-5


def test_quadrature_size_guard():
    problem = random_problem(52, l=3, k=3)
    with pytest.raises(TooLarge):
        quadrature_moments(problem)


def shipped_nonlinear_problem():
    doc = json.loads((CONFIGS / "demo_nonlinear.json").read_text())
    return parse_config(doc).problem


def whole_grid_moments(problem, center, widths):
    # the grid moments with every per-point temporary built for the whole
    # grid at once: the blocked evaluation must equal it bit for bit
    axes = [np.linspace(c - w, c + w, model.QUADRATURE_POINTS)
            for c, w in zip(center, widths)]
    if len(axes) == 1:
        points = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([xx.ravel(), yy.ravel()])
    logw = _log_density_batch(problem, points)
    w = np.exp(logw - np.max(logw))
    w /= np.sum(w)
    mean = w @ points
    centered = points - mean[None, :]
    cov = (w[:, None] * centered).T @ centered
    return GaussianMoments(mean=mean, cov=symmetrize(cov))


@pytest.mark.parametrize("block", [None, 10_007, 150],
                         ids=["shipped_block", "ragged_2d", "ragged_1d"])
@pytest.mark.parametrize("make_problem", [
    shipped_nonlinear_problem,
    default_problem,
    lambda: InverseProblem(a=np.array([[2.0]]), gamma=np.array([[1.0]]),
                           gamma0=np.array([[1.0]]), y=np.array([3.0]),
                           u0=np.array([0.5]))],
    ids=["shipped_nonlinear", "default_linear_2d", "linear_1d"])
def test_blocked_quadrature_equals_whole_grid_bit_for_bit(
        monkeypatch, make_problem, block):
    # 10,007 leaves a ragged last block of the 160,000-point 2-D grid, 150
    # one of the 400-point 1-D grid too
    problem = make_problem()
    with monkeypatch.context() as patch:
        patch.setattr(model, "_grid_moments", whole_grid_moments)
        whole = quadrature_moments(problem)
    if block is not None:
        monkeypatch.setattr(model, "QUADRATURE_BLOCK", block)
    blocked = quadrature_moments(problem)
    assert np.array_equal(blocked.mean, whole.mean)
    assert np.array_equal(blocked.cov, whole.cov)


def test_quadrature_peak_allocation_is_bounded_by_whole_grid_arrays():
    # The whole-grid reductions still need the N x 2 points (centred in
    # place for the covariance) and N x 2 weighted points, 2.56 MB each at
    # N = 160,000, and the weights w, 1.28 MB: 5 doubles per grid point.
    # One block of n points adds its log-density temporaries: the (2, n)
    # transposed points, the (3, n) G(u), its perturbation and misfit, the
    # (n, 2) shift and a few length-n rows, at most 16 doubles per point.
    problem = shipped_nonlinear_problem()
    grid = model.QUADRATURE_POINTS ** 2
    bound = 8 * (5 * grid + 16 * model.QUADRATURE_BLOCK)
    tracemalloc.start()
    try:
        quadrature_moments(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB > {bound / 1e6:.2f} MB"


def quadratic_form_m_outer(x, m):
    # the same terms added with m outer and k inner: not einsum's order
    cols = np.ascontiguousarray(x.T)
    acc = np.zeros(x.shape[0])
    for j, x_m in enumerate(cols):
        for x_k, m_km in zip(cols, m[:, j]):
            acc += (x_k * m_km) * x_m
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_quadratic_form_is_the_three_operand_einsum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    r = rng.standard_normal((n, n))
    m = spd_invert(r @ r.T + 0.1 * np.eye(n))
    x = 4.0 * rng.standard_normal((5000, n))
    want = np.einsum("nk,km,nm->n", x, m, x)
    assert np.array_equal(_quadratic_form(x, m), want)
    if n > 1:
        # the test tells the two orders apart, so a swap cannot pass
        assert not np.array_equal(quadratic_form_m_outer(x, m), want)


def test_log_density_is_the_einsum_form_on_the_shipped_problem():
    # -phi_r as the three-operand einsums wrote it, over one grid block
    problem = shipped_nonlinear_problem()
    rng = np.random.default_rng(3)
    points = 3.0 * rng.standard_normal((model.QUADRATURE_BLOCK, 2))
    misfit = problem.y[None, :] - apply_forward_batch(problem, points)
    shift = points - problem.u0[None, :]
    want = -(0.5 * np.einsum("nk,km,nm->n", misfit, problem.gamma_inv,
                             misfit)
             + 0.5 * np.einsum("nl,lm,nm->n", shift, problem.gamma0_inv,
                               shift))
    assert np.array_equal(_log_density_batch(problem, points), want)
