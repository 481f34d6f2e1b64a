"""Tests for the particle dynamics: hand-transcribed step oracles,
degenerate/identity cases, structural invariants (affine span,
permutation equivariance, bit-reproducibility), and the coupled run
driver."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from eks_lab import dynamics, ensemble
from eks_lab.dynamics import (
    SdeConfig,
    condition_check,
    eks_gradient_step,
    eks_step,
    mean_field_step,
    run,
    sample_gaussian,
)
from eks_lab.ensemble import (
    Ensemble,
    affine_span_distance,
    centered_moments,
    empirical_stats,
    particle_moments,
)
from eks_lab.errors import (
    DimensionMismatch,
    Diverged,
    NonFinite,
    NonPositive,
    SingularImplicitSystem,
    SingularMatrix,
)
from eks_lab.model import (
    GaussianMoments,
    InverseProblem,
    make_perpendicular_perturbation,
    posterior_moments,
    precision_matrix,
)
from eks_lab.noise import NoiseSource, derive_seed
from eks_lab.reference import MomentFlow, rho_at
from eks_lab.spd import lambda_min, spd_sqrt


class FixedNoise:
    """Noise stub returning a preset array regardless of the step index."""

    def __init__(self, xi):
        self.xi = np.asarray(xi, dtype=float)

    def normal_block(self, step, n_particles, n_components):
        assert self.xi.shape == (n_particles, n_components)
        return self.xi.copy()


class ZeroNoise:
    def normal_block(self, step, n_particles, n_components):
        return np.zeros((n_particles, n_components))


class PermutedNoise:
    """Wrap a NoiseSource so that row j receives what row perm[j] would
    have received — the reindexing that accompanies permuting particles."""

    def __init__(self, base, perm):
        self.base = base
        self.perm = np.asarray(perm)

    def normal_block(self, step, n_particles, n_components):
        return self.base.normal_block(step, n_particles, n_components)[self.perm]


def scalar_problem():
    return InverseProblem(a=[[1.0]], gamma=[[1.0]], gamma0=[[1.0]],
                          y=[0.0], u0=[0.0])


def default_problem():
    return InverseProblem(a=[[1.0, 0.0], [0.0, 2.0]],
                          gamma=np.eye(2), gamma0=np.eye(2),
                          y=[1.0, 1.0], u0=[0.0, 0.0])


def random_problem(seed, l=3, k=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, l))
    qg = rng.normal(size=(k, k))
    q0 = rng.normal(size=(l, l))
    return InverseProblem(
        a=a,
        gamma=qg @ qg.T + 0.5 * np.eye(k),
        gamma0=q0 @ q0.T + 0.5 * np.eye(l),
        y=rng.normal(size=k),
        u0=rng.normal(size=l),
    )


def random_ensemble(seed, j, l, spread=1.0, time=0.0, step=0):
    rng = np.random.default_rng(seed)
    return Ensemble(particles=rng.normal(scale=spread, size=(j, l)),
                    time=time, step=step)


# ---------------------------------------------------------------- config


def test_sde_config_validation():
    SdeConfig(h=0.0, n_steps=0, j_particles=1, seed=0)
    SdeConfig(h=0.5, n_steps=10, j_particles=2, seed=0)
    with pytest.raises(NonPositive):
        SdeConfig(h=-0.1, n_steps=1, j_particles=1, seed=0)
    with pytest.raises(NonPositive):
        SdeConfig(h=0.6, n_steps=1, j_particles=1, seed=0)
    with pytest.raises(NonPositive):
        SdeConfig(h=0.1, n_steps=-1, j_particles=1, seed=0)
    with pytest.raises(NonPositive):
        SdeConfig(h=0.1, n_steps=1, j_particles=0, seed=0)
    assert SdeConfig(h=0.01, n_steps=300, j_particles=4, seed=1).t_final == \
        pytest.approx(3.0)


# ---------------------------------------------------- scalar hand oracle


def test_eks_step_scalar_hand_case():
    # L=K=1, A=1, gamma=gamma0=1, y=0, u0=0, u=(0,2), h=0.1, noise
    # (0.3, -0.7).  Every quantity below is transcribed by hand:
    #   mean = 1, cov_uu = cov_ug = ((0-1)^2 + (2-1)^2)/2 = 1
    #   misfit = (0, 2), drift = cov_ug * misfit = (0, 2)
    #   rhs = u - h*drift = (0, 1.8); system = 1 + h = 1.1
    #   u_star = (0, 1.8/1.1); root = sqrt(2*0.1*1)
    problem = scalar_problem()
    ens = Ensemble(particles=[[0.0], [2.0]], time=0.0, step=0)
    cfg = SdeConfig(h=0.1, n_steps=1, j_particles=2, seed=0)
    noise = FixedNoise([[0.3], [-0.7]])
    out = eks_step(ens, problem, cfg, noise)
    root = np.sqrt(0.2)
    expected = np.array([[0.0 + root * 0.3],
                         [1.8 / 1.1 - root * 0.7]])
    np.testing.assert_allclose(out.particles, expected, atol=1e-14)
    assert out.time == pytest.approx(0.1)
    assert out.step == 1


def test_eks_step_matches_direct_transcription():
    # independent dense-matrix transcription of the update, classic
    # mean/cov formulas and explicit inverses throughout
    for seed in range(5):
        problem = random_problem(seed)
        ens = random_ensemble(seed + 100, j=7, l=3)
        cfg = SdeConfig(h=0.05, n_steps=1, j_particles=7, seed=seed)
        noise = NoiseSource(seed=seed)
        out = eks_step(ens, problem, cfg, noise)

        u = ens.particles
        j = u.shape[0]
        ubar = u.mean(axis=0)
        g = u @ problem.a.T
        gbar = g.mean(axis=0)
        cov_uu = (u - ubar).T @ (u - ubar) / j
        cov_ug = (u - ubar).T @ (g - gbar) / j
        gamma_inv = np.linalg.inv(problem.gamma)
        gamma0_inv = np.linalg.inv(problem.gamma0)
        h = cfg.h
        rhs = (u
               - h * (g - problem.y) @ gamma_inv @ cov_ug.T
               + h * (cov_uu @ gamma0_inv @ problem.u0))
        system = np.eye(3) + h * cov_uu @ gamma0_inv
        u_star = np.linalg.solve(system, rhs.T).T
        root = np.real(scipy_sqrtm(2.0 * h * cov_uu))
        expected = u_star + noise.normal_block(0, j, 3) @ root.T
        np.testing.assert_allclose(out.particles, expected,
                                   rtol=1e-11, atol=1e-11)


def philox_normals(seed, step, j, l):
    # the addressed noise block, built from a fresh Philox
    bpp = (l + 3) // 4
    gen = Philox(key=np.array([seed, 0], dtype=np.uint64),
                 counter=np.array([0, 0, 0, step], dtype=np.uint64))
    raw = gen.random_raw(j * bpp * 4).reshape(j, bpp * 4)[:, :l]
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)


def straight_line_step(ens, problem, cfg, seed, gradient):
    """The Kalman step written out in one piece, operation for operation,
    on the contiguous component-major (L, J) transpose: stable sort and
    gather along axis 1, row-wise pivot, a fresh Philox for the noise,
    and I_L and gamma0^{-1} u0 rebuilt in place."""
    u = np.ascontiguousarray(ens.particles.T)
    l, j = u.shape
    h = cfg.h
    g = np.einsum("kl,lj->kj", problem.a, u)
    if problem.nonlinear is not None:
        g = g + problem.nonlinear.evaluate_batch(u)
    order = np.argsort(u[0], kind="stable")
    first = u[0, order]
    if not np.all(first[1:] != first[:-1]):
        order = np.lexsort(u[::-1])
    # a fancy index u[:, order] would come back column-major, and the
    # row sums below would then run in another order
    us, gs = np.take(u, order, axis=1), np.take(g, order, axis=1)
    pivot_u, pivot_g = us.min(axis=1), gs.min(axis=1)
    mean_u = pivot_u + np.einsum("lj->l", us - pivot_u[:, None]) / j
    mean_g = pivot_g + np.einsum("lj->l", gs - pivot_g[:, None]) / j
    cu, cg = us - mean_u[:, None], gs - mean_g[:, None]
    cov_uu = np.einsum("lj,mj->lm", cu, cu) / j
    cov_ug = np.einsum("lj,mj->lm", cu, cg) / j
    z = np.einsum("km,kj->mj", problem.gamma_inv, g - problem.y[:, None])
    if gradient:
        pulled = np.einsum("kl,kj->lj", problem.a, z)
        if problem.nonlinear is not None:
            pulled = pulled + problem.nonlinear.grad_apply_batch(u, z)
        drift = np.einsum("ml,lj->mj", cov_uu, pulled)
    else:
        drift = np.einsum("lk,kj->lj", cov_ug, z)
    g0_inv = problem.gamma0_inv
    system = np.eye(l) + h * np.einsum("ab,bc->ac", cov_uu, g0_inv)
    prior_pull = h * np.einsum(
        "ab,b->a", cov_uu, np.einsum("ab,b->a", g0_inv, problem.u0))
    rhs = u - h * drift + prior_pull[:, None]
    u_star = np.einsum("ml,lj->mj", np.linalg.solve(system, np.eye(l)), rhs)
    xi = np.ascontiguousarray(philox_normals(seed, ens.step, j, l).T)
    root = spd_sqrt(2.0 * h * cov_uu)
    return (u_star + np.einsum("ml,lj->mj", root, xi)).T


def row_major_step(ens, problem, cfg, seed, gradient, tanh=None):
    """The same step in the particle-major (J, L) arithmetic it replaced,
    where every contraction ran over a short inner axis of length L; it
    agrees with the component-major step to rounding.  tanh is the
    (frequency, amplitude) of the problem's perturbation, whose batch
    formulas are written out here in their old (J, L) form."""
    u = ens.particles
    j, l = u.shape
    h = cfg.h
    g = np.einsum("jl,kl->jk", u, problem.a)
    if problem.nonlinear is not None:
        frequency, amplitude = tanh
        b = problem.nonlinear.direction_basis[:, 0]
        t = np.tanh(np.einsum("jl,l->j", u, frequency))
        g = g + amplitude * t[:, None] * b[None, :]
    order = np.argsort(u[:, 0], kind="stable")
    first = u[order, 0]
    if not np.all(first[1:] != first[:-1]):
        order = np.lexsort(u.T[::-1])
    us, gs = u[order], g[order]
    pivot_u, pivot_g = us.min(axis=0), gs.min(axis=0)
    cu = us - (pivot_u + np.einsum("jl->l", us - pivot_u) / j)
    cg = gs - (pivot_g + np.einsum("jl->l", gs - pivot_g) / j)
    cov_uu = np.einsum("jl,jm->lm", cu, cu) / j
    cov_ug = np.einsum("jl,jm->lm", cu, cg) / j
    z = np.einsum("jk,km->jm", g - problem.y[None, :], problem.gamma_inv)
    if gradient:
        pulled = np.einsum("jk,kl->jl", z, problem.a)
        if problem.nonlinear is not None:
            s = amplitude * (1.0 - t**2)
            pulled = pulled + (s * np.einsum("jk,k->j", z, b))[:, None] \
                * frequency[None, :]
        drift_rows = np.einsum("jl,ml->jm", pulled, cov_uu)
    else:
        drift_rows = np.einsum("jk,lk->jl", z, cov_ug)
    g0_inv = problem.gamma0_inv
    system = np.eye(l) + h * np.einsum("ab,bc->ac", cov_uu, g0_inv)
    prior_pull = h * np.einsum(
        "ab,b->a", cov_uu, np.einsum("ab,b->a", g0_inv, problem.u0))
    rhs = u - h * drift_rows + prior_pull[None, :]
    u_star = np.einsum("jl,ml->jm", rhs, np.linalg.solve(system, np.eye(l)))
    xi = philox_normals(seed, ens.step, j, l)
    root = spd_sqrt(2.0 * h * cov_uu)
    return u_star + np.einsum("jl,ml->jm", xi, root)


@pytest.mark.parametrize("l", [2, 8, 32])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_kalman_steps_bitwise_equal_straight_line_copy(l, ties):
    k = l + 1
    rng = np.random.default_rng(l)
    a = rng.normal(size=(k, l))
    gamma = np.diag(rng.uniform(0.5, 2.0, k))
    frequency = 0.3 * rng.normal(size=l)
    pert = make_perpendicular_perturbation(
        a, gamma, seed_direction=rng.normal(size=k),
        frequency=frequency, amplitude=0.5)
    q0 = rng.normal(size=(l, l))
    problem = InverseProblem(a=a, gamma=gamma,
                             gamma0=q0 @ q0.T / l + np.eye(l),
                             y=rng.normal(size=k), u0=rng.normal(size=l),
                             nonlinear=pert)
    j = 300
    particles = 0.3 * rng.normal(size=(j, l))
    if ties:
        particles[100:150] = particles[:50]
        particles[150:200, 0] = particles[50:100, 0]
    seed = 90 + l
    cfg = SdeConfig(h=0.02, n_steps=3, j_particles=j, seed=seed)
    for step, gradient in ((eks_step, False), (eks_gradient_step, True)):
        # one source across three steps: its generator is reused
        ens, noise = Ensemble(particles=particles, step=2), NoiseSource(seed)
        for _ in range(3):
            expected = straight_line_step(ens, problem, cfg, seed, gradient)
            row_major = row_major_step(ens, problem, cfg, seed, gradient,
                                       tanh=(frequency, 0.5))
            ens = step(ens, problem, cfg, noise)
            assert np.array_equal(ens.particles, expected)
            np.testing.assert_allclose(ens.particles, row_major,
                                       rtol=0, atol=1e-14)


def scipy_sqrtm(m):
    import scipy.linalg
    return scipy.linalg.sqrtm(m)


def test_eks_gradient_step_nonlinear_transcription():
    # L=2, K=3 nonlinear case checked against a literal per-particle
    # transcription of the gradient-variant drift
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    gamma = np.diag([1.0, 2.0, 0.5])
    pert = make_perpendicular_perturbation(
        a, gamma, seed_direction=[1.0, 1.0, 1.0], frequency=[0.7, -0.4],
        amplitude=1.5)
    problem = InverseProblem(a=a, gamma=gamma, gamma0=np.eye(2),
                             y=[1.0, 1.0, 1.5], u0=[0.1, -0.2],
                             nonlinear=pert)
    ens = random_ensemble(7, j=6, l=2)
    cfg = SdeConfig(h=0.05, n_steps=1, j_particles=6, seed=3)
    noise = NoiseSource(seed=3)
    out = eks_gradient_step(ens, problem, cfg, noise)

    u = ens.particles
    j = u.shape[0]
    ubar = u.mean(axis=0)
    cov_uu = (u - ubar).T @ (u - ubar) / j
    gamma_inv = np.linalg.inv(gamma)
    gamma0_inv = np.linalg.inv(problem.gamma0)
    h = cfg.h
    rows = np.zeros_like(u)
    for idx in range(j):
        g_j = a @ u[idx] + pert.evaluate(u[idx])
        grad_g = a.T + pert.gradient(u[idx])      # (L, K)
        rows[idx] = cov_uu @ grad_g @ gamma_inv @ (g_j - problem.y)
    rhs = u - h * rows + h * (cov_uu @ gamma0_inv @ problem.u0)
    system = np.eye(2) + h * cov_uu @ gamma0_inv
    u_star = np.linalg.solve(system, rhs.T).T
    root = np.real(scipy_sqrtm(2.0 * h * cov_uu))
    expected = u_star + noise.normal_block(0, j, 2) @ root.T
    np.testing.assert_allclose(out.particles, expected, rtol=1e-11,
                               atol=1e-12)


# ------------------------------------------------- trivial step behavior


def test_degenerate_freeze_is_exact():
    # identical particles: covariances are exactly zero, so drift and
    # noise vanish exactly in every step mode
    problem = default_problem()
    particles = np.tile([[0.37, -1.2]], (5, 1))
    ens = Ensemble(particles=particles, time=0.0, step=0)
    cfg = SdeConfig(h=0.1, n_steps=1, j_particles=5, seed=11)
    noise = NoiseSource(seed=11)

    out = eks_step(ens, problem, cfg, noise)
    assert np.array_equal(out.particles, particles)
    out = eks_gradient_step(ens, problem, cfg, noise)
    assert np.array_equal(out.particles, particles)

    frozen_rho = GaussianMoments(mean=[0.0, 0.0], cov=np.zeros((2, 2)))
    out = mean_field_step(ens, frozen_rho, problem, cfg, noise)
    assert np.array_equal(out.particles, particles)


def test_h_zero_is_identity():
    problem = default_problem()
    ens = random_ensemble(4, j=6, l=2)
    cfg = SdeConfig(h=0.0, n_steps=1, j_particles=6, seed=0)
    noise = NoiseSource(seed=0)
    rho = GaussianMoments(mean=[0.0, 0.0], cov=np.eye(2))
    for stepper in (eks_step, eks_gradient_step):
        out = stepper(ens, problem, cfg, noise)
        assert np.array_equal(out.particles, ens.particles)
        assert out.time == ens.time
        assert out.step == ens.step + 1
    out = mean_field_step(ens, rho, problem, cfg, noise)
    assert np.array_equal(out.particles, ens.particles)


def test_mean_field_fixed_point():
    # all particles at the posterior mean, noise forced to zero: unchanged
    problem = default_problem()
    u_star = posterior_moments(problem).mean
    ens = Ensemble(particles=np.tile(u_star, (4, 1)), time=0.0, step=0)
    cfg = SdeConfig(h=0.2, n_steps=1, j_particles=4, seed=0)
    rho = GaussianMoments(mean=u_star, cov=np.eye(2))
    out = mean_field_step(ens, rho, problem, cfg, ZeroNoise())
    np.testing.assert_allclose(out.particles, ens.particles, atol=1e-15)


def test_mean_field_ou_transition_oracle():
    # A = I, gamma = gamma0 = 2I makes B = I and u* = 0; with C = I and
    # zero noise one Euler-Maruyama step is (1-h)v, which must match the
    # exact Ornstein-Uhlenbeck transition mean e^{-h} v to O(h^2)
    problem = InverseProblem(a=np.eye(2), gamma=2.0 * np.eye(2),
                             gamma0=2.0 * np.eye(2), y=[0.0, 0.0],
                             u0=[0.0, 0.0])
    np.testing.assert_allclose(precision_matrix(problem), np.eye(2),
                               atol=1e-14)
    h = 1e-3
    ens = random_ensemble(2, j=5, l=2)
    cfg = SdeConfig(h=h, n_steps=1, j_particles=5, seed=0)
    rho = GaussianMoments(mean=[0.0, 0.0], cov=np.eye(2))
    out = mean_field_step(ens, rho, problem, cfg, ZeroNoise())
    exact = np.exp(-h) * ens.particles
    assert np.max(np.abs(out.particles - exact)) <= 5e-6


def test_mean_field_rejects_nonlinear():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    gamma = np.diag([1.0, 2.0, 0.5])
    pert = make_perpendicular_perturbation(
        a, gamma, seed_direction=[1.0, 1.0, 1.0], frequency=[0.7, -0.4],
        amplitude=1.0)
    problem = InverseProblem(a=a, gamma=gamma, gamma0=np.eye(2),
                             y=[1.0, 1.0, 1.5], u0=[0.0, 0.0],
                             nonlinear=pert)
    ens = random_ensemble(0, j=4, l=2)
    cfg = SdeConfig(h=0.1, n_steps=1, j_particles=4, seed=0)
    rho = GaussianMoments(mean=[0.0, 0.0], cov=np.eye(2))
    from eks_lab.errors import NonlinearUnsupported
    with pytest.raises(NonlinearUnsupported):
        mean_field_step(ens, rho, problem, cfg, NoiseSource(seed=0))


# ------------------------------------------------------ algebraic checks


def test_linear_agreement_of_the_two_steps():
    # for a linear forward map cov_ug = cov_uu A^T makes the two drifts
    # identical, so the steps agree to rounding
    for seed in range(5):
        problem = random_problem(seed)
        ens = random_ensemble(seed + 50, j=8, l=3)
        cfg = SdeConfig(h=0.05, n_steps=1, j_particles=8, seed=seed)
        a_out = eks_step(ens, problem, cfg, NoiseSource(seed=seed))
        b_out = eks_gradient_step(ens, problem, cfg, NoiseSource(seed=seed))
        np.testing.assert_allclose(a_out.particles, b_out.particles,
                                   rtol=1e-12, atol=1e-12)


def test_linear_agreement_over_trajectory():
    problem = default_problem()
    for seed in range(3):
        ens_a = random_ensemble(seed, j=10, l=2, spread=1.5)
        ens_b = ens_a
        cfg = SdeConfig(h=0.02, n_steps=100, j_particles=10, seed=seed)
        noise = NoiseSource(seed=cfg.seed)
        for _ in range(cfg.n_steps):
            ens_a = eks_step(ens_a, problem, cfg, noise)
            ens_b = eks_gradient_step(ens_b, problem, cfg, noise)
        np.testing.assert_allclose(ens_a.particles, ens_b.particles,
                                   rtol=1e-11, atol=1e-11)


def test_implicit_step_consistency_order():
    # || implicit u* - explicit-Euler u* || should shrink like h^2; the
    # ratio between successive halvings is close to 4
    problem = default_problem()
    ens = random_ensemble(9, j=6, l=2, spread=1.3)
    stats = empirical_stats(ens, problem)
    u = ens.particles
    g = u @ problem.a.T
    gamma_inv = np.linalg.inv(problem.gamma)
    gamma0_inv = np.linalg.inv(problem.gamma0)
    diffs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        cfg = SdeConfig(h=h, n_steps=1, j_particles=6, seed=0)
        implicit = eks_step(ens, problem, cfg, ZeroNoise()).particles
        explicit = (u
                    - h * (g - problem.y) @ gamma_inv @ stats.cov_ug.T
                    - h * (u - problem.u0) @ gamma0_inv @ stats.cov_uu.T)
        diffs.append(np.max(np.linalg.norm(implicit - explicit, axis=1)))
    assert diffs[0] / diffs[1] == pytest.approx(4.0, abs=0.5)
    assert diffs[1] / diffs[2] == pytest.approx(4.0, abs=0.5)


def test_affine_span_invariance():
    # J=3 particles in L=5: drift and noise live in range(cov_uu), so
    # iterates never leave the affine span of the initial ensemble
    problem = random_problem(21, l=5, k=5)
    initial = random_ensemble(22, j=3, l=5)
    cfg = SdeConfig(h=0.05, n_steps=100, j_particles=3, seed=5)
    noise = NoiseSource(seed=cfg.seed)
    ens = initial
    for _ in range(cfg.n_steps):
        ens = eks_step(ens, problem, cfg, noise)
    assert affine_span_distance(ens, initial) <= 1e-8

    ens = initial
    for _ in range(cfg.n_steps):
        ens = eks_gradient_step(ens, problem, cfg, noise)
    assert affine_span_distance(ens, initial) <= 1e-8


# -------------------------------------------------- structural invariants


def test_permutation_equivariance_exact():
    problem = random_problem(31)
    rng = np.random.default_rng(77)
    for trial in range(4):
        perm = rng.permutation(6)
        base = random_ensemble(trial, j=6, l=3)
        permuted = Ensemble(particles=base.particles[perm],
                            time=base.time, step=base.step)
        cfg = SdeConfig(h=0.05, n_steps=1, j_particles=6, seed=trial)
        for stepper in (eks_step, eks_gradient_step):
            out_base = stepper(base, problem, cfg,
                               NoiseSource(seed=cfg.seed))
            out_perm = stepper(permuted, problem, cfg,
                               PermutedNoise(NoiseSource(seed=cfg.seed),
                                             perm))
            assert np.array_equal(out_perm.particles,
                                  out_base.particles[perm])


def test_permutation_equivariance_over_trajectory():
    problem = default_problem()
    perm = np.array([3, 0, 4, 1, 2])
    base = random_ensemble(8, j=5, l=2)
    permuted = Ensemble(particles=base.particles[perm],
                        time=base.time, step=base.step)
    cfg = SdeConfig(h=0.05, n_steps=25, j_particles=5, seed=13)
    noise = NoiseSource(seed=cfg.seed)
    wrapped = PermutedNoise(NoiseSource(seed=cfg.seed), perm)
    for _ in range(cfg.n_steps):
        base = eks_step(base, problem, cfg, noise)
        permuted = eks_step(permuted, problem, cfg, wrapped)
    assert np.array_equal(permuted.particles, base.particles[perm])


def nonlinear_problem(seed, l=3, k=4):
    linear = random_problem(seed, l, k)
    rng = np.random.default_rng(seed + 1)
    pert = make_perpendicular_perturbation(
        linear.a, linear.gamma, seed_direction=rng.normal(size=k),
        frequency=0.4 * rng.normal(size=l), amplitude=0.3)
    return dataclasses.replace(linear, nonlinear=pert)


def all_steppers(problem):
    # the three steps under one signature; the mean-field step runs on
    # the linear part of the problem, with made-up flow moments
    linear = dataclasses.replace(problem, nonlinear=None)
    l = problem.dim_l
    rho = GaussianMoments(mean=np.linspace(-1.0, 1.0, l),
                          cov=0.5 * np.eye(l) + 0.1)
    return (
        lambda ens, cfg, noise: eks_step(ens, problem, cfg, noise),
        lambda ens, cfg, noise: eks_gradient_step(ens, problem, cfg, noise),
        lambda ens, cfg, noise: mean_field_step(ens, rho, linear, cfg, noise),
    )


@pytest.mark.parametrize("j", [7, 63, 1023])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_permutation_equivariance_at_odd_j(j, ties):
    # odd J leaves a remainder after any vector width, so a particle in
    # the remainder and one in the body must get the same arithmetic
    problem = nonlinear_problem(5)
    rng = np.random.default_rng(j)
    particles = rng.normal(size=(j, 3))
    if ties:
        particles[1::3, 0] = particles[::3, 0][: len(particles[1::3])]
        particles[-1] = particles[0]
    perm = rng.permutation(j)
    cfg = SdeConfig(h=0.05, n_steps=2, j_particles=j, seed=j)
    for stepper in all_steppers(problem):
        base = Ensemble(particles=particles)
        permuted = Ensemble(particles=particles[perm])
        noise = NoiseSource(seed=cfg.seed)
        wrapped = PermutedNoise(NoiseSource(seed=cfg.seed), perm)
        # the second step starts from a step's own component-major output
        for _ in range(cfg.n_steps):
            base = stepper(base, cfg, noise)
            permuted = stepper(permuted, cfg, wrapped)
            assert np.array_equal(permuted.particles, base.particles[perm])


def offset_copy(a):
    # a C-ordered copy of a that starts one float past a 64-byte boundary
    buf = np.empty(a.size + 16)
    start = (-buf.ctypes.data % 64) // 8 + 1
    out = buf[start:start + a.size].reshape(a.shape)
    out[...] = a
    return out


def layouts(particles):
    """The same particles as C-ordered, F-ordered, offset C-ordered and
    offset component-major arrays."""
    return {
        "C": np.ascontiguousarray(particles),
        "F": np.asfortranarray(particles),
        "offset": offset_copy(particles),
        "offset-component-major": offset_copy(particles.T).T,
    }


@pytest.mark.parametrize("l", [3, 8])
def test_stats_and_steps_independent_of_memory_layout(l):
    problem = nonlinear_problem(11, l=l, k=l + 1)
    particles = np.random.default_rng(l).normal(size=(63, l))
    cfg = SdeConfig(h=0.05, n_steps=1, j_particles=63, seed=4)
    expected = None
    for name, array in layouts(particles).items():
        assert np.array_equal(array, particles)
        ens = Ensemble(particles=array, step=3)
        stats = empirical_stats(ens, problem)
        got = [stats.mean_u, stats.mean_g, stats.cov_uu, stats.cov_ug,
               stats.forward, *particle_moments(ens),
               np.array(centered_moments(ens))]
        got += [stepper(ens, cfg, NoiseSource(seed=cfg.seed)).particles
                for stepper in all_steppers(problem)]
        if expected is None:
            expected = got
        for value, reference in zip(got, expected):
            assert np.array_equal(value, reference), name


def test_steps_independent_of_noise_block_layout():
    problem = nonlinear_problem(12)
    ens = random_ensemble(3, j=63, l=3, step=2)
    cfg = SdeConfig(h=0.05, n_steps=1, j_particles=63, seed=8)
    xi = NoiseSource(seed=cfg.seed).normal_block(ens.step, 63, 3)
    for stepper in all_steppers(problem):
        outs = [stepper(ens, cfg, block).particles
                for block in layouts(xi).values()]
        assert np.array_equal(outs[0], stepper(ens, cfg, NoiseSource(
            seed=cfg.seed)).particles)
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])


def test_bit_identical_reruns():
    problem = default_problem()
    cfg = SdeConfig(h=0.05, n_steps=40, j_particles=16, seed=99)

    def trajectory():
        ens = sample_gaussian(
            GaussianMoments(mean=[2.0, -2.0], cov=np.eye(2)),
            cfg.j_particles, cfg.seed)
        noise = NoiseSource(seed=cfg.seed)
        for _ in range(cfg.n_steps):
            ens = eks_step(ens, problem, cfg, noise)
        return ens.particles

    first = trajectory()
    second = trajectory()
    assert np.array_equal(first, second)


def test_no_blowup_across_seeds():
    # T=5 at h=0.01 for 50 seeds: the centered fourth moment must stay
    # finite and within a factor 10^3 of (1 + its initial value)
    problem = default_problem()
    moments0 = GaussianMoments(mean=[2.0, -2.0], cov=np.eye(2))
    cfg_template = dict(h=0.01, n_steps=500, j_particles=100)
    for seed in range(50):
        cfg = SdeConfig(seed=seed, **cfg_template)
        ens = sample_gaussian(moments0, cfg.j_particles, seed)
        bound = 1e3 * (1.0 + centered_moments(ens)[1])
        noise = NoiseSource(seed=seed)
        for _ in range(cfg.n_steps):
            ens = eks_step(ens, problem, cfg, noise)
        m4 = centered_moments(ens)[1]
        assert np.isfinite(m4)
        assert m4 <= bound


# ------------------------------------------------------------ run driver


def flow_for(problem, mean, cov):
    return MomentFlow(problem=problem, m0=np.asarray(mean, dtype=float),
                      c0=np.asarray(cov, dtype=float))


def test_run_zero_steps_returns_initial():
    problem = default_problem()
    ens = random_ensemble(3, j=4, l=2)
    cfg = SdeConfig(h=0.1, n_steps=0, j_particles=4, seed=0)
    res = run(ens, problem, cfg, "eks")
    assert res.final is ens
    assert res.coupling_error is None


def test_run_mode_and_dim_validation():
    problem = default_problem()
    ens = random_ensemble(3, j=4, l=2)
    cfg = SdeConfig(h=0.1, n_steps=1, j_particles=4, seed=0)
    with pytest.raises(ValueError):
        run(ens, problem, cfg, "nonsense")
    with pytest.raises(ValueError):
        run(ens, problem, cfg, "coupled")          # missing flow
    bad_cfg = SdeConfig(h=0.1, n_steps=1, j_particles=5, seed=0)
    with pytest.raises(DimensionMismatch):
        run(ens, problem, bad_cfg, "eks")


def test_run_matches_manual_stepping():
    problem = default_problem()
    ens = random_ensemble(17, j=8, l=2)
    cfg = SdeConfig(h=0.05, n_steps=30, j_particles=8, seed=4)
    res = run(ens, problem, cfg, "eks")
    manual = ens
    noise = NoiseSource(seed=cfg.seed)
    for _ in range(cfg.n_steps):
        manual = eks_step(manual, problem, cfg, noise)
    assert np.array_equal(res.final.particles, manual.particles)
    assert res.final.step == cfg.n_steps
    assert res.final.time == pytest.approx(cfg.t_final)


def test_coupled_run_starts_at_zero_error():
    problem = default_problem()
    moments0 = GaussianMoments(mean=[2.0, -2.0], cov=np.eye(2))
    ens = sample_gaussian(moments0, 32, 7)
    cfg = SdeConfig(h=0.05, n_steps=10, j_particles=32, seed=7)
    flow = flow_for(problem, moments0.mean, moments0.cov)
    res = run(ens, problem, cfg, "coupled", flow=flow,
              record_diagnostics=True)
    series = res.diagnostics["coupling_error"]
    assert series.shape == (cfg.n_steps + 1,)
    assert series[0] == 0.0
    assert np.all(np.isfinite(series))
    assert res.coupling_error == series[-1]
    assert res.v_final is not None
    assert res.v_final.particles.shape == res.final.particles.shape


def test_coupling_error_shrinks_with_ensemble_size():
    # the squared coupling distance at fixed T behaves like C/J
    problem = default_problem()
    moments0 = GaussianMoments(mean=[2.0, -2.0], cov=np.eye(2))
    flow = flow_for(problem, moments0.mean, moments0.cov)
    errs = {}
    for j in (32, 128, 512):
        vals = []
        for seed in (1, 2, 3):
            cfg = SdeConfig(h=0.02, n_steps=50, j_particles=j, seed=seed)
            ens = sample_gaussian(moments0, j, seed)
            res = run(ens, problem, cfg, "coupled", flow=flow)
            vals.append(res.coupling_error)
        errs[j] = np.mean(vals)
    assert errs[128] < errs[32]
    assert errs[512] < errs[128]
    # 16x more particles should buy roughly 16x; demand at least 4x
    assert errs[512] < errs[32] / 4.0


def test_shared_noise_tightens_coupling():
    problem = default_problem()
    moments0 = GaussianMoments(mean=[2.0, -2.0], cov=np.eye(2))
    flow = flow_for(problem, moments0.mean, moments0.cov)
    cfg = SdeConfig(h=0.02, n_steps=50, j_particles=64, seed=5)
    ens = sample_gaussian(moments0, 64, 5)
    shared = run(ens, problem, cfg, "coupled", flow=flow)
    independent = run(ens, problem, cfg, "coupled", flow=flow,
                      share_noise=False)
    assert shared.coupling_error * 5.0 < independent.coupling_error


def test_mean_field_run_tracks_reference_marginals():
    # long coupled run: the mean-field particles' empirical moments
    # approach rho(T)
    problem = default_problem()
    moments0 = GaussianMoments(mean=[2.0, -2.0], cov=np.eye(2))
    flow = flow_for(problem, moments0.mean, moments0.cov)
    j = 4000
    cfg = SdeConfig(h=0.01, n_steps=300, j_particles=j, seed=12)
    ens = sample_gaussian(moments0, j, 12)
    res = run(ens, problem, cfg, "coupled", flow=flow)
    target = rho_at(flow, cfg.t_final)
    stats = empirical_stats(res.v_final, problem)
    assert np.linalg.norm(stats.mean_u - target.mean) < 0.1
    assert np.linalg.norm(stats.cov_uu - target.cov, ord=2) < 0.15


def test_run_diagnostics_recorded():
    problem = default_problem()
    moments0 = GaussianMoments(mean=[2.0, -2.0], cov=np.eye(2))
    flow = flow_for(problem, moments0.mean, moments0.cov)
    ens = sample_gaussian(moments0, 16, 3)
    cfg = SdeConfig(h=0.05, n_steps=8, j_particles=16, seed=3)
    res = run(ens, problem, cfg, "coupled", flow=flow,
              record_diagnostics=True)
    diag = res.diagnostics
    assert set(diag) == {"step", "time", "coupling_error", "condition",
                         "trace_cov_uu", "fourth_moment"}
    for key in diag:
        assert diag[key].shape == (cfg.n_steps + 1,)
    assert np.all(np.diff(diag["time"]) > 0)
    assert diag["coupling_error"][0] == 0.0
    assert diag["coupling_error"][-1] == res.coupling_error


def counted_nonlinear_problem():
    """A perturbed problem whose evaluate_batch hook counts its calls."""
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    gamma = np.diag([1.0, 2.0, 0.5])
    pert = make_perpendicular_perturbation(
        a, gamma, seed_direction=[0.0, 0.0, 1.0], frequency=[0.7, -0.4],
        amplitude=2.0)
    calls = []

    def evaluate_batch(u_all):
        calls.append(u_all.shape[1])
        return pert.evaluate_batch(u_all)

    counted = dataclasses.replace(pert, evaluate_batch=evaluate_batch)
    problem = InverseProblem(a=a, gamma=gamma, gamma0=np.eye(2),
                             y=[1.0, 1.0, 1.5], u0=[0.0, 0.0],
                             nonlinear=counted)
    return problem, calls


@pytest.mark.parametrize("step", [eks_step, eks_gradient_step],
                         ids=["eks", "eks_gradient"])
def test_kalman_step_evaluates_forward_map_once(step):
    problem, calls = counted_nonlinear_problem()
    ens = random_ensemble(30, j=16, l=2)
    cfg = SdeConfig(h=0.05, n_steps=1, j_particles=16, seed=1)
    step(ens, problem, cfg, NoiseSource(seed=1))
    assert calls == [16]


@pytest.mark.parametrize("mode", ["eks", "eks_gradient", "coupled"])
def test_diagnostics_do_not_change_the_trajectory(mode):
    problem = random_problem(31)
    moments0 = GaussianMoments(mean=np.ones(3), cov=np.eye(3))
    flow = flow_for(problem, moments0.mean, moments0.cov)
    ens = sample_gaussian(moments0, 32, 31)
    cfg = SdeConfig(h=0.05, n_steps=12, j_particles=32, seed=31)
    plain = run(ens, problem, cfg, mode, flow=flow)
    recorded = run(ens, problem, cfg, mode, flow=flow,
                   record_diagnostics=True)
    assert np.array_equal(recorded.final.particles, plain.final.particles)
    if mode == "coupled":
        assert np.array_equal(recorded.v_final.particles,
                              plain.v_final.particles)


def test_diagnostic_trace_matches_empirical_covariance():
    problem = random_problem(32)
    ens = random_ensemble(32, j=24, l=3)
    cfg = SdeConfig(h=0.05, n_steps=10, j_particles=24, seed=32)
    res = run(ens, problem, cfg, "eks", record_diagnostics=True)
    noise = NoiseSource(seed=cfg.seed)
    for n in range(cfg.n_steps + 1):
        want = np.trace(empirical_stats(ens, problem).cov_uu)
        assert res.diagnostics["trace_cov_uu"][n] == pytest.approx(
            want, rel=1e-12)
        ens = eks_step(ens, problem, cfg, noise)


# ------------------------------------------------------------- utilities


def test_sample_gaussian_reproduces_moments():
    moments = GaussianMoments(mean=[1.0, -3.0],
                              cov=[[2.0, 0.5], [0.5, 1.0]])
    ens = sample_gaussian(moments, 20000, 42)
    assert ens.time == 0.0 and ens.step == 0
    emp_mean = ens.particles.mean(axis=0)
    centered = ens.particles - emp_mean
    emp_cov = centered.T @ centered / ens.j_particles
    np.testing.assert_allclose(emp_mean, moments.mean, atol=0.05)
    np.testing.assert_allclose(emp_cov, moments.cov, atol=0.08)


def test_sample_gaussian_prefix_property():
    # addressable noise: the first 100 particles of a 200-particle draw
    # equal the 100-particle draw bit for bit
    moments = GaussianMoments(mean=[1.0, -3.0],
                              cov=[[2.0, 0.5], [0.5, 1.0]])
    small = sample_gaussian(moments, 100, 7)
    big = sample_gaussian(moments, 200, 7)
    assert np.array_equal(big.particles[:100], small.particles)


def test_condition_check_values():
    # B = 4I against C = I
    problem = InverseProblem(a=np.eye(2), gamma=np.eye(2) / 3.0,
                             gamma0=np.eye(2), y=[0.0, 0.0],
                             u0=[0.0, 0.0])
    rho = GaussianMoments(mean=[0.0, 0.0], cov=np.eye(2))
    assert condition_check(problem, rho) == pytest.approx(4.0, abs=1e-12)
    # B = I against C = I
    problem = InverseProblem(a=np.eye(2), gamma=2.0 * np.eye(2),
                             gamma0=2.0 * np.eye(2), y=[0.0, 0.0],
                             u0=[0.0, 0.0])
    assert condition_check(problem, rho) == pytest.approx(1.0, abs=1e-12)
    # C = B^{-1}: product of extreme eigenvalues
    problem = default_problem()
    b = precision_matrix(problem)
    rho = GaussianMoments(mean=[0.0, 0.0], cov=np.linalg.inv(b))
    w = np.linalg.eigvalsh(b)
    assert condition_check(problem, rho) == pytest.approx(w[0] / w[-1],
                                                          rel=1e-10)


def test_condition_check_takes_lambda_min_of_b_once(monkeypatch):
    # B is constant: its smallest eigenvalue is cached on the problem, and
    # a diagnostics run takes lambda_min of C(t) alone at each step
    problem = random_problem(8)
    moments0 = GaussianMoments(mean=[1.0, -1.0, 0.5],
                               cov=[[2.0, 0.3, 0.0], [0.3, 0.5, 0.1],
                                    [0.0, 0.1, 1.0]])
    assert condition_check(problem, moments0) == (
        lambda_min(precision_matrix(problem)) * lambda_min(moments0.cov))
    seen = []
    monkeypatch.setattr(dynamics, "lambda_min",
                        lambda m: seen.append(m) or lambda_min(m))
    cfg = SdeConfig(h=0.05, n_steps=6, j_particles=8, seed=3)
    run(sample_gaussian(moments0, 8, 4), problem, cfg, "eks",
        flow=flow_for(problem, moments0.mean, moments0.cov),
        record_diagnostics=True)
    assert len(seen) == cfg.n_steps + 1
    b = precision_matrix(problem)
    assert not any(np.array_equal(m, b) for m in seen)


# ------------------------------------------------------------- failures


@pytest.mark.parametrize("step, spread, message", [
    (eks_step, 1e150, "particles overflowed (stepsize too large?)"),
    (eks_gradient_step, 1e150, "particles overflowed (stepsize too large?)"),
    (mean_field_step, 1e308, "reference particles overflowed"),
], ids=["eks_step", "eks_gradient_step", "mean_field_step"])
def test_overflow_raises_nonfinite_with_step_index(step, spread, message):
    problem = scalar_problem()
    ens = Ensemble(particles=[[-spread], [spread]], time=0.3, step=3)
    cfg = SdeConfig(h=0.1, n_steps=1, j_particles=2, seed=0)
    rho = (GaussianMoments(mean=[0.0], cov=[[1.0]]),) \
        if step is mean_field_step else ()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite,
                           match=f"^{re.escape('step 3: ' + message)}$"):
            step(ens, *rho, problem, cfg, NoiseSource(seed=0))


def test_singular_implicit_system_reports_step(monkeypatch):
    problem = default_problem()
    ens = random_ensemble(0, j=4, l=2, step=17)

    def broken_solve(a, rhs):
        raise SingularMatrix("synthetic failure")

    monkeypatch.setattr("eks_lab.dynamics.general_solve", broken_solve)
    cfg = SdeConfig(h=0.1, n_steps=1, j_particles=4, seed=0)
    with pytest.raises(SingularImplicitSystem, match="step 17"):
        eks_step(ens, problem, cfg, NoiseSource(seed=0))


def test_diverging_ensemble_is_reported_as_divergence():
    # J = 5 < L = 8 and a strong misfit: the spread grows by orders of
    # magnitude per step until h cov_uu gamma0^{-1} swamps the identity
    # and the implicit system turns numerically singular
    rng = np.random.default_rng(0)
    a = 3 * rng.normal(size=(10, 8))
    problem = InverseProblem(a=a, gamma=0.1 * np.eye(10), gamma0=np.eye(8),
                             y=rng.normal(size=10), u0=np.zeros(8))
    ens = Ensemble(particles=rng.normal(size=(5, 8)))
    cfg = SdeConfig(h=0.05, n_steps=10, j_particles=5, seed=0)
    noise = NoiseSource(0)
    with pytest.raises(Diverged, match=r"step \d+: ensemble diverged.*"
                       r"stepsize too large\?"):
        for _ in range(cfg.n_steps):
            ens = eks_step(ens, problem, cfg, noise)
    assert 1 <= ens.step < cfg.n_steps


def test_lockstep_error_names_the_failing_cell():
    """A cell that diverges inside a lockstep run raises its own error
    type and message, still starting "step N:", with its index in the
    call, its J and its seed added; run on its own ensemble, the same
    cell raises the bare message."""
    rng = np.random.default_rng(0)
    a = 3 * rng.normal(size=(10, 8))
    problem = InverseProblem(a=a, gamma=0.1 * np.eye(10), gamma0=np.eye(8),
                             y=rng.normal(size=10), u0=np.zeros(8))
    # a collapsed cell stays frozen; the second cell diverges
    cells = [Ensemble(particles=np.zeros((3, 8))),
             Ensemble(particles=rng.normal(size=(5, 8)))]
    cfgs = [SdeConfig(h=0.05, n_steps=40, j_particles=j, seed=seed)
            for j, seed in ((3, 7), (5, 9))]
    with pytest.raises(Diverged) as alone:
        run(cells[1], problem, cfgs[1], "eks")
    with pytest.raises(Diverged) as lockstep:
        run(cells, problem, cfgs, "eks")
    assert re.match(r"step \d+: ensemble diverged", str(alone.value))
    assert str(lockstep.value) == \
        f"{alone.value} (cell 1: J = 5, seed 9)"


def test_stacked_run_names_its_failing_cell(monkeypatch):
    """A non-finite forward map in the middle cell of a run of three
    equal-J cells fails their one stacked statistics call; run()'s replay
    raises that cell's own error with the cell named."""
    problem = default_problem()
    cells = [random_ensemble(seed, j=4, l=2) for seed in (1, 2, 3)]
    # A doubles the second component: 1e308 maps to inf
    middle = cells[1].particles.copy()
    middle[2, 1] = 1e308
    cells[1] = Ensemble(particles=middle)
    cfgs = [SdeConfig(h=0.05, n_steps=3, j_particles=4, seed=seed)
            for seed in (7, 9, 11)]
    with pytest.raises(NonFinite) as alone:
        run(cells[1], problem, cfgs[1], "eks")
    stacked = []
    monkeypatch.setattr(dynamics, "stacked_stats",
                        lambda u, p: stacked.append(u.shape)
                        or ensemble.stacked_stats(u, p))
    with pytest.raises(NonFinite) as lockstep:
        run(cells, problem, cfgs, "eks")
    assert stacked == [(3, 2, 4)]
    assert str(alone.value) == "forward map produced non-finite values"
    assert str(lockstep.value) == \
        f"{alone.value} (cell 1: J = 4, seed 9)"


def test_step_dim_mismatch():
    problem = default_problem()
    ens = random_ensemble(0, j=4, l=3)
    cfg = SdeConfig(h=0.1, n_steps=1, j_particles=4, seed=0)
    with pytest.raises(DimensionMismatch):
        eks_step(ens, problem, cfg, NoiseSource(seed=0))
    with pytest.raises(DimensionMismatch):
        eks_gradient_step(ens, problem, cfg, NoiseSource(seed=0))
    rho = GaussianMoments(mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(DimensionMismatch):
        mean_field_step(ens, rho, problem, cfg, NoiseSource(seed=0))


# ---------------------------------------------------------------- batches


def batch_cells(l, sizes, seed=0):
    """Cells of one clock, their configs, their stacked (sum J, L)
    ensemble and the step's noise block, one cell's rows after another."""
    cells = [random_ensemble(seed + i, j=j, l=l, step=5, time=0.25)
             for i, j in enumerate(sizes)]
    cfgs = [SdeConfig(h=0.1, n_steps=1, j_particles=j, seed=seed + i)
            for i, j in enumerate(sizes)]
    blocks = [NoiseSource(seed=c.seed).normal_block(5, c.j_particles, l)
              for c in cfgs]
    batch = Ensemble(particles=np.concatenate([c.particles for c in cells]),
                     time=0.25, step=5)
    return cells, cfgs, batch, blocks


@pytest.mark.parametrize("l", [1, 2, 3, 8])
@pytest.mark.parametrize("sizes", [[5], [1, 1, 1], [4, 4, 1, 7, 7, 7, 4]],
                         ids=["one", "j1", "runs"])
def test_batch_step_equals_each_cell_stepped_alone(l, sizes):
    problem = (perturbed_problem() if l == 2
               else random_problem(l, l=l, k=l + 1))
    rho = GaussianMoments(mean=np.ones(l), cov=0.5 * np.eye(l))
    cells, cfgs, batch, blocks = batch_cells(l, sizes)
    noise = np.concatenate(blocks)
    steps = [(eks_step, ()), (eks_gradient_step, ())]
    if problem.nonlinear is None:
        steps.append((mean_field_step, (rho,)))
    for step, args in steps:
        out = step(batch, *args, problem, cfgs, noise)
        assert (out.time, out.step) == (0.25 + 0.1, 6)
        rows = 0
        for cell, cfg, block in zip(cells, cfgs, blocks):
            alone = step(cell, *args, problem, cfg, block)
            assert np.array_equal(
                out.particles[rows:rows + cfg.j_particles], alone.particles)
            rows += cfg.j_particles


@pytest.mark.parametrize("step", [eks_step, eks_gradient_step])
def test_batch_step_over_the_stats_chunk_budget_equals_cells_alone(step):
    # one equal-J run a cell longer than one statistics pass holds
    problem = random_problem(5, l=2, k=3)
    j = 16
    r = ensemble.STATS_STACK_BUDGET // ((2 + 3) * j) + 1
    cells, cfgs, batch, blocks = batch_cells(2, [j] * r)
    out = step(batch, problem, cfgs, np.concatenate(blocks))
    for c, (cell, cfg, block) in enumerate(zip(cells, cfgs, blocks)):
        alone = step(cell, problem, cfg, block)
        assert np.array_equal(out.particles[c * j:(c + 1) * j],
                              alone.particles)


@pytest.mark.parametrize("step", [eks_step, eks_gradient_step])
@pytest.mark.parametrize("case, message", [
    ("sizes", "batch configs hold 6 particles, ensemble has 7"),
    ("h", "batch cells must share h, got [0.1, 0.2]"),
    ("noise_source",
     "a batch takes its step's (sum J, L) noise block, not a NoiseSource"),
])
def test_malformed_batch_raises_one_named_line_before_any_compute(
        monkeypatch, step, case, message):
    problem = default_problem()
    _, cfgs, batch, blocks = batch_cells(2, [4, 3])
    noise = np.concatenate(blocks)
    if case == "sizes":
        cfgs[1] = dataclasses.replace(cfgs[1], j_particles=2)
    elif case == "h":
        cfgs[1] = dataclasses.replace(cfgs[1], h=0.2)
    else:
        noise = NoiseSource(seed=0)
    stats = []
    monkeypatch.setattr(dynamics, "empirical_stats",
                        lambda *args: stats.append(args))
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        step(batch, problem, cfgs, noise)
    assert stats == []


# ------------------------------------------------------- lockstep cells


def lockstep_cells(h=0.05, n_steps=9):
    """Three cells of a sweep on one clock: two sizes, distinct seeds."""
    moments0 = GaussianMoments(mean=[2.0, -2.0], cov=np.eye(2))
    specs = [(8, 101), (16, 102), (16, 103)]
    initials = [sample_gaussian(moments0, j, seed) for j, seed in specs]
    cfgs = [SdeConfig(h=h, n_steps=n_steps, j_particles=j, seed=seed)
            for j, seed in specs]
    return moments0, initials, cfgs


@pytest.mark.parametrize("mode, share_noise", [
    ("coupled", True), ("coupled", False), ("eks", True)],
    ids=["coupled_shared", "coupled_independent", "eks"])
def test_lockstep_cells_equal_cells_run_alone(mode, share_noise):
    problem = default_problem()
    moments0, initials, cfgs = lockstep_cells()
    flow = flow_for(problem, moments0.mean, moments0.cov)
    together = run(initials, problem, cfgs, mode, flow=flow,
                   share_noise=share_noise, record_diagnostics=True)
    assert len(together) == len(initials)
    for initial, cfg, res in zip(initials, cfgs, together):
        alone = run(initial, problem, cfg, mode, flow=flow,
                    share_noise=share_noise, record_diagnostics=True)
        assert np.array_equal(res.final.particles, alone.final.particles)
        assert (res.final.time, res.final.step) == (alone.final.time,
                                                    alone.final.step)
        if mode == "coupled":
            assert np.array_equal(res.v_final.particles,
                                  alone.v_final.particles)
            assert res.coupling_error == alone.coupling_error
        for key, values in alone.diagnostics.items():
            np.testing.assert_array_equal(res.diagnostics[key], values,
                                          err_msg=key)


@pytest.mark.parametrize("share_noise", [True, False],
                         ids=["shared", "independent"])
def test_coupled_cells_with_a_repeated_key_equal_cells_run_alone(
        share_noise):
    # cells 0 and 2 share (seed, J) but not their start, so the one
    # reference ensemble reads one table block twice, out of table order
    problem = default_problem()
    moments0, initials, cfgs = lockstep_cells(n_steps=6)
    initials.append(sample_gaussian(moments0, 8, 104))
    cfgs.append(cfgs[0])
    flow = flow_for(problem, moments0.mean, moments0.cov)
    together = run(initials, problem, cfgs, "coupled", flow=flow,
                   share_noise=share_noise, record_diagnostics=True)
    for initial, cfg, res in zip(initials, cfgs, together):
        alone = run(initial, problem, cfg, "coupled", flow=flow,
                    share_noise=share_noise, record_diagnostics=True)
        assert np.array_equal(res.final.particles, alone.final.particles)
        assert np.array_equal(res.v_final.particles,
                              alone.v_final.particles)
        assert (res.v_final.time, res.v_final.step) == (
            alone.v_final.time, alone.v_final.step)
        assert res.coupling_error == alone.coupling_error
        assert res.diagnostics.keys() == alone.diagnostics.keys()
        for key, values in alone.diagnostics.items():
            np.testing.assert_array_equal(res.diagnostics[key], values,
                                          err_msg=key)
    # the repeated key really drove two different cells
    assert not np.array_equal(together[0].final.particles,
                              together[3].final.particles)


def test_lockstep_cells_must_share_clock_and_step():
    problem = default_problem()
    moments0, initials, cfgs = lockstep_cells()
    flow = flow_for(problem, moments0.mean, moments0.cov)
    late = Ensemble(particles=initials[1].particles, time=0.05, step=1)
    with pytest.raises(DimensionMismatch, match="clock"):
        run([initials[0], late], problem, cfgs[:2], "coupled", flow=flow)
    other_h = dataclasses.replace(cfgs[1], h=0.02)
    with pytest.raises(DimensionMismatch, match="share h"):
        run(initials[:2], problem, [cfgs[0], other_h], "eks")
    with pytest.raises(DimensionMismatch, match="one config per ensemble"):
        run(initials, problem, cfgs[:2], "eks")


@pytest.mark.parametrize("share_noise, draws_per_step",
                         [(True, 1), (False, 2)],
                         ids=["shared", "independent"])
def test_coupled_step_draws_noise_once_when_shared(monkeypatch, share_noise,
                                                    draws_per_step):
    problem = default_problem()
    moments0 = GaussianMoments(mean=[2.0, -2.0], cov=np.eye(2))
    flow = flow_for(problem, moments0.mean, moments0.cov)
    ens = sample_gaussian(moments0, 16, 9)
    cfg = SdeConfig(h=0.05, n_steps=7, j_particles=16, seed=9)
    calls = count_draws(monkeypatch)
    run(ens, problem, cfg, "coupled", flow=flow, share_noise=share_noise)
    assert len(calls) == draws_per_step * cfg.n_steps


def test_lockstep_run_computes_reference_once_per_step(monkeypatch):
    from eks_lab import dynamics
    problem = default_problem()
    moments0, initials, cfgs = lockstep_cells(n_steps=6)
    flow = flow_for(problem, moments0.mean, moments0.cov)
    times = []
    rho_at = dynamics.rho_at

    def counted(flow, t):
        times.append(t)
        return rho_at(flow, t)

    monkeypatch.setattr(dynamics, "rho_at", counted)
    run(initials, problem, cfgs, "coupled", flow=flow)
    assert len(times) == cfgs[0].n_steps
    assert times == sorted(set(times))


def test_steps_accept_a_drawn_block():
    problem = default_problem()
    flow = flow_for(problem, [2.0, -2.0], np.eye(2))
    ens = random_ensemble(40, j=12, l=2, time=0.3, step=6)
    cfg = SdeConfig(h=0.05, n_steps=1, j_particles=12, seed=40)
    src = NoiseSource(seed=40)
    xi = src.normal_block(ens.step, 12, 2)
    assert np.array_equal(eks_step(ens, problem, cfg, xi).particles,
                          eks_step(ens, problem, cfg, src).particles)
    rho = rho_at(flow, ens.time)
    assert np.array_equal(
        mean_field_step(ens, rho, problem, cfg, xi).particles,
        mean_field_step(ens, rho, problem, cfg, src).particles)
    with pytest.raises(DimensionMismatch, match="noise block"):
        eks_step(ens, problem, cfg, xi[:-1])


# ----------------------------------------------------------- draw table


def perturbed_problem():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    gamma = np.diag([1.0, 2.0, 0.5])
    pert = make_perpendicular_perturbation(
        a, gamma, seed_direction=[0.0, 0.0, 1.0], frequency=[0.7, -0.4],
        amplitude=2.0)
    return InverseProblem(a=a, gamma=gamma, gamma0=np.eye(2),
                          y=[1.0, 1.0, 1.5], u0=[0.0, 0.0], nonlinear=pert)


def count_draws(monkeypatch):
    """Record (seed, step, J) of every word_block call from now on: every
    draw, whether normal_block's or the one conversion per step of
    run()'s draw table."""
    calls = []
    draw = NoiseSource.word_block

    def counted(self, step, n_particles, n_components):
        calls.append((self.seed, step, n_particles))
        return draw(self, step, n_particles, n_components)

    monkeypatch.setattr(NoiseSource, "word_block", counted)
    return calls


@pytest.mark.parametrize("j", [7, 64, 1023])
def test_mixed_kalman_cells_equal_cells_run_alone(j):
    # a sampler pair on one ensemble and seed, plus a cell of its own
    problem = perturbed_problem()
    moments0 = GaussianMoments(mean=[1.0, -1.0], cov=np.eye(2))
    initials = [sample_gaussian(moments0, j, j)] * 2 + [
        sample_gaussian(moments0, j + 1, j + 1)]
    cfgs = [SdeConfig(h=0.05, n_steps=4, j_particles=n, seed=n)
            for n in (j, j, j + 1)]
    modes = ("eks_gradient", "eks", "eks_gradient")
    together = run(initials, problem, cfgs, modes, record_diagnostics=True)
    for initial, cfg, mode, res in zip(initials, cfgs, modes, together):
        alone = run(initial, problem, cfg, mode, record_diagnostics=True)
        assert np.array_equal(res.final.particles, alone.final.particles)
        assert (res.final.time, res.final.step) == (alone.final.time,
                                                    alone.final.step)
        for key, values in alone.diagnostics.items():
            np.testing.assert_array_equal(res.diagnostics[key], values,
                                          err_msg=key)
    # the pair really ran two different samplers
    assert not np.array_equal(together[0].final.particles,
                              together[1].final.particles)


@pytest.mark.parametrize("mode, share_noise, draws_per_cell", [
    ("eks", True, 1), ("coupled", True, 1), ("coupled", False, 2)],
    ids=["eks", "coupled_shared", "coupled_independent"])
def test_sweep_cells_draw_once_per_seed_and_step(monkeypatch, mode,
                                                  share_noise,
                                                  draws_per_cell):
    problem = default_problem()
    moments0, initials, cfgs = lockstep_cells(n_steps=5)
    flow = flow_for(problem, moments0.mean, moments0.cov)
    calls = count_draws(monkeypatch)
    run(initials, problem, cfgs, mode, flow=flow, share_noise=share_noise)
    assert len(calls) == draws_per_cell * len(cfgs) * cfgs[0].n_steps
    assert len(set(calls)) == len(calls)


def test_sampler_pair_shares_one_draw_per_step(monkeypatch):
    problem = perturbed_problem()
    moments0 = GaussianMoments(mean=[1.0, -1.0], cov=np.eye(2))
    initial = sample_gaussian(moments0, 32, 4)
    cfg = SdeConfig(h=0.05, n_steps=6, j_particles=32, seed=4)
    calls = count_draws(monkeypatch)
    run([initial, initial], problem, [cfg, cfg], ("eks_gradient", "eks"))
    assert calls == [(4, n, 32) for n in range(cfg.n_steps)]
    # one seed at two sizes is two keys of the table
    del calls[:]
    small = Ensemble(particles=initial.particles[:16])
    run([initial, small], problem, [cfg, dataclasses.replace(
        cfg, j_particles=16)], "eks")
    assert len(calls) == 2 * cfg.n_steps


@pytest.mark.parametrize("modes", [
    ("eks",), ("eks", "eks", "eks"), ("eks", "mean_field"),
    ("eks_gradient", "coupled"), ("eks", "bogus"), ("eks", None)],
    ids=["too_short", "too_long", "mean_field", "coupled", "unknown",
         "not_a_name"])
def test_bad_mode_sequence_raises_before_any_step(monkeypatch, modes):
    from eks_lab import dynamics
    problem = perturbed_problem()
    moments0 = GaussianMoments(mean=[1.0, -1.0], cov=np.eye(2))
    initial = sample_gaussian(moments0, 8, 1)
    cfg = SdeConfig(h=0.05, n_steps=3, j_particles=8, seed=1)
    calls = count_draws(monkeypatch)
    stats = []
    monkeypatch.setattr(dynamics, "empirical_stats",
                        lambda *args: stats.append(args))
    with pytest.raises(ValueError, match="one of .* per cell"):
        run([initial, initial], problem, [cfg, cfg], modes)
    assert calls == [] and stats == []


def test_demo_pair_equals_two_separate_runs(monkeypatch):
    from eks_lab import studies
    doc = {"kind": "demo-nonlinear", "seed": 3, "repeats": 2,
           "problem": {"a": [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
                       "gamma": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                 [0.0, 0.0, 0.5]],
                       "gamma0": [[1.0, 0.0], [0.0, 1.0]],
                       "y": [1.0, 1.0, 1.5], "u0": [0.0, 0.0],
                       "nonlinear": {"seed_direction": [0.0, 0.0, 1.0],
                                     "frequency": [0.7, -0.4],
                                     "amplitude": 2.0}},
           "sde": {"j_particles": 50, "n_steps": 20, "h": 0.02}}
    cfg = studies.parse_config(doc)
    calls = []

    def recording(*args, **kwargs):
        out = run(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(studies, "run", recording)
    report = studies.run_study(cfg)
    # every repeat's pair steps as two cells of one run() call
    assert len(calls) == 1 and len(calls[0]) == 2 * cfg.repeats
    for rep in range(cfg.repeats):
        pair = calls[0][2 * rep:2 * rep + 2]
        rep_seed = derive_seed(cfg.seed, "demo", rep)
        initial = sample_gaussian(cfg.rho0, cfg.j_particles,
                                  derive_seed(rep_seed, "init"))
        sde = SdeConfig(h=cfg.h, n_steps=cfg.n_steps,
                        j_particles=cfg.j_particles,
                        seed=derive_seed(rep_seed, "run"))
        for mode, res in zip(("eks_gradient", "eks"), pair):
            alone = run(initial, cfg.problem, sde, mode)
            assert np.array_equal(res.final.particles,
                                  alone.final.particles)
        alg2_error = np.linalg.norm(
            particle_moments(pair[0].final)[0]
            - np.asarray(report.summary["quadrature_mean"]))
        assert report.summary["alg2_mean_errors"][rep] == float(alg2_error)
