"""Tests for the Gaussian moment flow.

The closed-form moments and the raw RK4 integration of the moment ODEs
are two independent routes to the same object; they are checked against
each other, against hand-computable fixed points, and against the
commuting-case scalar profile.
"""

import numpy as np
import pytest

from eks_lab.errors import NonFinite, NonlinearUnsupported, NonPositive, NotPSD
from eks_lab.metrics import gaussian_w2
from eks_lab.model import (
    GaussianMoments,
    InverseProblem,
    make_perpendicular_perturbation,
    posterior_moments,
    precision_matrix,
)
from eks_lab.reference import (
    MomentFlow,
    advance_mean,
    covariance_closed_form,
    integrate_moments,
    rho_at,
    w2_decay_curve,
)


def default_problem():
    return InverseProblem(a=np.array([[1.0, 0.0], [0.0, 2.0]]),
                          gamma=np.eye(2), gamma0=np.eye(2),
                          y=np.array([1.0, 1.0]), u0=np.zeros(2))


def default_flow(dt_ode=1e-3):
    return MomentFlow(problem=default_problem(),
                      m0=np.array([2.0, -2.0]), c0=np.eye(2), dt_ode=dt_ode)


def random_flow(seed, l=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((l + 1, l))
    rg = rng.standard_normal((l + 1, l + 1))
    rp = rng.standard_normal((l, l))
    problem = InverseProblem(a=a, gamma=rg @ rg.T + 0.5 * np.eye(l + 1),
                             gamma0=rp @ rp.T + 0.5 * np.eye(l),
                             y=rng.standard_normal(l + 1),
                             u0=rng.standard_normal(l))
    rc = rng.standard_normal((l, l))
    return MomentFlow(problem=problem, m0=rng.standard_normal(l),
                      c0=rc @ rc.T + 0.3 * np.eye(l))


def test_flow_validation():
    problem = default_problem()
    with pytest.raises(NotPSD):
        MomentFlow(problem=problem, m0=np.zeros(2), c0=np.zeros((2, 2)))
    with pytest.raises(NonPositive):
        MomentFlow(problem=problem, m0=np.zeros(2), c0=np.eye(2), dt_ode=0.0)
    pert = make_perpendicular_perturbation(
        np.array([[1.0], [0.0]]), np.eye(2), np.array([0.0, 1.0]),
        np.array([1.0]), 1.0)
    nonlinear = InverseProblem(a=np.array([[1.0], [0.0]]), gamma=np.eye(2),
                               gamma0=np.eye(1), y=np.zeros(2), u0=np.zeros(1),
                               nonlinear=pert)
    with pytest.raises(NonlinearUnsupported):
        MomentFlow(problem=nonlinear, m0=np.zeros(1), c0=np.eye(1))
    # rho_at(flow, 0) returns m0 itself, so a bad m0 is refused up front
    with pytest.raises(NonFinite):
        MomentFlow(problem=problem, m0=[np.nan, 0.0], c0=np.eye(2))


def test_covariance_at_zero_is_initial():
    flow = random_flow(1)
    assert np.max(np.abs(covariance_closed_form(flow, 0.0) - flow.c0)) <= 1e-12


def test_covariance_identity_fixed_point():
    # B = I and C0 = I: the interpolation is I for every t
    problem = InverseProblem(a=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             gamma=np.eye(2), gamma0=np.eye(2),
                             y=np.zeros(2), u0=np.zeros(2))
    b = precision_matrix(problem)
    assert np.allclose(b, [[2.0, 0.0], [0.0, 1.0]], atol=1e-14)
    iso = InverseProblem(a=np.zeros((2, 2)), gamma=np.eye(2), gamma0=np.eye(2),
                         y=np.zeros(2), u0=np.zeros(2))
    flow = MomentFlow(problem=iso, m0=np.ones(2), c0=np.eye(2))
    for t in (0.0, 0.3, 1.0, 10.0):
        assert np.max(np.abs(covariance_closed_form(flow, t) - np.eye(2))) \
            <= 1e-12


def test_covariance_long_time_limit():
    for seed in range(5):
        flow = random_flow(seed)
        target = posterior_moments(flow.problem).cov
        got = covariance_closed_form(flow, 50.0)
        assert np.max(np.abs(got - target)) <= 1e-10


def test_covariance_spd_along_the_flow():
    flow = random_flow(7)
    for t in np.linspace(0.0, 6.0, 25):
        w = np.linalg.eigvalsh(covariance_closed_form(flow, float(t)))
        assert w[0] > 0.0


def test_covariance_commuting_scalar_profile():
    # C0 = c * B^{-1} commutes with B: the flow is the scalar profile
    # ((1 - e^{-2t}) + e^{-2t}/c)^{-1} times B^{-1}
    flow0 = random_flow(11)
    b_inv = posterior_moments(flow0.problem).cov
    for c in (0.25, 1.0, 3.0):
        flow = MomentFlow(problem=flow0.problem, m0=flow0.m0, c0=c * b_inv)
        for t in (0.0, 0.4, 1.7):
            decay = np.exp(-2.0 * t)
            scalar = 1.0 / ((1.0 - decay) + decay / c)
            got = covariance_closed_form(flow, t)
            assert np.max(np.abs(got - scalar * b_inv)) <= 1e-10


def test_integrated_covariance_matches_closed_form():
    for seed in range(6):
        flow = random_flow(seed + 100)
        for t in (0.5, 1.0, 2.0):
            ode = integrate_moments(flow, t)
            closed = covariance_closed_form(flow, t)
            assert np.max(np.abs(ode.cov - closed)) <= 1e-6


def test_stationary_mean():
    flow0 = random_flow(23)
    u_star = posterior_moments(flow0.problem).mean
    flow = MomentFlow(problem=flow0.problem, m0=u_star, c0=flow0.c0)
    for t in (0.5, 2.0):
        ode = integrate_moments(flow, t)
        assert np.max(np.abs(ode.mean - u_star)) <= 1e-12


def test_posterior_is_fixed_point():
    flow0 = random_flow(29)
    post = posterior_moments(flow0.problem)
    flow = MomentFlow(problem=flow0.problem, m0=post.mean, c0=post.cov)
    ode = integrate_moments(flow, 1.0)
    assert np.max(np.abs(ode.mean - post.mean)) <= 1e-12
    assert np.max(np.abs(ode.cov - post.cov)) <= 1e-11


def test_moments_long_time_limit():
    # the mean gap decays like e^{-t} (covariance like e^{-2t}), so t = 16
    # leaves roughly 2e-7 of the O(1) initial gap
    flow = random_flow(31)
    post = posterior_moments(flow.problem)
    ode = integrate_moments(flow, 16.0)
    assert np.max(np.abs(ode.mean - post.mean)) <= 1e-6
    assert np.max(np.abs(ode.cov - post.cov)) <= 1e-8


def test_rho_at_matches_full_integration():
    flow = random_flow(37)
    for t in (0.0, 0.7, 2.5):
        fast = rho_at(flow, t)
        full = integrate_moments(flow, t)
        assert np.max(np.abs(fast.mean - full.mean)) <= 1e-6
        assert np.max(np.abs(fast.cov - full.cov)) <= 1e-6
    start = rho_at(flow, 0.0)
    assert np.array_equal(start.mean, flow.m0)
    assert np.max(np.abs(start.cov - flow.c0)) <= 1e-12


@pytest.mark.parametrize("seed", [37, 38])
def test_rho_at_equals_validated_moments_bit_for_bit(seed):
    flow = random_flow(seed)
    for t in np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 23)]):
        rho = rho_at(flow, float(t))
        checked = GaussianMoments(mean=rho.mean, cov=rho.cov)
        assert rho.mean.ndim == 1 and rho.mean.dtype == float
        assert np.array_equal(rho.mean, checked.mean)
        assert np.array_equal(rho.cov, checked.cov)
        assert np.array_equal(rho.mean, advance_mean(flow, flow.m0, 0.0, t))
        assert np.array_equal(rho.cov, covariance_closed_form(flow, t))


def test_advance_mean_incremental_equals_direct():
    flow = random_flow(41)
    direct = advance_mean(flow, flow.m0, 0.0, 2.0)
    m = flow.m0
    for t0, t1 in ((0.0, 0.5), (0.5, 1.25), (1.25, 2.0)):
        m = advance_mean(flow, m, t0, t1)
    assert np.max(np.abs(m - direct)) <= 1e-10


def test_long_horizon_stays_finite():
    # e^{2t} overflows past t ~ 354; the flow map is written in e^{-2t}
    flow = random_flow(43)
    post = posterior_moments(flow.problem)
    rho = rho_at(flow, 400.0)
    assert np.all(np.isfinite(rho.mean)) and np.all(np.isfinite(rho.cov))
    assert np.max(np.abs(rho.mean - post.mean)) <= 1e-12
    assert np.max(np.abs(rho.cov - post.cov)) <= 1e-12
    m = advance_mean(flow, rho_at(flow, 399.0).mean, 399.0, 400.0)
    assert np.all(np.isfinite(m))


def test_richardson_step_halving():
    coarse = default_flow(dt_ode=1e-3)
    fine = default_flow(dt_ode=5e-4)
    a = integrate_moments(coarse, 3.0)
    b = integrate_moments(fine, 3.0)
    assert np.max(np.abs(a.mean - b.mean)) <= 1e-8
    assert np.max(np.abs(a.cov - b.cov)) <= 1e-8


def test_decay_curve_shape():
    flow = default_flow()
    grid = np.linspace(0.0, 5.0, 26)[1:]
    curve = w2_decay_curve(flow, np.concatenate([[0.0], grid]))
    ts = np.array([t for t, _ in curve])
    vals = np.array([v for _, v in curve])
    # first entry is the distance of the initial Gaussian to the posterior
    start = gaussian_w2(GaussianMoments(mean=flow.m0, cov=flow.c0),
                        posterior_moments(flow.problem))
    assert vals[0] == pytest.approx(start, abs=1e-12)
    assert np.all(np.diff(vals) < 0.0)
    # log-linear on t in [1, 5]
    mask = ts >= 1.0
    slope, intercept = np.polyfit(ts[mask], np.log(vals[mask]), 1)
    fitted = slope * ts[mask] + intercept
    resid = np.log(vals[mask]) - fitted
    r2 = 1.0 - resid @ resid / np.sum(
        (np.log(vals[mask]) - np.log(vals[mask]).mean()) ** 2)
    assert slope < -0.5
    assert r2 >= 0.95


def test_decay_curve_grid_validation():
    flow = default_flow()
    with pytest.raises(NonPositive):
        w2_decay_curve(flow, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(NonPositive):
        w2_decay_curve(flow, np.array([-1.0, 1.0]))
