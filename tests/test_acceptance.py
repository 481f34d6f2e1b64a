"""Acceptance gate: twelve criteria, each run at its stated tolerance
and wall-clock budget.

Every test prints one [PASS]/[FAIL] line (visible under pytest -s); a
criterion fails loudly rather than being skipped or loosened.  The
shipped configs are criteria 4, 5, 7 and 10-12, one case per
configs/*.json, each run once: its report must pass every band the
config registers, and its body must equal tests/golden/<name>.json
(scripts/refresh_goldens.py writes them), bitwise when this process has
the goldens' environment stamp and within 1e-9 relative when it does
not.  So a change that moves a shipped number, even by rounding, fails
until the goldens are refreshed.  The other criteria call the library
directly.
"""

import importlib.util
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from eks_lab.dynamics import (
    SdeConfig,
    eks_gradient_step,
    eks_step,
    run,
    sample_gaussian,
)
from eks_lab.ensemble import (
    Ensemble,
    affine_span_distance,
    centered_moments,
    empirical_stats,
)
from eks_lab.metrics import empirical_w2_exact, gaussian_w2
from eks_lab.model import (
    GaussianMoments,
    InverseProblem,
    posterior_moments,
)
from eks_lab.noise import NoiseSource, derive_seed
from eks_lab.reference import (
    MomentFlow,
    covariance_closed_form,
    integrate_moments,
    rho_at,
    w2_decay_curve,
)
from eks_lab.studies import default_problem, default_rho0

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
REL_TOL = 1e-9


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


refresh = load_script("refresh_goldens")
report_diff = load_script("report_diff")


class Criterion:
    """Times a criterion body and prints its verdict line."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget_s
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {self.number}: "
              f"{self.label} ({elapsed:.1f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None and elapsed >= self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget_s}s "
                f"budget: {elapsed:.1f}s")
        return False


def random_spd(rng, n, floor):
    q = rng.normal(size=(n, n))
    return q @ q.T + floor * np.eye(n)


def test_criterion_1_moment_flow_closed_form():
    """Closed-form mean and covariance vs raw RK4 of the moment ODEs: max
    entry difference <= 1e-6 on 20 random SPD initial covariances, L <= 4."""
    with Criterion(1, "moment-flow closed form vs RK4", 10.0):
        rng = np.random.default_rng(101)
        for case in range(20):
            l = int(rng.integers(1, 5))
            k = l + int(rng.integers(0, 3))
            problem = InverseProblem(
                a=rng.normal(size=(k, l)),
                gamma=random_spd(rng, k, 0.3),
                gamma0=random_spd(rng, l, 0.3),
                y=rng.normal(size=k), u0=rng.normal(size=l))
            flow = MomentFlow(problem=problem, m0=rng.normal(size=l),
                              c0=random_spd(rng, l, 0.2))
            for t in (0.5, 1.7, 3.0):
                ode = integrate_moments(flow, t)
                closed = covariance_closed_form(flow, t)
                assert np.max(np.abs(ode.cov - closed)) <= 1e-6, \
                    f"case {case}, t={t}"
                mean = rho_at(flow, t).mean
                assert np.max(np.abs(ode.mean - mean)) <= 1e-6, \
                    f"case {case}, t={t}: mean"


def test_criterion_2_long_time_equilibrium():
    """log W2(rho(t), posterior) is linear on t in [1,5] with r^2 >= 0.95,
    and rho at t=50 matches the posterior moments to 1e-8."""
    with Criterion(2, "exponential relaxation to the posterior", 5.0):
        problem = default_problem()
        rho0 = default_rho0()
        flow = MomentFlow(problem=problem, m0=rho0.mean, c0=rho0.cov)
        grid = np.arange(1.0, 5.25, 0.25)
        curve = w2_decay_curve(flow, grid)
        ts = np.array([t for t, _ in curve])
        logs = np.log([w for _, w in curve])
        slope, intercept = np.polyfit(ts, logs, 1)
        pred = slope * ts + intercept
        r2 = 1.0 - np.sum((logs - pred) ** 2) / np.sum(
            (logs - np.mean(logs)) ** 2)
        assert r2 >= 0.95, f"r^2 = {r2:.4f}"

        target = posterior_moments(problem)
        rho = rho_at(flow, 50.0)
        assert np.linalg.norm(rho.mean - target.mean) <= 1e-8
        assert np.linalg.norm(rho.cov - target.cov) <= 1e-8


def test_criterion_3_particle_posterior_consistency():
    """Default problem, J=4000, T=6, h=0.01: ensemble mean within 0.15 of
    u* and covariance within 0.2 (Frobenius) of B^{-1} on every one of
    5 seeds."""
    with Criterion(3, "J=4000 ensemble matches the posterior", 60.0):
        problem = default_problem()
        rho0 = default_rho0()
        target = posterior_moments(problem)
        for s in range(5):
            seed = derive_seed(600 + s, "accept-consistency")
            initial = sample_gaussian(rho0, 4000, derive_seed(seed, "init"))
            cfg = SdeConfig(h=0.01, n_steps=600, j_particles=4000,
                            seed=derive_seed(seed, "run"))
            res = run(initial, problem, cfg, "eks")
            stats = empirical_stats(res.final, problem)
            mean_err = np.linalg.norm(stats.mean_u - target.mean)
            cov_err = np.linalg.norm(stats.cov_uu - target.cov, ord="fro")
            assert mean_err <= 0.15, f"seed {s}: mean error {mean_err:.4f}"
            assert cov_err <= 0.2, f"seed {s}: cov error {cov_err:.4f}"


def test_criterion_6_linear_step_identity():
    """With a linear forward map the two steppers produce the same
    trajectory to 1e-12 over 200 steps, on each of 5 seeds."""
    with Criterion(6, "plain and gradient steppers coincide", 5.0):
        problem = default_problem()
        rho0 = default_rho0()
        cfg = SdeConfig(h=0.01, n_steps=200, j_particles=32, seed=0)
        for s in range(5):
            seed = derive_seed(s, "accept-identity")
            ens_a = sample_gaussian(rho0, 32, seed)
            ens_b = Ensemble(particles=ens_a.particles.copy(),
                             time=0.0, step=0)
            src_a = NoiseSource(seed=derive_seed(seed, "drive"))
            src_b = NoiseSource(seed=derive_seed(seed, "drive"))
            worst = 0.0
            for _ in range(200):
                ens_a = eks_step(ens_a, problem, cfg, src_a)
                ens_b = eks_gradient_step(ens_b, problem, cfg, src_b)
                worst = max(worst, float(np.max(
                    np.abs(ens_a.particles - ens_b.particles))))
            assert worst <= 1e-12, f"seed {s}: max gap {worst:.2e}"


def test_criterion_8_structural_invariants():
    """Degenerate freeze, affine-span confinement, fourth-moment
    boundedness over 50 seeds, permutation equivariance, and rerun
    bit-determinism."""
    with Criterion(8, "structural invariants of the particle update", 30.0):
        problem = default_problem()
        rho0 = default_rho0()

        # degenerate ensemble: drift and noise vanish exactly
        frozen = Ensemble(particles=np.tile([[0.7, -1.2]], (6, 1)),
                          time=0.0, step=0)
        cfg1 = SdeConfig(h=0.1, n_steps=1, j_particles=6, seed=3)
        out = eks_step(frozen, problem, cfg1, NoiseSource(seed=3))
        assert np.array_equal(out.particles, frozen.particles)

        # 100 steps never leave the initial affine span (J=3 in L=5)
        wide = InverseProblem(a=np.eye(5), gamma=np.eye(5),
                              gamma0=np.eye(5), y=np.zeros(5),
                              u0=np.zeros(5))
        rng = np.random.default_rng(8)
        initial = Ensemble(particles=rng.normal(size=(3, 5)),
                           time=0.0, step=0)
        cfg2 = SdeConfig(h=0.02, n_steps=100, j_particles=3, seed=11)
        res = run(initial, wide, cfg2, "eks")
        assert affine_span_distance(res.final, initial) <= 1e-8

        # fourth moments stay bounded across 50 seeds (T=5, J=100)
        cfg3 = SdeConfig(h=0.01, n_steps=500, j_particles=100, seed=0)
        for s in range(50):
            seed = derive_seed(s, "accept-moments")
            ens = sample_gaussian(rho0, 100, seed)
            _, start = centered_moments(ens)
            res = run(ens, problem,
                      SdeConfig(h=0.01, n_steps=500, j_particles=100,
                                seed=derive_seed(seed, "run")), "eks")
            assert centered_moments(res.final)[1] <= 1e3 * (1.0 + start), \
                f"seed {s}"

        # relabeling particles relabels the output, bit for bit
        base = sample_gaussian(rho0, 16, 77)
        perm = np.random.default_rng(5).permutation(16)
        permuted = Ensemble(particles=base.particles[perm],
                            time=0.0, step=0)
        cfg4 = SdeConfig(h=0.05, n_steps=1, j_particles=16, seed=9)

        class PermutedNoise:
            def __init__(self, inner, order):
                self.inner, self.order = inner, order

            def normal_block(self, step, n, m):
                return self.inner.normal_block(step, n, m)[self.order]

        out_base = eks_step(base, problem, cfg4, NoiseSource(seed=9))
        out_perm = eks_step(permuted, problem, cfg4,
                            PermutedNoise(NoiseSource(seed=9), perm))
        assert np.array_equal(out_perm.particles, out_base.particles[perm])

        # identical runs are bit-identical
        outs = []
        for _ in range(2):
            ens = sample_gaussian(rho0, 24, 13)
            res = run(ens, problem,
                      SdeConfig(h=0.05, n_steps=20, j_particles=24,
                                seed=31), "eks")
            outs.append(res.final.particles)
        assert np.array_equal(outs[0], outs[1])


def test_criterion_9_metric_oracles():
    """Assignment W2 equals a full permutation brute force (J <= 6,
    100 instances) and gaussian_w2 matches the 1-D closed form, both
    to 1e-12."""
    with Criterion(9, "transport metrics against brute-force oracles", 10.0):
        rng = np.random.default_rng(909)
        for case in range(100):
            j = int(rng.integers(2, 7))
            l = int(rng.integers(1, 4))
            x = rng.normal(size=(j, l))
            y = rng.normal(size=(j, l))
            best = min(
                float(np.mean(np.sum((x - y[list(p)]) ** 2, axis=1)))
                for p in itertools.permutations(range(j)))
            assert abs(empirical_w2_exact(x, y) - np.sqrt(best)) <= 1e-12, \
                f"case {case}"

        for case in range(100):
            l = int(rng.integers(1, 4))
            m1, m2 = rng.normal(size=l), rng.normal(size=l)
            d1, d2 = rng.uniform(0.1, 3.0, size=l), rng.uniform(0.1, 3.0,
                                                                size=l)
            a = GaussianMoments(mean=m1, cov=np.diag(d1))
            b = GaussianMoments(mean=m2, cov=np.diag(d2))
            coordwise = np.sqrt(np.sum((m1 - m2) ** 2
                                       + (np.sqrt(d1) - np.sqrt(d2)) ** 2))
            assert abs(gaussian_w2(a, b) - coordwise) <= 1e-12, f"case {case}"


# every configs/*.json: the criterion its case checks, and its wall-clock
# budget
SHIPPED = {
    "study_j": (4, "J^{-1/2}-type mean-field rate", 600.0),
    "study_coupling": (5, "J^{-1} coupling rate", 600.0),
    "study_coupling_control": (5, "its negative control, broken coupling",
                               600.0),
    "demo_nonlinear": (7, "gradient variant consistent, plain variant "
                       "biased", 120.0),
    "sample": (10, "J=4000 sample study inside its posterior bands", 60.0),
    "study_time": (11, "particles and reference relax exponentially", 60.0),
    "validate": (12, "the built-in consistency checks", 60.0),
}


@pytest.mark.parametrize("name", refresh.CONFIGS)
def test_shipped_config(name, tmp_path):
    """One run of configs/<name>.json passes every band it registers, and
    its report body is its golden's: every numeric leaf bitwise when the
    environment stamp matches and within 1e-9 relative when it does not,
    every key, list length and non-numeric leaf either way."""
    with Criterion(*SHIPPED[name]):
        body, environment = refresh.fresh_report(name, tmp_path)
        failed = sorted(flag for flag, ok in body["flags"].items() if not ok)
        slopes = {fit: body["fits"][fit]["slope"] for fit in body["fits"]}
        assert not failed, f"{name} fails {failed}; slopes {slopes}"

        golden = json.loads((refresh.GOLDEN / f"{name}.json").read_text())
        stamp = json.loads(
            (refresh.GOLDEN / "environment.json").read_text())
        changed = sorted(key for key in set(environment) | set(stamp)
                         if environment.get(key) != stamp.get(key))
        numeric, structural = [], []
        report_diff.walk(body, golden, "", numeric, structural)
        tol = REL_TOL if changed else 0.0
        moved = [f"{path}: abs {absolute:.3g}, rel {relative:.3g}"
                 for path, absolute, relative in numeric if relative > tol]
        where = (f"the stamp differs in {changed}" if changed
                 else "the environment stamp matches")
        assert not structural, f"{name}: {where}; {structural[:10]}"
        assert not moved, (f"{name}: {len(moved)} numeric leaves moved, "
                           f"{where}; {moved[:10]}")


def test_refresh_pins_no_failing_report(monkeypatch, tmp_path, capsys):
    def fresh_report(name, out_dir):
        ok = name != "study_j"
        return {"passed": ok, "flags": {"slope_j": ok, "other": True}}, {}

    monkeypatch.setattr(refresh, "fresh_report", fresh_report)
    monkeypatch.setattr(refresh, "GOLDEN", tmp_path)
    assert refresh.main() == 1
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == (
        "refresh_goldens.py: failing bands, nothing written: "
        "study_j: slope_j\n")
