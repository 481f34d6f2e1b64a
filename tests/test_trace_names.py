"""Guard for the names the benchmark's tracer wraps.

benchmarks/tracing.py times the hot path from outside the package: it
replaces each public function of the layer modules wherever an eks_lab
module binds its name, and every workload is expected to reach
dynamics.eks_step, ensemble.empirical_stats, spd.spd_sqrt and
spd.general_solve (plus eks_gradient_step and mean_field_step where the
workload runs them).  Its counters read a step's first argument and the
statistics' ensemble through ens.particles, the latter as one cell's
(J, L) rows.  The default test run does not collect
benchmarks/test_smoke.py, so a refactor that stops reaching one of these
names through its module attribute would otherwise pass.  This test
installs counting shims the same way on a toy three-cell coupled sweep
and a toy demo pair.

It goes when the benchmark reads phase records from inside the step
instead of wrapping public names.
"""

import sys

import numpy as np
import pytest

from eks_lab.dynamics import SdeConfig, run, sample_gaussian
from eks_lab.ensemble import Ensemble
from eks_lab.model import (
    GaussianMoments,
    InverseProblem,
    make_perpendicular_perturbation,
)
from eks_lab.reference import MomentFlow

WRAPPED = ("dynamics.eks_step", "dynamics.eks_gradient_step",
           "dynamics.mean_field_step", "ensemble.empirical_stats",
           "spd.spd_sqrt", "spd.general_solve")


@pytest.fixture
def seen(monkeypatch):
    """Install a counting shim wherever an eks_lab module binds one of
    WRAPPED, as the tracer does; return {name: [first argument, ...]}."""
    seen = {name: [] for name in WRAPPED}
    for name in WRAPPED:
        layer, attr = name.split(".")
        original = getattr(sys.modules[f"eks_lab.{layer}"], attr)

        def shim(*args, _name=name, _fn=original, **kwargs):
            seen[_name].append(args[0])
            return _fn(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "eks_lab":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, shim)
    return seen


def starts(sizes, l=2):
    moments = GaussianMoments(mean=np.ones(l), cov=np.eye(l))
    return [sample_gaussian(moments, j, seed) for seed, j in enumerate(sizes)]


def test_a_coupled_sweep_and_a_demo_pair_reach_every_wrapped_name(seen):
    problem = InverseProblem(a=[[1.0, 0.0], [0.0, 2.0]], gamma=np.eye(2),
                             gamma0=np.eye(2), y=[1.0, 1.0], u0=[0.0, 0.0])
    flow = MomentFlow(problem=problem, m0=np.ones(2), c0=np.eye(2))
    sizes = [8, 16, 16]
    cfgs = [SdeConfig(h=0.05, n_steps=3, j_particles=j, seed=10 + i)
            for i, j in enumerate(sizes)]
    run(starts(sizes), problem, cfgs, "coupled", flow=flow)

    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    gamma = np.diag([1.0, 2.0, 0.5])
    perturbed = InverseProblem(
        a=a, gamma=gamma, gamma0=np.eye(2), y=[1.0, 1.0, 1.5],
        u0=[0.0, 0.0], nonlinear=make_perpendicular_perturbation(
            a, gamma, seed_direction=[0.0, 0.0, 1.0],
            frequency=[0.7, -0.4], amplitude=2.0))
    [pair_start] = starts([12])
    pair_cfg = SdeConfig(h=0.05, n_steps=3, j_particles=12, seed=7)
    run([pair_start, pair_start], perturbed, [pair_cfg, pair_cfg],
        ["eks_gradient", "eks"])

    for name in WRAPPED:
        assert seen[name], f"{name} was not reached through its module"
    for name in WRAPPED[:3]:
        assert all(isinstance(ens, Ensemble) for ens in seen[name]), name
    # the statistics see one cell's rows at a time
    cells = {ens.particles.shape for ens in seen["ensemble.empirical_stats"]}
    assert cells == {(8, 2), (16, 2), (12, 2)}
