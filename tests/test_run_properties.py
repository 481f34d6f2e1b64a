"""Property test of the run driver over the edges of its input space.

Whatever the ensemble size, dimension, conditioning of the observation
noise, stepsize, initial spread and mode, run() either returns finite
particles (and a finite coupling error when coupled) or raises a named
EksError.  Warnings are errors here, so a numpy overflow or invalid-value
warning on the way counts as an escape.

Each drawn case also runs as a batch of three lockstep cells: the drawn
cell plus two cells of one other J and their own seeds.  Every cell's
RunResult must be bitwise that of run() on the cell alone, and when a
cell alone raises, the batch must raise what the first failing cell
raises.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eks_lab.dynamics import SdeConfig, run
from eks_lab.ensemble import Ensemble
from eks_lab.errors import EksError
from eks_lab.model import InverseProblem
from eks_lab.reference import MomentFlow


def conditioned_spd(rng, n, condition):
    """An SPD matrix with eigenvalues log-spaced from 1 to 1/condition,
    in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0.0, -np.log10(condition), n)) @ q.T


@st.composite
def run_cases(draw):
    l = draw(st.sampled_from([1, 2, 3, 8, 32]))
    j = draw(st.sampled_from([1, 2, 3, l, 64]))
    return dict(
        l=l, j=j,
        condition=10.0 ** draw(st.floats(0.0, 15.0)),
        h=10.0 ** draw(st.floats(-6.0, np.log10(0.5))),
        spread=draw(st.sampled_from([0.0, 1e-12, 1.0])),
        mode=draw(st.sampled_from(["eks", "eks_gradient", "coupled"])),
        n_steps=draw(st.sampled_from([1, 4, 20])),
        seed=draw(st.integers(0, 2**32 - 1)),
        # drawn last, so the draws before it are those of the single cell
        other_j=draw(st.sampled_from(
            [x for x in (1, 2, 3, l, 64) if x != j])))


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=run_cases())
# B dwarfs C0^{-1}, and the generalized eigensolver puts an eigenvalue of
# the mean flow just below -1
@example(case=dict(l=32, j=2, other_j=1, condition=726391533535344.6,
                   h=3.224702074394596e-05, spread=1e-12, mode="coupled",
                   n_steps=4, seed=101))
def test_run_returns_finite_particles_or_a_named_error(case):
    l, j = case["l"], case["j"]
    rng = np.random.default_rng(case["seed"])
    try:
        problem = InverseProblem(
            a=rng.standard_normal((l, l)),
            gamma=conditioned_spd(rng, l, case["condition"]),
            gamma0=np.eye(l), y=rng.standard_normal(l), u0=np.zeros(l))
        initial = Ensemble(particles=1.0 + case["spread"]
                           * rng.standard_normal((j, l)))
        flow = MomentFlow(problem=problem, m0=np.ones(l), c0=np.eye(l))
        cfg = SdeConfig(h=case["h"], n_steps=case["n_steps"], j_particles=j,
                        seed=case["seed"])
    except EksError:
        return
    others = [(Ensemble(particles=1.0 + case["spread"] * rng.standard_normal(
        (case["other_j"], l))), replace(cfg, j_particles=case["other_j"],
                                        seed=(case["seed"] + k) % 2**32))
        for k in (1, 2)]
    check_batch_against_cells([(initial, cfg)] + others, problem,
                              case["mode"], flow)
    try:
        res = run(initial, problem, cfg, case["mode"], flow=flow)
    except EksError:
        return
    assert res.final.particles.shape == (j, l)
    assert np.all(np.isfinite(res.final.particles))
    if case["mode"] == "coupled":
        assert np.all(np.isfinite(res.v_final.particles))
        assert np.isfinite(res.coupling_error)
    else:
        assert res.coupling_error is None


def alone(initial, problem, cfg, mode, flow):
    """run() on one cell: its RunResult, or the error it raises with the
    step of the error and whether it came from the reference update."""
    try:
        return run(initial, problem, cfg, mode, flow=flow)
    except Exception as err:
        # the failing step is the first prefix of the run that raises
        for n in range(1, cfg.n_steps + 1):
            try:
                run(initial, problem, replace(cfg, n_steps=n), mode,
                    flow=flow)
            except Exception:
                break
        # a reference overflow comes after every cell's Kalman update
        return err, n, "reference particles overflowed" in str(err)


def check_batch_against_cells(cells, problem, mode, flow):
    outcomes = [alone(ens, problem, cfg, mode, flow) for ens, cfg in cells]
    errors = [(o[1], o[2], i) for i, o in enumerate(outcomes)
              if isinstance(o, tuple)]
    initials, cfgs = zip(*cells)
    if errors:
        first = outcomes[min(errors)[2]][0]
        with pytest.raises(type(first)) as raised:
            run(list(initials), problem, list(cfgs), mode, flow=flow)
        assert str(raised.value) == str(first)
        return
    batch = run(list(initials), problem, list(cfgs), mode, flow=flow)
    for got, want in zip(batch, outcomes):
        assert np.array_equal(got.final.particles, want.final.particles)
        assert (got.final.time, got.final.step) == (want.final.time,
                                                    want.final.step)
        if mode == "coupled":
            assert np.array_equal(got.v_final.particles,
                                  want.v_final.particles)
            assert got.coupling_error == want.coupling_error
