"""Layer grid: single kernels timed at fixed (J, L), the grid of the
project's baseline table (eks_step, empirical_stats and normal_block at
L = 2 and J = 64, 1024, 4000; eks_step and empirical_stats at L = 50,
J = 1000; one h = 0.01 advance_mean; exact W2 at J = 1024 and 4000).

Each entry calls one public function on seed-generated inputs until it
has run `min_calls` times and at least `budget_s` seconds, then reports
the median seconds per call.  Inputs are built before the timed calls.
"""

import statistics
import time

import numpy as np

from eks_lab import (GaussianMoments, InverseProblem, MomentFlow,
                     NoiseSource, SdeConfig, advance_mean, default_problem,
                     default_rho0, empirical_stats, empirical_w2_exact,
                     eks_step, sample_gaussian)


def _time_calls(fn, budget_s, min_calls):
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _wide_problem(dim):
    eye = np.eye(dim)
    return InverseProblem(a=eye, gamma=eye, gamma0=eye, y=np.ones(dim),
                          u0=np.zeros(dim))


def _ensemble(problem, j, seed):
    rho = (default_rho0() if problem.dim_l == 2 else
           GaussianMoments(mean=np.zeros(problem.dim_l),
                           cov=np.eye(problem.dim_l)))
    return sample_gaussian(rho, j, seed)


def run_grid(seed, toy=False):
    """{metric name: seconds per call} for every grid entry."""
    budget, min_calls = (0.0, 1) if toy else (0.3, 3)
    out = {}
    kernels = [(2, 64), (2, 1024), (2, 4000), (50, 1000)]
    for dim, j in kernels:
        problem = default_problem() if dim == 2 else _wide_problem(dim)
        ens = _ensemble(problem, j, seed)
        cfg = SdeConfig(h=0.01, n_steps=1, j_particles=j, seed=seed)
        noise = NoiseSource(seed=seed)
        tag = f"J{j}_L{dim}_s"
        out[f"grid.eks_step.{tag}"] = _time_calls(
            lambda: eks_step(ens, problem, cfg, noise), budget, min_calls)
        out[f"grid.empirical_stats.{tag}"] = _time_calls(
            lambda: empirical_stats(ens, problem), budget, min_calls)
        if dim == 2:
            out[f"grid.normal_block.{tag}"] = _time_calls(
                lambda: noise.normal_block(1, j, dim), budget, min_calls)
    rho0 = default_rho0()
    flow = MomentFlow(problem=default_problem(), m0=rho0.mean, c0=rho0.cov)
    out["grid.advance_mean.h0.01_s"] = _time_calls(
        lambda: advance_mean(flow, flow.m0, 0.0, 0.01), budget, min_calls)
    rng = np.random.default_rng([seed, 2])
    for j in (1024, 4000):
        x, y = rng.normal(size=(j, 2)), rng.normal(size=(j, 2))
        # one call at J=4000 already takes seconds
        out[f"grid.empirical_w2_exact.J{j}_s"] = _time_calls(
            lambda: empirical_w2_exact(x, y), 0.0 if j > 1024 else budget,
            1 if j > 1024 or toy else min_calls)
    return out


GRID_METRICS = (
    "grid.eks_step.J64_L2_s", "grid.empirical_stats.J64_L2_s",
    "grid.normal_block.J64_L2_s",
    "grid.eks_step.J1024_L2_s", "grid.empirical_stats.J1024_L2_s",
    "grid.normal_block.J1024_L2_s",
    "grid.eks_step.J4000_L2_s", "grid.empirical_stats.J4000_L2_s",
    "grid.normal_block.J4000_L2_s",
    "grid.eks_step.J1000_L50_s", "grid.empirical_stats.J1000_L50_s",
    "grid.advance_mean.h0.01_s",
    "grid.empirical_w2_exact.J1024_s", "grid.empirical_w2_exact.J4000_s",
)
