"""Interacting particle dynamics.

Three evolutions share one discretization skeleton:

* eks_step — the ensemble Kalman sampler.  With statistics frozen at the
  start of the step, the data misfit and the prior both act through the
  empirical covariances; the prior part is treated semi-implicitly,

      (I + h cov_uu gamma0^{-1}) u*_{n+1}
          = u_n - h cov_ug gamma^{-1} (G(u_n) - y) + h cov_uu gamma0^{-1} u0,

  followed by additive noise u_{n+1} = u*_{n+1} + sqrt(2 h cov_uu) xi.
  The implicit matrix is particle-independent: one LU factorization per
  step serves all J particles.

* eks_gradient_step — same implicit prior treatment and noise, but the
  misfit drift uses the forward derivative per particle,
  h cov_uu (A^T + grad m(u_j)) gamma^{-1} (G(u_j) - y).  For linear maps
  the two steps coincide identically (cov_ug = cov_uu A^T).

* mean_field_step — Euler-Maruyama for the decoupled reference particles
  v_{n+1} = v_n - h C(t) B (v_n - u_star) + sqrt(2 h C(t)) xi, with C(t)
  supplied by the moment flow.  Drawing xi at the same (step, particle)
  coordinates as eks_step couples the two systems through shared Brownian
  increments.

Every per-particle operation is an einsum over frozen step-level matrices,
so a particle's update depends only on its own row and on statistics that
are themselves particle-order-invariant; permuting particles (and their
noise) permutes trajectories bit-for-bit, and reruns on any thread count
reproduce the same bytes.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import Ensemble, centered_moment, empirical_stats
from .errors import (
    DimensionMismatch,
    NonFinite,
    NonlinearUnsupported,
    NonPositive,
    SingularImplicitSystem,
    SingularMatrix,
)
from .model import posterior_moments, precision_matrix
from .noise import NoiseSource, derive_seed
from .reference import rho_at
from .spd import general_solve, lambda_min, spd_sqrt

__all__ = [
    "SdeConfig",
    "CoupledState",
    "RunResult",
    "sample_gaussian",
    "eks_step",
    "eks_gradient_step",
    "mean_field_step",
    "run",
    "condition_check",
]

RUN_MODES = ("eks", "eks_gradient", "mean_field", "coupled")


@dataclass(frozen=True)
class SdeConfig:
    """Stepsize, horizon, ensemble size, and noise seed of one run.

    h = 0 is allowed (a zero step is the identity on particles, handy for
    invariance checks); h is capped at 0.5 to keep the implicit solve far
    from degeneracy.  h * n_steps is the stopping time T.
    """

    h: float
    n_steps: int
    j_particles: int
    seed: int
    sqrt_tol: float = 1e-12

    def __post_init__(self):
        if not np.isfinite(self.h) or self.h < 0.0 or self.h > 0.5:
            raise NonPositive(f"h must lie in [0, 0.5], got {self.h}")
        if self.n_steps < 0:
            raise NonPositive(f"n_steps must be >= 0, got {self.n_steps}")
        if self.j_particles < 1:
            raise NonPositive(
                f"j_particles must be >= 1, got {self.j_particles}")
        if not (self.sqrt_tol > 0.0):
            raise NonPositive(f"sqrt_tol must be > 0, got {self.sqrt_tol}")

    @property
    def t_final(self):
        return self.h * self.n_steps


@dataclass(frozen=True)
class CoupledState:
    """The particle system and its mean-field twin, advanced in lockstep."""

    u_ens: Ensemble
    v_ens: Ensemble
    shared_noise: bool = True

    def __post_init__(self):
        if self.u_ens.particles.shape != self.v_ens.particles.shape:
            raise DimensionMismatch("coupled ensembles must share (J, L)")
        if self.u_ens.step != self.v_ens.step:
            raise DimensionMismatch("coupled ensembles must share the clock")


@dataclass
class RunResult:
    """Final ensemble(s) of a run plus whatever the driver recorded."""

    final: Ensemble
    v_final: Optional[Ensemble] = None
    coupling_error: Optional[np.ndarray] = None
    diagnostics: Optional[dict] = None


def sample_gaussian(moments, j_particles, seed):
    """Draw an i.i.d. ensemble from a Gaussian at time 0, reproducibly.

    Uses the addressable noise source at step 0, so the draw for particle
    j does not depend on how many particles are requested.
    """
    xi = NoiseSource(seed=seed).normal_block(0, j_particles, moments.dim)
    root = spd_sqrt(moments.cov)
    particles = moments.mean[None, :] + np.einsum("jl,ml->jm", xi, root)
    return Ensemble(particles=particles, time=0.0, step=0)


def _implicit_update(ens, problem, cfg, stats, misfit_drift_rows, noise):
    """Shared tail of the two Kalman steps: semi-implicit prior treatment,
    then covariance-shaped noise."""
    h = cfg.h
    u = ens.particles
    j, l = u.shape
    g0_inv = problem.gamma0_inv
    system = np.eye(l) + h * np.einsum("ab,bc->ac", stats.cov_uu, g0_inv)
    prior_pull = h * np.einsum(
        "ab,b->a", stats.cov_uu, np.einsum("ab,b->a", g0_inv, problem.u0))
    rhs = u - h * misfit_drift_rows + prior_pull[None, :]
    try:
        # one factorization per step: the system matrix is particle
        # independent, so its inverse is applied to every row
        solve_matrix = general_solve(system, np.eye(l))
    except SingularMatrix as err:
        raise SingularImplicitSystem(
            f"step {ens.step}: implicit system is singular ({err})") from None
    u_star = np.einsum("jl,ml->jm", rhs, solve_matrix)
    root = spd_sqrt(2.0 * h * stats.cov_uu, cfg.sqrt_tol)
    xi = noise.normal_block(ens.step, j, l)
    out = u_star + np.einsum("jl,ml->jm", xi, root)
    if not np.all(np.isfinite(out)):
        raise NonFinite(
            f"step {ens.step}: particles overflowed (stepsize too large?)")
    return Ensemble(particles=out, time=ens.time + h, step=ens.step + 1)


def eks_step(ens, problem, cfg, noise):
    """One ensemble Kalman sampler step (statistics frozen at step start).

    Works for linear and nonlinear forward maps alike: the misfit drift
    uses cov_ug, which only needs G evaluations.  G is evaluated once per
    step, inside empirical_stats; the misfit reuses those rows.
    """
    if ens.dim != problem.dim_l:
        raise DimensionMismatch(
            f"ensemble dimension {ens.dim} vs problem dimension {problem.dim_l}")
    if cfg.h == 0.0:
        return Ensemble(particles=ens.particles, time=ens.time,
                        step=ens.step + 1)
    stats = empirical_stats(ens, problem)
    misfit = stats.forward - problem.y[None, :]
    z = np.einsum("jk,km->jm", misfit, problem.gamma_inv)
    drift_rows = np.einsum("jk,lk->jl", z, stats.cov_ug)
    return _implicit_update(ens, problem, cfg, stats, drift_rows, noise)


def eks_gradient_step(ens, problem, cfg, noise):
    """One step of the gradient-based variant: the misfit drift is
    h cov_uu (A^T + grad m(u_j)) gamma^{-1} (G(u_j) - y) per particle;
    prior treatment and noise are identical to eks_step."""
    if ens.dim != problem.dim_l:
        raise DimensionMismatch(
            f"ensemble dimension {ens.dim} vs problem dimension {problem.dim_l}")
    if cfg.h == 0.0:
        return Ensemble(particles=ens.particles, time=ens.time,
                        step=ens.step + 1)
    stats = empirical_stats(ens, problem)
    misfit = stats.forward - problem.y[None, :]
    z = np.einsum("jk,km->jm", misfit, problem.gamma_inv)
    pulled = np.einsum("jk,kl->jl", z, problem.a)
    if problem.nonlinear is not None:
        pulled = pulled + problem.nonlinear.grad_apply_batch(ens.particles, z)
    drift_rows = np.einsum("jl,ml->jm", pulled, stats.cov_uu)
    return _implicit_update(ens, problem, cfg, stats, drift_rows, noise)


def mean_field_step(v_ens, rho_moments, problem, cfg, noise):
    """Euler-Maruyama step of the decoupled mean-field particles, using the
    Gaussian flow moments at the ensemble's current time."""
    if problem.nonlinear is not None:
        raise NonlinearUnsupported(
            "the mean-field reference requires a linear forward map")
    if v_ens.dim != problem.dim_l:
        raise DimensionMismatch(
            f"ensemble dimension {v_ens.dim} vs problem dimension "
            f"{problem.dim_l}")
    h = cfg.h
    if h == 0.0:
        return Ensemble(particles=v_ens.particles, time=v_ens.time,
                        step=v_ens.step + 1)
    v = v_ens.particles
    j, l = v.shape
    u_star = posterior_moments(problem).mean
    b = precision_matrix(problem)
    pull = np.einsum("ab,bc->ac", rho_moments.cov, b)
    drift_rows = np.einsum("jl,ml->jm", v - u_star[None, :], pull)
    root = spd_sqrt(2.0 * h * rho_moments.cov, cfg.sqrt_tol)
    xi = noise.normal_block(v_ens.step, j, l)
    out = v - h * drift_rows + np.einsum("jl,ml->jm", xi, root)
    if not np.all(np.isfinite(out)):
        raise NonFinite(
            f"step {v_ens.step}: reference particles overflowed")
    return Ensemble(particles=out, time=v_ens.time + h, step=v_ens.step + 1)


def condition_check(problem, rho_moments):
    """Spectral diagnostic lambda_min(B) * lambda_min(C(t)); values above 1
    indicate the contractive regime.  Logged only — the dynamics run
    regardless."""
    return lambda_min(precision_matrix(problem)) * lambda_min(rho_moments.cov)


def _coupling_error(u, v):
    # (1/J) sum_j |u_j - v_j|^2, reduced in canonical order like all
    # other particle statistics
    d = u - v
    sq = np.einsum("jl,jl->j", d, d)
    return float(np.sum(np.sort(sq)) / sq.shape[0])


def run(initial, problem, cfg, mode, flow=None, share_noise=True,
        record_diagnostics=False):
    """Advance an ensemble n_steps times in one of four modes.

    mode:
        "eks"          Algorithm-style Kalman sampler steps.
        "eks_gradient" gradient-based misfit drift.
        "mean_field"   decoupled reference particles (needs flow).
        "coupled"      eks and mean_field side by side from the same
                       initial ensemble; with share_noise=True (the
                       default) both systems consume identical Brownian
                       increments, and coupling_error(n) = (1/J) sum
                       |u_j - v_j|^2 is recorded after every step.

    flow is a reference.MomentFlow for the modes that need rho(t); its
    problem must be the linear problem being sampled.  Per-step
    diagnostics (step, time, coupling_error, condition_check, trace of
    cov_uu, centered fourth moment) are recorded when requested.
    """
    if mode not in RUN_MODES:
        raise ValueError(f"mode must be one of {RUN_MODES}, got {mode!r}")
    if initial.dim != problem.dim_l:
        raise DimensionMismatch(
            f"ensemble dimension {initial.dim} vs problem dimension "
            f"{problem.dim_l}")
    if initial.j_particles != cfg.j_particles:
        raise DimensionMismatch(
            f"ensemble has {initial.j_particles} particles, config says "
            f"{cfg.j_particles}")
    if mode in ("mean_field", "coupled") and flow is None:
        raise ValueError(f"mode {mode!r} requires a MomentFlow")

    noise = NoiseSource(seed=cfg.seed)
    v_noise = noise if share_noise else NoiseSource(
        seed=derive_seed(cfg.seed, "independent-reference"))

    u_ens = initial
    v_ens = initial if mode in ("mean_field", "coupled") else None

    coupling = [] if mode == "coupled" else None
    diag = {key: [] for key in ("step", "time", "coupling_error",
                                "condition", "trace_cov_uu",
                                "fourth_moment")} if record_diagnostics \
        else None

    def record():
        # returns rho at the recorded system's clock, which the next step
        # uses, so each time point costs one rho_at
        system = v_ens if mode == "mean_field" else u_ens
        rho = None if flow is None else rho_at(flow, system.time)
        if mode == "coupled":
            coupling.append(_coupling_error(u_ens.particles, v_ens.particles))
        if diag is not None:
            diag["step"].append(system.step)
            diag["time"].append(system.time)
            diag["coupling_error"].append(
                coupling[-1] if mode == "coupled" else np.nan)
            diag["condition"].append(
                np.nan if rho is None else condition_check(problem, rho))
            # tr cov_uu is the second centered moment; no L x L pass
            diag["trace_cov_uu"].append(centered_moment(system, 2))
            diag["fourth_moment"].append(centered_moment(system, 4))
        return rho

    rho = record()

    for _ in range(cfg.n_steps):
        if mode == "eks":
            u_ens = eks_step(u_ens, problem, cfg, noise)
        elif mode == "eks_gradient":
            u_ens = eks_gradient_step(u_ens, problem, cfg, noise)
        elif mode == "mean_field":
            v_ens = mean_field_step(v_ens, rho, problem, cfg, v_noise)
        else:
            u_ens = eks_step(u_ens, problem, cfg, noise)
            v_ens = mean_field_step(v_ens, rho, problem, cfg, v_noise)
        rho = record()

    final = v_ens if mode == "mean_field" else u_ens
    if diag is not None:
        diag = {key: np.asarray(vals) for key, vals in diag.items()}
    return RunResult(
        final=final,
        v_final=v_ens if mode == "coupled" else None,
        coupling_error=np.asarray(coupling) if coupling is not None else None,
        diagnostics=diag,
    )
