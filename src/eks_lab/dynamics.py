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
  the two steps coincide identically (cov_ug = cov_uu A^T).  Both run one
  kernel, which reads I_L and gamma0^{-1} u0 from the problem, checks its
  output for finiteness once, and returns it without re-validating the
  Ensemble it builds.

* mean_field_step — Euler-Maruyama for the decoupled reference particles
  v_{n+1} = v_n - h C(t) B (v_n - u_star) + sqrt(2 h C(t)) xi, with C(t)
  supplied by the moment flow.  Drawing xi at the same (step, particle)
  coordinates as eks_step couples the two systems through shared Brownian
  increments.

The steps work component-major: they take the contiguous (L, J)
transpose of the particles (free for a step's own output) and of the
noise block, and every per-particle operation is an einsum that applies a
frozen L x L or L x K step-level matrix to contiguous length-J rows
("ml,lj->mj"), summing over the short axis in a fixed order for each
particle.  A particle's update therefore depends only on its own column
and on statistics that are themselves particle-order-invariant; permuting
particles (and their noise) permutes trajectories bit-for-bit, the input's
memory layout does not matter, and reruns on any thread count reproduce
the same bytes.  Each step returns Ensemble.particles as the (J, L) view
of its (L, J) result, so the next step's transpose costs nothing.

run() advances one ensemble, or the cells of a sweep in lockstep: every
cell takes step k before any cell takes step k + 1.  The cells share one
clock, so what depends only on that clock is computed once per step for
all of them: rho(t_k) from the moment flow and the mean-field drive
(C(t_k) B, u* and sqrt(2 h C(t_k))).  Cells may mix the two Kalman
steps, so the gradient and the plain sampler can run side by side from
one ensemble.  Noise comes from a draw table kept per step and keyed by
(seed, J): since a block is a pure function of (seed, step, J, L), each
distinct key is drawn once and handed to every update that reads it —
the Kalman and the mean-field update of a shared-noise coupled cell, or
two cells on the same seed.  The block is stored component-major, so no
consumer copies it.  Everything else — statistics, implicit solve and
seeds — stays per cell, so a cell's numbers are bitwise those of running
it alone.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import Ensemble, centered_moments, empirical_stats
from .errors import (
    DimensionMismatch,
    Diverged,
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
    "RunResult",
    "MeanFieldDrive",
    "sample_gaussian",
    "eks_step",
    "eks_gradient_step",
    "mean_field_step",
    "mean_field_drive",
    "run",
    "condition_check",
]

RUN_MODES = ("eks", "eks_gradient", "coupled")
KALMAN_MODES = ("eks", "eks_gradient")


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

    def __post_init__(self):
        if not np.isfinite(self.h) or self.h < 0.0 or self.h > 0.5:
            raise NonPositive(f"h must lie in [0, 0.5], got {self.h}")
        if self.n_steps < 0:
            raise NonPositive(f"n_steps must be >= 0, got {self.n_steps}")
        if self.j_particles < 1:
            raise NonPositive(
                f"j_particles must be >= 1, got {self.j_particles}")

    @property
    def t_final(self):
        return self.h * self.n_steps


@dataclass
class RunResult:
    """Final ensemble(s) of a run plus whatever the driver recorded."""

    final: Ensemble
    v_final: Optional[Ensemble] = None
    coupling_error: Optional[float] = None
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


def _draw(noise, step, j, l):
    # noise is a NoiseSource (anything with normal_block) or the (J, L)
    # block already drawn for this step, which run()'s draw table hands
    # to every update on the same seed; either way it comes back as its
    # contiguous (L, J) transpose, free for a table block
    if isinstance(noise, np.ndarray):
        if noise.shape != (j, l):
            raise DimensionMismatch(
                f"noise block has shape {noise.shape}, step needs {(j, l)}")
    else:
        noise = noise.normal_block(step, j, l)
    return np.ascontiguousarray(noise.T)


def _kalman_step(ens, problem, cfg, noise, gradient):
    """The one Kalman step both public steps run; gradient picks how the
    misfit covectors z_j = gamma^{-1} (G(u_j) - y) are pulled back to the
    drift: through cov_ug, or through cov_uu (A^T + grad m(u_j))."""
    if ens.dim != problem.dim_l:
        raise DimensionMismatch(
            f"ensemble dimension {ens.dim} vs problem dimension "
            f"{problem.dim_l}")
    h = cfg.h
    if h == 0.0:
        return Ensemble._unchecked(ens.particles, ens.time, ens.step + 1)
    stats = empirical_stats(ens, problem)
    j, l = ens.particles.shape
    u = np.ascontiguousarray(ens.particles.T)
    g = np.ascontiguousarray(stats.forward.T)
    z = np.einsum("km,kj->mj", problem.gamma_inv, g - problem.y[:, None])
    if gradient:
        pulled = np.einsum("kl,kj->lj", problem.a, z)
        if problem.nonlinear is not None:
            pulled += problem.nonlinear.grad_apply_batch(u, z)
        drift = np.einsum("ml,lj->mj", stats.cov_uu, pulled)
    else:
        drift = np.einsum("lk,kj->lj", stats.cov_ug, z)
    eye = problem._eye_l
    system = eye + h * np.einsum("ab,bc->ac", stats.cov_uu,
                                 problem.gamma0_inv)
    prior_pull = h * np.einsum("ab,b->a", stats.cov_uu,
                               problem._gamma0_inv_u0)
    rhs = u - h * drift + prior_pull[:, None]
    try:
        # one factorization per step: the system matrix is particle
        # independent, so its inverse is applied to every particle
        solve_matrix = general_solve(system, eye)
    except SingularMatrix as err:
        # I + h cov_uu gamma0^{-1} is never singular in exact arithmetic;
        # it turns numerically singular only once the second term swamps
        # the identity, i.e. once the ensemble has diverged
        growth = float(np.max(np.abs(system - eye)))
        if growth >= 1.0 / np.finfo(float).eps:
            raise Diverged(
                f"step {ens.step}: ensemble diverged, h max|cov_uu "
                f"gamma0^-1| = {growth:.3e} (stepsize too large?)") from None
        raise SingularImplicitSystem(
            f"step {ens.step}: implicit system is singular ({err})") from None
    out = np.einsum("ml,lj->mj", solve_matrix, rhs)
    root = spd_sqrt(2.0 * h * stats.cov_uu)
    out += np.einsum("ml,lj->mj", root, _draw(noise, ens.step, j, l))
    if not np.isfinite(out).all():
        raise NonFinite(
            f"step {ens.step}: particles overflowed (stepsize too large?)")
    return Ensemble._unchecked(out.T, ens.time + h, ens.step + 1)


def eks_step(ens, problem, cfg, noise):
    """One ensemble Kalman sampler step (statistics frozen at step start).

    Works for linear and nonlinear forward maps alike: the misfit drift
    uses cov_ug, which only needs G evaluations.  G is evaluated once per
    step, inside empirical_stats; the misfit reuses those rows.  noise is
    a NoiseSource or the (J, L) standard-normal block already drawn for
    this step.
    """
    return _kalman_step(ens, problem, cfg, noise, gradient=False)


def eks_gradient_step(ens, problem, cfg, noise):
    """One step of the gradient-based variant: the misfit drift is
    h cov_uu (A^T + grad m(u_j)) gamma^{-1} (G(u_j) - y) per particle;
    prior treatment and noise are identical to eks_step."""
    return _kalman_step(ens, problem, cfg, noise, gradient=True)


@dataclass(frozen=True)
class MeanFieldDrive:
    """The clock-only part of a mean-field step at one time t: the drift
    matrix C(t) B, the posterior mean u*, and the noise root
    sqrt(2 h C(t)) for one stepsize h.  Every ensemble stepped from time
    t with that h shares it."""

    pull: np.ndarray
    u_star: np.ndarray
    root: np.ndarray


def mean_field_drive(rho_moments, problem, cfg):
    """The MeanFieldDrive of the flow moments rho(t) under cfg's h, built
    once for any number of steps taken from time t."""
    return MeanFieldDrive(
        pull=np.einsum("ab,bc->ac", rho_moments.cov,
                       precision_matrix(problem)),
        u_star=posterior_moments(problem).mean,
        root=spd_sqrt(2.0 * cfg.h * rho_moments.cov))


def mean_field_step(v_ens, rho_moments, problem, cfg, noise):
    """Euler-Maruyama step of the decoupled mean-field particles, using the
    Gaussian flow moments at the ensemble's current time.

    rho_moments may also be the MeanFieldDrive built from those moments,
    so that ensembles on one clock share the step's L x L work; noise is
    a NoiseSource or the (J, L) block already drawn for this step."""
    if problem.nonlinear is not None:
        raise NonlinearUnsupported(
            "the mean-field reference requires a linear forward map")
    if v_ens.dim != problem.dim_l:
        raise DimensionMismatch(
            f"ensemble dimension {v_ens.dim} vs problem dimension "
            f"{problem.dim_l}")
    h = cfg.h
    if h == 0.0:
        return Ensemble._unchecked(v_ens.particles, v_ens.time,
                                   v_ens.step + 1)
    drive = rho_moments if isinstance(rho_moments, MeanFieldDrive) \
        else mean_field_drive(rho_moments, problem, cfg)
    j, l = v_ens.particles.shape
    v = np.ascontiguousarray(v_ens.particles.T)
    drift = np.einsum("ml,lj->mj", drive.pull, v - drive.u_star[:, None])
    out = v - h * drift
    out += np.einsum("ml,lj->mj", drive.root, _draw(noise, v_ens.step, j, l))
    if not np.isfinite(out).all():
        raise NonFinite(
            f"step {v_ens.step}: reference particles overflowed")
    return Ensemble._unchecked(out.T, v_ens.time + h, v_ens.step + 1)


def condition_check(problem, rho_moments):
    """Spectral diagnostic lambda_min(B) * lambda_min(C(t)); values above 1
    indicate the contractive regime.  Logged only — the dynamics run
    regardless."""
    return problem._precision_lambda_min * lambda_min(rho_moments.cov)


def _coupling_error(u, v):
    # (1/J) sum_j |u_j - v_j|^2, reduced in canonical order like all
    # other particle statistics
    d = u - v
    sq = np.einsum("jl,jl->j", d, d)
    return float(np.sum(np.sort(sq)) / sq.shape[0])


def _cell_modes(mode, n_cells, flow):
    """The Kalman mode of each cell and whether the cells carry mean-field
    reference particles."""
    if not isinstance(mode, (list, tuple)):
        if mode not in RUN_MODES:
            raise ValueError(
                f"mode must be one of {RUN_MODES}, got {mode!r}")
        reference = mode == "coupled"
        if reference and flow is None:
            raise ValueError(f"mode {mode!r} requires a MomentFlow")
        return ["eks" if reference else mode] * n_cells, reference
    if len(mode) != n_cells or not all(
            isinstance(m, str) and m in KALMAN_MODES for m in mode):
        raise ValueError(
            f"a mode sequence needs one of {KALMAN_MODES} per cell, got "
            f"{mode!r} for {n_cells} cells")
    return list(mode), False


def _check_cells(initials, cfgs, problem):
    if not initials or len(initials) != len(cfgs):
        raise DimensionMismatch(
            f"need one config per ensemble, got {len(cfgs)} configs for "
            f"{len(initials)} ensembles")
    first_ens, first_cfg = initials[0], cfgs[0]
    for ens, cfg in zip(initials, cfgs):
        if ens.dim != problem.dim_l:
            raise DimensionMismatch(
                f"ensemble dimension {ens.dim} vs problem dimension "
                f"{problem.dim_l}")
        if ens.j_particles != cfg.j_particles:
            raise DimensionMismatch(
                f"ensemble has {ens.j_particles} particles, config says "
                f"{cfg.j_particles}")
        if (ens.time, ens.step) != (first_ens.time, first_ens.step):
            raise DimensionMismatch("lockstep cells must share the clock")
        if (cfg.h, cfg.n_steps) != (first_cfg.h, first_cfg.n_steps):
            raise DimensionMismatch("lockstep cells must share h and n_steps")


class _DrawTable:
    """The noise blocks of one step, keyed by (seed, J).  A block is drawn
    on its first use and handed to every later update that reads that
    key, so each distinct key is drawn once per step; start() drops the
    previous step's blocks."""

    def __init__(self, keys, n_components):
        self._sources = {seed: NoiseSource(seed=seed) for seed, _ in keys}
        self._l = n_components
        self._blocks = {}

    def start(self, step):
        self._step = step
        self._blocks.clear()

    def take(self, key):
        block = self._blocks.get(key)
        if block is None:
            seed, j = key
            xi = self._sources[seed].normal_block(self._step, j, self._l)
            # the (J, L) view of a C-contiguous (L, J) array: every
            # step's component-major transpose of it is free
            block = np.ascontiguousarray(xi.T).T
            # every update on this key must see the same numbers
            block.flags.writeable = False
            self._blocks[key] = block
        return block


def run(initial, problem, cfg, mode, flow=None, share_noise=True,
        record_diagnostics=False):
    """Advance an ensemble n_steps times in one of three modes.

    mode:
        "eks"          Algorithm-style Kalman sampler steps.
        "eks_gradient" gradient-based misfit drift.
        "coupled"      eks and mean-field reference particles side by
                       side from the same initial ensemble; with
                       share_noise=True (the default) both systems consume
                       identical Brownian increments, and coupling_error
                       is the final (1/J) sum |u_j - v_j|^2.

    flow is a reference.MomentFlow, needed by "coupled" and read by the
    diagnostics when given; its problem must be the linear problem being
    sampled.  Per-step diagnostics (step, time, coupling_error,
    condition_check, trace of cov_uu, centered fourth moment) are
    recorded when requested; their coupling_error is the per-step series
    of a coupled run, NaN otherwise.

    initial and cfg may also be equal-length sequences: the ensembles of
    a sweep's cells on one clock, and one config per cell with a shared
    h and n_steps (J and seed are the cell's own).  The cells
    then step in lockstep and a list of RunResults comes back, cell i's
    bitwise equal to run(initial[i], problem, cfg[i], ...).  mode may then
    also be a list or tuple of one Kalman mode ("eks" or "eks_gradient")
    per cell, so that the two samplers step side by side.

    Every update of a step takes its noise from one draw table keyed by
    (seed, J): the Kalman update reads the cell's seed, the mean-field
    update the same seed with share_noise and a derived one without, and
    each distinct key is drawn once per step however many updates read
    it.  Cells that share a seed and a size (a sampler pair started from
    one ensemble) therefore share one draw.
    """
    single = isinstance(initial, Ensemble)
    initials = [initial] if single else list(initial)
    cfgs = [cfg] if single else list(cfg)
    kalman, reference = _cell_modes(mode, len(initials), flow)
    _check_cells(initials, cfgs, problem)
    n_cells = len(initials)
    n_steps = cfgs[0].n_steps

    u_keys = [(c.seed, c.j_particles) for c in cfgs]
    v_keys = u_keys if share_noise else [
        (derive_seed(c.seed, "independent-reference"), c.j_particles)
        for c in cfgs]
    draws = _DrawTable(u_keys + (v_keys if reference else []),
                       problem.dim_l)
    us = list(initials)
    vs = list(initials) if reference else None

    diags = [{key: [] for key in ("step", "time", "coupling_error",
                                  "condition", "trace_cov_uu",
                                  "fourth_moment")}
             for _ in range(n_cells)] if record_diagnostics else None

    def record(rho):
        condition = np.nan if rho is None else condition_check(problem, rho)
        for i, diag in enumerate(diags):
            diag["step"].append(us[i].step)
            diag["time"].append(us[i].time)
            diag["coupling_error"].append(
                _coupling_error(us[i].particles, vs[i].particles)
                if reference else np.nan)
            diag["condition"].append(condition)
            # tr cov_uu is the second centered moment; no L x L pass
            second, fourth = centered_moments(us[i])
            diag["trace_cov_uu"].append(second)
            diag["fourth_moment"].append(fourth)

    for n in range(n_steps + 1):
        # rho at the shared clock, once for all cells, where a step or a
        # diagnostic reads it
        wanted = (reference and n < n_steps) or diags is not None
        rho = rho_at(flow, us[0].time) if flow is not None and wanted \
            else None
        if diags is not None:
            record(rho)
        if n == n_steps:
            break
        drive = mean_field_drive(rho, problem, cfgs[0]) if reference \
            else None
        draws.start(us[0].step)
        for i in range(n_cells):
            step = eks_step if kalman[i] == "eks" else eks_gradient_step
            us[i] = step(us[i], problem, cfgs[i], draws.take(u_keys[i]))
            if reference:
                vs[i] = mean_field_step(vs[i], drive, problem, cfgs[i],
                                        draws.take(v_keys[i]))

    results = [RunResult(
        final=us[i],
        v_final=vs[i] if reference else None,
        coupling_error=(_coupling_error(us[i].particles, vs[i].particles)
                        if reference else None),
        diagnostics=None if diags is None else {
            key: np.asarray(vals) for key, vals in diags[i].items()})
        for i in range(n_cells)]
    return results[0] if single else results
