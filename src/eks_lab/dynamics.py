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

  The kernel steps a batch: one Ensemble whose rows are several cells'
  particles, one block after another, with one SdeConfig per cell (h
  shared) and the step's (sum J, L) noise block; one Ensemble with one
  SdeConfig is a batch of one.  It runs in three stages.  Statistics
  (forward evaluation included) run once per run of consecutive equal-J
  cells: stacked_stats on the run's (R, L, J) stack, or empirical_stats
  on a lone cell's (J, L) rows; either is bitwise per cell.  One L x L
  stage serves every cell: the systems and prior pulls, the implicit
  solve and the noise root run as stacked (C, L, L) calls of
  general_solve and spd_sqrt.  The misfit, drift, rhs, apply and noise
  einsums run once per run, over the same stack ("rml,rlj->rmj").

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
particle.  A batch copies each run's columns into a contiguous
(R, L, J) stack, so every cell's slice has the layout of a cell stepped
alone and each einsum sums in the same order (a strided view would not
at J = 1); numpy's stacked eigh, solve and matmul run the 2-D kernel
slice by slice.  A particle's update therefore depends only on its own
column and on its cell's statistics, which are themselves
particle-order-invariant; permuting particles (and their noise) permutes
trajectories bit-for-bit, the input's memory layout does not matter, a
cell's rows are bitwise the same in any batch, and reruns on any thread
count reproduce the same bytes.  Each step returns Ensemble.particles as
the (n, L) view of its (L, n) result, so the next step's transpose costs
nothing.

run() advances one ensemble, or the cells of a sweep in lockstep: every
cell takes step k before any cell takes step k + 1.  The cells share one
clock, so each step's shared work is done once for all of them:

* rho(t_k) from the moment flow, and from it C(t_k) B, u* and
  sqrt(2 h C(t_k)), built by the one reference update below.
* One normal conversion.  A draw table keyed by (seed, J) takes each
  distinct key's Philox words for the step (a block is a pure function
  of (seed, step, J, L), so a key is drawn once however many updates
  read it), converts all of them in one pass in (sum J, L) order, and
  transposes the result once to (L, sum J).  Each update reads its
  keys' columns.  With one key this is the work of one normal_block.
* One Kalman update per mode.  run() keeps each Kalman mode's cells as
  one batch ensemble between steps, stepped by one eks_step or
  eks_gradient_step call per step: one L x L stage for all of them, one
  stack per run of equal J.  Each batch's layout (its cells' rows and
  runs of equal J) is worked out once per run() call and handed to
  every step as the batch's config sequence.
* One reference update.  A coupled run keeps every cell's mean-field
  reference particles as one (sum J, L) ensemble, stepped by one
  mean_field_step call; with shared noise and distinct keys its noise is
  the step's whole normal array.  Per-cell row views serve the coupling
  errors and v_final.

Within a step the Kalman updates run first, then the one reference
update, so a Kalman error in any cell wins over a reference overflow in
the same step.  When a Kalman batch raises, run() replays the step's
Kalman updates one cell at a time, in cell order, and raises what the
first failing cell raises: the error of a loop over the cells, with
"(cell i: J = ..., seed ...)" added to the end of its message when the
run steps several cells.  Cells may mix the two Kalman steps, so the
gradient and the plain sampler can run side by side from one ensemble.
Seeds stay per cell, statistics are bitwise per cell, and every other
operation is per slice, elementwise or per particle, so a cell's numbers
are bitwise those of running it alone.
"""

from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Optional

import numpy as np

from .ensemble import (Ensemble, centered_moments, empirical_stats,
                       stacked_stats)
from .errors import (
    DimensionMismatch,
    Diverged,
    EksError,
    NonFinite,
    NonlinearUnsupported,
    NonPositive,
    SingularImplicitSystem,
    SingularMatrix,
)
from .model import posterior_moments, precision_matrix
from .noise import NoiseSource, derive_seed, to_normals
from .reference import rho_at
from .spd import general_solve, lambda_min, spd_sqrt

__all__ = [
    "SdeConfig",
    "RunResult",
    "sample_gaussian",
    "eks_step",
    "eks_gradient_step",
    "mean_field_step",
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


def _draw(noise, step, n, l):
    # noise is a NoiseSource (anything with normal_block) or the (n, L)
    # block already drawn for this step, which run()'s draw table hands
    # to every update on the same seed
    if isinstance(noise, np.ndarray):
        if noise.shape != (n, l):
            raise DimensionMismatch(
                f"noise block has shape {noise.shape}, step needs {(n, l)}")
        return noise
    return noise.normal_block(step, n, l)


def _check_dim(ens, problem):
    if ens.dim != problem.dim_l:
        raise DimensionMismatch(
            f"ensemble dimension {ens.dim} vs problem dimension "
            f"{problem.dim_l}")


def _finish(ens, out, h, overflowed):
    """Every step's tail: check its (L, n) result once (naming what
    overflowed) and return it as the (n, L) particles one tick later."""
    if not np.isfinite(out).all():
        raise NonFinite(f"step {ens.step}: {overflowed}")
    return Ensemble._unchecked(out.T, ens.time + h, ens.step + 1)


class _Batch(tuple):
    """A batch's SdeConfigs, one per cell in row order, with the layout
    every step of the batch reads, worked out once: the shared h, the
    particle count n, each cell's rows, and each run of consecutive
    equal-J cells as (cells, columns) slices.  run() builds one per batch
    per call and hands it to every step as the batch's config sequence;
    a step handed plain configs builds its own."""

    def __new__(cls, cfgs, sizes=None):
        batch = super().__new__(cls, cfgs)
        if any(c.h != batch[0].h for c in batch):
            raise DimensionMismatch(
                f"batch cells must share h, got {[c.h for c in batch]}")
        if sizes is None:
            sizes = [c.j_particles for c in batch]
        batch.h = batch[0].h if batch else 0.0
        batch.n = sum(sizes)
        batch.rows = [slice(end - j, end)
                      for j, end in zip(sizes, accumulate(sizes))]
        batch.runs = _equal_j_runs(sizes)
        return batch


def _batch_layout(ens, problem, cfg, noise):
    """The _Batch a step runs on, checked before any compute.  One
    SdeConfig is a batch of one, whatever its j_particles; a sequence
    gives one cell per config, the ensemble's rows one cell after
    another."""
    _check_dim(ens, problem)
    if isinstance(cfg, SdeConfig):
        return _Batch([cfg], [ens.j_particles])
    batch = cfg if isinstance(cfg, _Batch) else _Batch(cfg)
    if batch.n != ens.j_particles:
        raise DimensionMismatch(
            f"batch configs hold {batch.n} particles, ensemble has "
            f"{ens.j_particles}")
    if not isinstance(noise, np.ndarray):
        raise DimensionMismatch(
            "a batch takes its step's (sum J, L) noise block, not a "
            "NoiseSource")
    return batch


def _equal_j_runs(sizes):
    """(cells, columns) slices of each run of consecutive equal-J cells."""
    runs, cell, column = [], 0, 0
    for j, group in groupby(sizes):
        r = len(list(group))
        runs.append((slice(cell, cell + r), slice(column, column + r * j)))
        cell, column = cell + r, column + r * j
    return runs


def _stack(a, columns, r):
    # the contiguous (R, rows, J) stack of R equal-J cells' columns of a
    # component-major array: each slice is laid out as the contiguous
    # (rows, J) array a cell alone would use, which keeps every einsum's
    # summation order (a strided view does not at J = 1)
    return np.ascontiguousarray(
        a[:, columns].reshape(a.shape[0], r, -1).transpose(1, 0, 2))


def _unstack(stacks, n):
    """The (L, n) component-major array whose columns are the runs'
    (R, L, J) stacks, one after another; a lone stack of one cell is
    returned as a view."""
    if len(stacks) == 1:
        return stacks[0].transpose(1, 0, 2).reshape(-1, n)
    out = np.empty((stacks[0].shape[1], n))
    end = 0
    for stack in stacks:
        r, l, j = stack.shape
        out[:, end:end + r * j].reshape(l, r, j)[...] = \
            stack.transpose(1, 0, 2)
        end += r * j
    return out


def _kalman_step(ens, problem, cfg, noise, gradient):
    """The one Kalman step both public steps run, on a batch of cells;
    gradient picks how the misfit covectors z_j = gamma^{-1} (G(u_j) - y)
    are pulled back to the drift: through cov_ug, or through
    cov_uu (A^T + grad m(u_j))."""
    batch = _batch_layout(ens, problem, cfg, noise)
    h = batch.h
    if h == 0.0:
        return Ensemble._unchecked(ens.particles, ens.time, ens.step + 1)
    n, l = ens.particles.shape
    xi = _draw(noise, ens.step, n, l).T
    u = np.ascontiguousarray(ens.particles.T)
    runs = []
    for cells, columns in batch.runs:
        u_run = _stack(u, columns, cells.stop - cells.start)
        if len(u_run) > 1:
            s = stacked_stats(u_run, problem)
            runs.append((u_run, s.cov_uu, s.cov_ug, s.forward))
        else:  # a lone cell's statistics stay empirical_stats on its rows
            s = empirical_stats(
                Ensemble._unchecked(u_run[0].T, ens.time, ens.step), problem)
            runs.append((u_run, s.cov_uu[None], s.cov_ug[None],
                         s.forward.T[None]))
    cov_uu = np.concatenate([run[1] for run in runs])
    eye = problem._eye_l
    # one L x L stage for the whole batch.  Not bit-equal to fold the
    # prior pull in as one more column of gamma0^{-1}: that column sums
    # in another order from L = 3 on
    system = eye + h * np.einsum("cab,bd->cad", cov_uu, problem.gamma0_inv)
    prior_pull = h * np.einsum("cab,b->ca", cov_uu, problem._gamma0_inv_u0)
    rhs = []
    for (cells, _), (u_run, run_cov, cov_ug, g) in zip(batch.runs, runs):
        z = np.einsum("km,rkj->rmj", problem.gamma_inv,
                      g - problem.y[:, None])
        if gradient:
            pulled = np.einsum("kl,rkj->rlj", problem.a, z)
            if problem.nonlinear is not None:
                # per cell, like the forward map in the statistics
                for pc, uc, zc in zip(pulled, u_run, z):
                    pc += problem.nonlinear.grad_apply_batch(uc, zc)
            drift = np.einsum("rml,rlj->rmj", run_cov, pulled)
        else:
            drift = np.einsum("rlk,rkj->rlj", cov_ug, z)
        rhs.append(u_run - h * drift + prior_pull[cells, :, None])
    try:
        # one factorization per cell and step: the system matrix is
        # particle independent, so its inverse is applied to every particle
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
    root = spd_sqrt(2.0 * h * cov_uu)
    moved = []
    for (cells, columns), b in zip(batch.runs, rhs):
        run_out = np.einsum("rml,rlj->rmj", solve_matrix[cells], b)
        run_out += np.einsum("rml,rlj->rmj", root[cells],
                             _stack(xi, columns, cells.stop - cells.start))
        moved.append(run_out)
    return _finish(ens, _unstack(moved, n), h,
                   "particles overflowed (stepsize too large?)")


def eks_step(ens, problem, cfg, noise):
    """One ensemble Kalman sampler step (statistics frozen at step start).

    Works for linear and nonlinear forward maps alike: the misfit drift
    uses cov_ug, which only needs G evaluations.  G is evaluated once per
    step, inside the statistics; the misfit reuses those rows.  noise is
    a NoiseSource or the (J, L) standard-normal block already drawn for
    this step.

    cfg may also be a sequence of SdeConfigs sharing h, one per cell of a
    batch: ens then holds the cells' particles one block of rows after
    another (the config's j_particles each), noise must be the step's
    (sum J, L) block, and each cell's rows come back bitwise as stepping
    the cell alone.
    """
    return _kalman_step(ens, problem, cfg, noise, gradient=False)


def eks_gradient_step(ens, problem, cfg, noise):
    """One step of the gradient-based variant: the misfit drift is
    h cov_uu (A^T + grad m(u_j)) gamma^{-1} (G(u_j) - y) per particle;
    prior treatment, noise and batches are as in eks_step."""
    return _kalman_step(ens, problem, cfg, noise, gradient=True)


def mean_field_step(v_ens, rho_moments, problem, cfg, noise):
    """Euler-Maruyama step of the decoupled mean-field particles under the
    Gaussian flow moments at the ensemble's current time.  C(t) B, u* and
    sqrt(2 h C(t)) are built once per call for all particles; noise is a
    NoiseSource or the (J, L) block already drawn for this step.  cfg may
    be a sequence of configs, one per cell, as in eks_step: the cells
    then share the matrices, and each run of equal-J cells is one
    (R, L, J) stack, so a cell's rows are bitwise those of stepping it
    alone."""
    if problem.nonlinear is not None:
        raise NonlinearUnsupported(
            "the mean-field reference requires a linear forward map")
    batch = _batch_layout(v_ens, problem, cfg, noise)
    h = batch.h
    if h == 0.0:
        return Ensemble._unchecked(v_ens.particles, v_ens.time,
                                   v_ens.step + 1)
    n, l = v_ens.particles.shape
    xi = _draw(noise, v_ens.step, n, l).T
    pull = np.einsum("ab,bc->ac", rho_moments.cov, precision_matrix(problem))
    u_star = posterior_moments(problem).mean
    root = spd_sqrt(2.0 * h * rho_moments.cov)
    v = np.ascontiguousarray(v_ens.particles.T)
    moved = []
    for cells, columns in batch.runs:
        r = cells.stop - cells.start
        v_run = _stack(v, columns, r)
        drift = np.einsum("ml,rlj->rmj", pull, v_run - u_star[:, None])
        run_out = v_run - h * drift
        run_out += np.einsum("ml,rlj->rmj", root, _stack(xi, columns, r))
        moved.append(run_out)
    return _finish(v_ens, _unstack(moved, n), h,
                   "reference particles overflowed")


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
        _check_dim(ens, problem)
        if ens.j_particles != cfg.j_particles:
            raise DimensionMismatch(
                f"ensemble has {ens.j_particles} particles, config says "
                f"{cfg.j_particles}")
        if (ens.time, ens.step) != (first_ens.time, first_ens.step):
            raise DimensionMismatch("lockstep cells must share the clock")
        if (cfg.h, cfg.n_steps) != (first_cfg.h, first_cfg.n_steps):
            raise DimensionMismatch("lockstep cells must share h and n_steps")


class _DrawTable:
    """The noise of every step, for a fixed list of (seed, J) keys.

    draw(step) takes each distinct key's Philox words for the step, in
    first-use order, converts all of them to normals in one to_normals
    pass over the stacked (sum J, L) words, and keeps the contiguous
    (L, sum J) transpose.  A key owns one run of its columns, so each
    distinct key is drawn once per step however many updates read it;
    take(columns) hands out the (n, L) view of some columns."""

    def __init__(self, keys, n_components):
        self._sources = {seed: NoiseSource(seed=seed) for seed, _ in keys}
        self._l = n_components
        self._spans = {}
        n = 0
        for key in keys:
            if key not in self._spans:
                self._spans[key] = slice(n, n + key[1])
                n += key[1]

    def columns(self, keys):
        """The columns of several keys' blocks, one after another: a slice
        when they are the table's own runs in order, else an index array."""
        spans = [self._spans[key] for key in keys]
        if all(a.stop == b.start for a, b in zip(spans, spans[1:])):
            return slice(spans[0].start, spans[-1].stop)
        return np.concatenate([np.arange(s.start, s.stop) for s in spans])

    def draw(self, step):
        xi = to_normals([
            self._sources[seed].word_block(step, j, self._l)
            for seed, j in self._spans])
        self._normals = np.ascontiguousarray(xi.T)
        # every update on a key must see the same numbers
        self._normals.flags.writeable = False

    def take(self, columns):
        # the (n, L) view of an (L, n) block: free to transpose back when
        # the block is every column (one key, or a shared-noise reference
        # over distinct keys), else the step's transpose copies it
        return self._normals[:, columns].T


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
    one ensemble) therefore share one draw.  The table converts all of a
    step's words to normals in one pass.  Each Kalman mode's cells step
    as one batch, in one eks_step or eks_gradient_step call per step (one
    statistics pass per run of equal J, one L x L stage for the batch);
    when a batch raises, the step's Kalman updates are replayed one cell
    at a time in cell order, and the first failing cell's error is
    raised; with several cells, an EksError is re-raised as the same
    type with "(cell i: J = ..., seed ...)" at the end of its message,
    which still starts "step N:".  The reference particles of every
    coupled cell step as one ensemble, in one mean_field_step call per
    step, after the Kalman updates: a Kalman error in any cell is raised
    before a reference overflow in the same step.
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
    # each Kalman mode's cells as one batch ensemble, rows in cell order,
    # stepped by one call per step on its cells' columns of the table;
    # every batch's layout is worked out here, once for all steps
    groups = [[i for i in range(n_cells) if kalman[i] == m]
              for m in KALMAN_MODES if m in kalman]
    batches = [initials[g[0]] if len(g) == 1 else Ensemble._unchecked(
        np.concatenate([initials[i].particles for i in g]),
        initials[0].time, initials[0].step) for g in groups]
    batch_cfgs = [_Batch([cfgs[i] for i in g]) for g in groups]
    batch_columns = [draws.columns([u_keys[i] for i in g]) for g in groups]
    place = {i: (b, rows) for b, (g, c) in enumerate(zip(groups, batch_cfgs))
             for i, rows in zip(g, c.rows)}
    if reference:
        # every cell's reference particles as one (sum J, L) ensemble in
        # cell order, whose noise is the table's columns of the v keys
        v = Ensemble._unchecked(
            np.concatenate([ens.particles for ens in initials]),
            initials[0].time, initials[0].step)
        v_cfgs = _Batch(cfgs)
        v_columns = draws.columns(v_keys)

    def u_cell(i):
        b, rows = place[i]
        ens = batches[b]
        if len(groups[b]) == 1:
            return ens
        return Ensemble._unchecked(ens.particles[rows], ens.time, ens.step)

    def v_cell(i):
        return v.particles[v_cfgs.rows[i]]

    def kalman_step(i):
        return eks_step if kalman[i] == "eks" else eks_gradient_step

    diags = [{key: [] for key in ("step", "time", "coupling_error",
                                  "condition", "trace_cov_uu",
                                  "fourth_moment")}
             for _ in range(n_cells)] if record_diagnostics else None

    def record(rho):
        condition = np.nan if rho is None else condition_check(problem, rho)
        for i, diag in enumerate(diags):
            u = u_cell(i)
            diag["step"].append(u.step)
            diag["time"].append(u.time)
            diag["coupling_error"].append(
                _coupling_error(u.particles, v_cell(i))
                if reference else np.nan)
            diag["condition"].append(condition)
            # tr cov_uu is the second centered moment; no L x L pass
            second, fourth = centered_moments(u)
            diag["trace_cov_uu"].append(second)
            diag["fourth_moment"].append(fourth)

    for n in range(n_steps + 1):
        clock = batches[0]
        # rho at the shared clock, once for all cells, where a step or a
        # diagnostic reads it
        wanted = (reference and n < n_steps) or diags is not None
        rho = rho_at(flow, clock.time) if flow is not None and wanted \
            else None
        if diags is not None:
            record(rho)
        if n == n_steps:
            break
        draws.draw(clock.step)
        try:
            stepped = [kalman_step(g[0])(ens, problem, c, draws.take(cols))
                       for ens, g, c, cols in zip(batches, groups,
                                                  batch_cfgs, batch_columns)]
        except Exception:
            # whatever a batch raised (a warning turned error too), the
            # cells are replayed alone from the step's start, in cell
            # order: the first failing cell raises its own error, the one
            # a loop over the cells would raise, naming the cell when
            # there are several
            for i in range(n_cells):
                try:
                    kalman_step(i)(u_cell(i), problem, cfgs[i],
                                   draws.take(draws.columns([u_keys[i]])))
                except EksError as err:
                    if n_cells == 1:
                        raise
                    raise type(err)(
                        f"{err} (cell {i}: J = {cfgs[i].j_particles}, "
                        f"seed {cfgs[i].seed})") from err
            raise
        batches = stepped
        if reference:
            # after every Kalman update, so a Kalman error in any cell
            # wins over a reference overflow in the same step
            v = mean_field_step(v, rho, problem, v_cfgs,
                                draws.take(v_columns))

    results = [RunResult(
        final=u_cell(i),
        v_final=Ensemble._unchecked(v_cell(i), v.time, v.step)
        if reference else None,
        coupling_error=(_coupling_error(u_cell(i).particles, v_cell(i))
                        if reference else None),
        diagnostics=None if diags is None else {
            key: np.asarray(vals) for key, vals in diags[i].items()})
        for i in range(n_cells)]
    return results[0] if single else results
