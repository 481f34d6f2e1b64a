"""Particle ensembles and their empirical statistics.

Statistics use the 1/J (biased) normalization throughout — the particle
dynamics and their mean-field constants assume it, and 1/(J-1) would
change the flow.

Every reduction over particles runs over the particles in one canonical
order: the lexicographic order of the raw particle rows u_j (np.lexsort),
with G(u_j) gathered alongside.  When the first column has no ties, that
order is the unique permutation that sorts the first column, so any
argsort of it (stable or not, whatever its algorithm) returns exactly that
order; only a tie sends the order to np.lexsort.  One gather writes u and
G in that order as the rows of one C-contiguous (L+K, J) block, whatever
the input's layout; one pivot, mean and centring pass runs along its
length-J rows, and the covariances are fixed-order einsum contractions
of its row slices, O(J L^2), through numpy's C einsum without the
np.einsum wrapper (see _kernels).  einsum's loops are built for the
baseline instruction set (their grouping depends on J and the binaries,
not on run-time CPU features) and use no threads, so the result is bit-stable
across runs and thread counts.  Two particles tie in the key only if they
are the same point, so they carry the same G row and the order among them
cannot change a sum: statistics are bitwise independent of particle order,
and permuting an ensemble permutes its trajectories exactly.  The key must
be the raw rows, not the centered ones — subtracting the mean can round
two distinct points to the same centered row while their G rows still
differ, and then the tie order would leak into cov_ug.  Centering
subtracts the componentwise minimum, an exact pivot, before any
arithmetic, so an ensemble whose particles all coincide produces exactly
zero covariance, not merely a small one — the degenerate-freeze invariant
of the dynamics depends on that exactness.

stacked_stats takes R cells of equal J at once, as the (R, L, J) stack of
their particles' columns.  Each cell is still sorted and gathered on its
own, through the same canonical order and take, into one (R, L+K, J)
block; the forward map is one stacked einsum (apply_forward_stack, the
perturbation per cell), and the pivot, mean, centring and both
covariances run once over the block.  Their loops run along the same
contiguous length-J rows as a cell's own block, so every slice is bitwise
empirical_stats on its cell; empirical_stats is the same pass on a stack
of one.  A block that leaves the cache costs more than the cells one at
a time, so a long run goes through in chunks of whole cells of at most
STATS_STACK_BUDGET entries each (a cell larger than that goes alone).
The budget, 2^15 float64 entries (256 KiB), was measured on a 2-core Xeon
(48 KiB L1d and 2 MiB L2 per core) at L = K = 2 and R = 20: the chunked
pass took 0.2-0.3x the per-cell time at J = 64 and 256, 0.5-0.7x at
J = 1024 and 0.8-0.9x at J = 4000, where one unchunked pass took 1.2-1.6x.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import einsum
from .errors import DimensionMismatch, NonFinite, NonPositive
from .model import apply_forward_batch, apply_forward_stack

__all__ = [
    "Ensemble",
    "EnsembleStats",
    "empirical_stats",
    "stacked_stats",
    "particle_moments",
    "centered_moments",
    "affine_span_distance",
    "save_csv",
    "load_csv",
]


@dataclass(frozen=True)
class Ensemble:
    """J particles in R^L plus the clock of the dynamics."""

    particles: np.ndarray
    time: float = 0.0
    step: int = 0

    def __post_init__(self):
        particles = np.asarray(self.particles, dtype=float)
        if particles.ndim != 2 or particles.shape[0] < 1:
            raise DimensionMismatch(
                f"particles must be (J >= 1, L), got shape {particles.shape}")
        if not np.all(np.isfinite(particles)):
            raise NonFinite("particles contain non-finite entries")
        if not np.isfinite(self.time) or self.time < 0.0:
            raise NonPositive(f"time must be finite and >= 0, got {self.time}")
        if self.step < 0:
            raise NonPositive(f"step must be >= 0, got {self.step}")
        object.__setattr__(self, "particles", particles)

    @classmethod
    def _unchecked(cls, particles, time, step):
        # an ensemble from a dynamics step's own output, which is already
        # a finite float (J, L) array on a valid clock: skips the checks
        ens = object.__new__(cls)
        vars(ens).update(particles=particles, time=time, step=step)
        return ens

    @property
    def j_particles(self):
        return self.particles.shape[0]

    @property
    def dim(self):
        return self.particles.shape[1]


@dataclass(frozen=True)
class EnsembleStats:
    """Empirical mean of u, mean of G(u), and the two covariances
    cov_uu = (1/J) sum (u - mean_u) x (u - mean_u)  and
    cov_ug = (1/J) sum (u - mean_u) x (G(u) - mean_g),
    plus forward, the rows G(u_j) in particle order, so that a step
    evaluates the forward map once."""

    mean_u: np.ndarray
    mean_g: np.ndarray
    cov_uu: np.ndarray
    cov_ug: np.ndarray
    forward: np.ndarray


def _canonical_order(u):
    # lexicographic order of the raw rows, first column as primary key.
    # Without ties in the first column only one permutation sorts it, so
    # the default (unstable, several times faster) argsort returns exactly
    # the lexicographic order; np.lexsort makes L passes and costs about as
    # much as the whole O(J L^2) contraction at L = 32.
    first = u[:, 0]
    order = first.argsort()
    first = first[order]
    if (first[1:] != first[:-1]).all():
        return order
    return np.lexsort(u.T[::-1])


def _mean_rows(rows):
    # rows (n, J), particles in canonical order along axis 1; the pivot
    # is exact, the sum fixed-order along each contiguous row
    pivot = np.minimum.reduce(rows, axis=1)
    return pivot + einsum("lj->l", rows - pivot[:, None]) / rows.shape[1]


# the largest (R, L+K, J) block, in float64 entries, that one statistics
# pass runs over; a longer run of cells goes in chunks under it (see the
# module docstring for its measurement)
STATS_STACK_BUDGET = 1 << 15


def _block_stats(u, g):
    """(mean, cov_uu, cov_ug) of R equal-J cells, one pass over their
    (R, L+K, J) block, from the (R, L, J) stack of their particles'
    columns and the (R, K, J) stack of their forward columns, both in
    particle order; mean stacks mean_u and mean_g."""
    if not np.isfinite(g).all():
        raise NonFinite("forward map produced non-finite values")
    r, l, j = u.shape
    rows = np.empty((r, l + g.shape[1], j))
    for block, u_c, g_c in zip(rows, u, g):
        # every row reduces exactly as if gathered alone; order is a
        # permutation, so "clip" never clips ("raise" would buffer the copy)
        order = _canonical_order(u_c.T)
        u_c.take(order, axis=1, out=block[:l], mode="clip")
        g_c.take(order, axis=1, out=block[l:], mode="clip")
    mean = _mean_rows(rows.reshape(-1, j)).reshape(r, -1)
    rows -= mean[:, :, None]
    # one contraction of the u rows against all L+K rows: [cov_uu | cov_ug]
    cov = einsum("rlj,rmj->rlm", rows[:, :l], rows) / j
    return mean, cov[:, :, :l], cov[:, :, l:]


def empirical_stats(ens, problem):
    """Empirical means and covariances of an ensemble under a problem's
    forward map, 1/J normalization.

    cov_uu is PSD with rank at most min(L, J-1); for all-identical
    particles both covariances are exactly zero.
    """
    u = ens.particles
    g = apply_forward_batch(problem, u)
    mean, cov_uu, cov_ug = _block_stats(u.T[None], g.T[None])
    l = u.shape[1]
    return EnsembleStats(mean_u=mean[0, :l], mean_g=mean[0, l:],
                         cov_uu=cov_uu[0], cov_ug=cov_ug[0], forward=g)


def stacked_stats(u_stack, problem):
    """empirical_stats of R cells of equal J at once, from the (R, L, J)
    stack of their particles' columns (cell c's particle j is the column
    u_stack[c, :, j]).  Every field carries a leading R axis, and forward
    is the (R, K, J) stack of G(u_j) columns in particle order; slice c is
    bitwise empirical_stats on cell c's (J, L) rows, with forward
    transposed."""
    u_stack = np.asarray(u_stack, dtype=float)
    if u_stack.ndim != 3 or not u_stack.shape[0] or not u_stack.shape[2]:
        raise DimensionMismatch(
            f"stack must have shape (R >= 1, L, J >= 1), got "
            f"{u_stack.shape}")
    g = apply_forward_stack(problem, u_stack)
    r, l, j = u_stack.shape
    chunk = max(1, STATS_STACK_BUDGET // ((l + g.shape[1]) * j))
    parts = [_block_stats(u_stack[c:c + chunk], g[c:c + chunk])
             for c in range(0, r, chunk)]
    mean, cov_uu, cov_ug = parts[0] if len(parts) == 1 else (
        np.concatenate(field) for field in zip(*parts))
    return EnsembleStats(mean_u=mean[:, :l], mean_g=mean[:, l:],
                         cov_uu=cov_uu, cov_ug=cov_ug, forward=g)


def particle_moments(ens):
    """(mean_u, cov_uu) of empirical_stats, bit for bit, without
    evaluating the forward map: its reduction over no forward rows."""
    u = ens.particles
    mean, cov_uu, _ = _block_stats(u.T[None], np.empty((1, 0, len(u))))
    return mean[0], cov_uu[0]


def centered_moments(ens):
    """The second and fourth centered moments (1/J) sum_j |u_j - mean|^p,
    p = 2 and 4, from one canonical ordering; the second is tr cov_uu."""
    us = np.take(ens.particles.T, _canonical_order(ens.particles), axis=1)
    cu = us - _mean_rows(us)[:, None]
    sq = einsum("lj,lj->j", cu, cu)
    j = us.shape[1]
    return (float(einsum("j->", sq) / j),
            float(einsum("j->", sq ** 2) / j))


def affine_span_distance(ens, reference):
    """Largest distance from a particle of ens to the affine span of the
    reference ensemble's particles (least squares on the centered basis)."""
    if ens.dim != reference.dim:
        raise DimensionMismatch(
            f"dimension mismatch: {ens.dim} vs {reference.dim}")
    ref = reference.particles
    ref_mean = _mean_rows(np.take(ref.T, _canonical_order(ref), axis=1))
    basis = ref.T - ref_mean[:, None]
    rhs = ens.particles.T - ref_mean[:, None]
    coef, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    residual = rhs - basis @ coef
    dists = np.sqrt(einsum("lj,lj->j", residual, residual))
    return float(np.max(dists))


def save_csv(ens, path):
    """Write one row per particle; header comments carry time and step.

    The %.17g format round-trips float64 exactly, so save/load is lossless
    and same-seed runs produce byte-identical files.  The bytes are
    np.savetxt's with fmt="%.17g", delimiter="," and the header below,
    written in one format call instead of savetxt's loop over rows.
    """
    j, l = ens.particles.shape
    names = ",".join(f"u{i}" for i in range(l))
    row = ",".join(["%.17g"] * l) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# time={ens.time:.17g} step={ens.step}\n# {names}\n")
        fh.write((row * j) % tuple(ens.particles.ravel().tolist()))


def load_csv(path):
    """Read an ensemble written by save_csv."""
    with open(path) as fh:
        first = fh.readline().strip()
    if not first.startswith("# time="):
        raise DimensionMismatch(f"{path} does not look like an ensemble CSV")
    fields = dict(item.split("=") for item in first[2:].split())
    particles = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return Ensemble(particles=particles, time=float(fields["time"]),
                    step=int(fields["step"]))
