"""Particle ensembles and their empirical statistics.

Statistics use the 1/J (biased) normalization throughout — the particle
dynamics and their mean-field constants assume it, and 1/(J-1) would
change the flow.

Every reduction over particles runs over the particles in one canonical
order: the lexicographic order of the raw particle rows u_j (np.lexsort),
with G(u_j) gathered alongside.  When the first column has no ties, that
order is the unique permutation that sorts the first column, so any
argsort of it (stable or not, whatever its algorithm) returns exactly that
order; only a tie sends the order to np.lexsort.  The gather writes the
component-major (L, J) transposes of u and G in that order, C-contiguous
whatever the input's layout; means and covariances are fixed-order
np.einsum contractions along those length-J rows, O(J L^2) for the
covariances.  einsum's loops are built for the baseline instruction set
(their grouping depends on J and the binaries, not on run-time CPU
features) and use no threads, so the result is bit-stable across runs and
thread counts.  Two particles tie in the key only if they are the same
point, so they carry the same G row and the order among them cannot change
a sum: statistics are bitwise independent of particle order, and permuting
an ensemble permutes its trajectories exactly.  The key must be the raw
rows, not the centered ones — subtracting the mean can round two distinct
points to the same centered row while their G rows still differ, and then
the tie order would leak into cov_ug.  Centering subtracts the
componentwise minimum, an exact pivot, before any arithmetic, so an
ensemble whose particles all coincide produces exactly zero covariance,
not merely a small one — the degenerate-freeze invariant of the dynamics
depends on that exactness.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonPositive
from .model import apply_forward_batch

__all__ = [
    "Ensemble",
    "EnsembleStats",
    "empirical_stats",
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
    order = np.argsort(first)
    first = np.take(first, order)
    if np.all(first[1:] != first[:-1]):
        return order
    return np.lexsort(u.T[::-1])


def _mean_rows(rows):
    # rows (L, J), particles in canonical order along axis 1; the pivot
    # is exact, the sum fixed-order along each contiguous row
    pivot = rows.min(axis=1)
    return pivot + np.einsum("lj->l", rows - pivot[:, None]) / rows.shape[1]


def empirical_stats(ens, problem):
    """Empirical means and covariances of an ensemble under a problem's
    forward map, 1/J normalization.

    cov_uu is PSD with rank at most min(L, J-1); for all-identical
    particles both covariances are exactly zero.
    """
    u = ens.particles
    j = u.shape[0]
    g = apply_forward_batch(problem, u)
    if not np.all(np.isfinite(g)):
        raise NonFinite("forward map produced non-finite values")
    order = _canonical_order(u)
    us, gs = np.take(u.T, order, axis=1), np.take(g.T, order, axis=1)
    mean_u = _mean_rows(us)
    mean_g = _mean_rows(gs)
    cu = us - mean_u[:, None]
    cg = gs - mean_g[:, None]
    cov_uu = np.einsum("lj,mj->lm", cu, cu) / j
    cov_ug = np.einsum("lj,mj->lm", cu, cg) / j
    return EnsembleStats(mean_u=mean_u, mean_g=mean_g,
                         cov_uu=cov_uu, cov_ug=cov_ug, forward=g)


def particle_moments(ens):
    """(mean_u, cov_uu) of empirical_stats, bit for bit, without
    evaluating the forward map: same canonical order, pivot and einsum."""
    u = ens.particles
    us = np.take(u.T, _canonical_order(u), axis=1)
    mean_u = _mean_rows(us)
    cu = us - mean_u[:, None]
    return mean_u, np.einsum("lj,mj->lm", cu, cu) / us.shape[1]


def centered_moments(ens):
    """The second and fourth centered moments (1/J) sum_j |u_j - mean|^p,
    p = 2 and 4, from one canonical ordering; the second is tr cov_uu."""
    us = np.take(ens.particles.T, _canonical_order(ens.particles), axis=1)
    cu = us - _mean_rows(us)[:, None]
    sq = np.einsum("lj,lj->j", cu, cu)
    j = us.shape[1]
    return (float(np.einsum("j->", sq) / j),
            float(np.einsum("j->", sq ** 2) / j))


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
    dists = np.sqrt(np.einsum("lj,lj->j", residual, residual))
    return float(np.max(dists))


def save_csv(ens, path):
    """Write one row per particle; header comments carry time and step.

    The %.17g format round-trips float64 exactly, so save/load is lossless
    and same-seed runs produce byte-identical files.
    """
    names = ",".join(f"u{i}" for i in range(ens.dim))
    header = f"time={ens.time:.17g} step={ens.step}\n{names}"
    np.savetxt(path, ens.particles, delimiter=",", fmt="%.17g",
               header=header, comments="# ")


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
