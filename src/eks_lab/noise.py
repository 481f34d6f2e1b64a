"""Counter-indexed Gaussian noise.

The particle dynamics and the mean-field reference need the SAME Brownian
increment for the same (step, particle, component) triple, drawn in any
order, on any thread count, possibly by two different processes.  A
sequential generator cannot give that, so noise is addressed rather than
streamed: each draw is a pure function of (seed, step, particle,
component).

Layout on top of Philox4x64-10: the key is (seed, 0) and the 256-bit
counter is (block, 0, 0, step), where each particle owns ceil(L/4)
consecutive 4-word blocks starting at block j*ceil(L/4).  Distinct
(step, particle, component) triples therefore touch distinct counter
values and are independent; identical triples reproduce the identical
word.

A draw has two parts.  word_block(step, J, L) returns the raw 64-bit
words of particles 0..J-1 at one step as a (J, L) array.  to_normals
converts words to normals one element at a time: uniforms via the top
53 bits offset by half an ulp, u = ((word >> 11) + 0.5) * 2^-53, which
lies strictly inside (0, 1), then scipy's ndtri (the Cephes rational
approximation of the inverse normal CDF; bit-stable wherever the same
scipy binaries are used).  normal_block is the two in sequence.  Since
the conversion is elementwise, to_normals takes a list of word blocks,
of several sources and sizes, and converts them stacked in one pass
with no bit moved; the particle dynamics convert all of a step's words
that way.

A source builds one Philox on its first draw and reuses it: every later
draw resets that generator's counter, which costs a fraction of building
a new one and gives the same words.  A per-source lock spans the reset
and the draw, so one source may be shared by any number of threads.  The
generator is a cache, not part of the value: ==, hash and repr read only
the seed, and a copy or an unpickled source starts without a generator.
"""

import hashlib
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import NonPositive

__all__ = ["NoiseSource", "derive_seed", "to_normals"]

_MASK64 = (1 << 64) - 1


def _mix64(x):
    # splitmix64 finalizer
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base, *parts):
    """Deterministically derive a sub-seed from a base seed and tags.

    Tags may be integers or short strings (study names, repeat indices).
    Different tag sequences give unrelated 64-bit seeds; the derivation is
    stable across runs and platforms, so every cell of a study can record
    the exact seed it ran with.
    """
    x = _mix64(int(base) + 0x9E3779B97F4A7C15)
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8)
            part = int.from_bytes(digest.digest(), "little")
        x = _mix64((x + 0x9E3779B97F4A7C15 + (int(part) & _MASK64)) & _MASK64)
    return x


def to_normals(blocks):
    """Standard normals from raw uint64 Philox words, elementwise.

    blocks is a sequence of word arrays with equal trailing shapes; the
    result is one contiguous float array of them stacked along the first
    axis, each word converted to the same bits as if alone.
    """
    words = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    # one contiguous float buffer, then converted in place
    u = (words >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return ndtri(u, out=u)


@dataclass(frozen=True)
class NoiseSource:
    """Addressable standard-normal noise keyed by a 64-bit seed."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_gen", None)

    def __reduce__(self):
        return type(self), (self.seed,)

    def _blocks_per_particle(self, n_components):
        if n_components < 1:
            raise NonPositive("n_components must be >= 1")
        return (n_components + 3) // 4

    def _raw(self, block, step, n_words):
        # n_words raw words from counter (block, 0, 0, step), bitwise
        # those of a new Philox started there
        with self._lock:
            if self._gen is None:
                key = np.array([int(self.seed) & _MASK64, 0],
                               dtype=np.uint64)
                gen = Philox(key=key, counter=np.zeros(4, dtype=np.uint64))
                object.__setattr__(self, "_gen", gen)
                object.__setattr__(self, "_start", gen.state)
            # the cached state's counter is (block, 0, 0, step): its middle
            # words stay zero, the outer ones are written in place
            counter = self._start["state"]["counter"]
            counter[0] = block
            counter[3] = step
            self._gen.state = self._start
            return self._gen.random_raw(n_words)

    def word_block(self, step, n_particles, n_components):
        """The raw words behind normal_block(step, n_particles,
        n_components), as a (J, L) uint64 view: row j holds particle j's
        words."""
        if step < 0:
            raise NonPositive("step must be >= 0")
        if n_particles < 1:
            raise NonPositive("n_particles must be >= 1")
        bpp = self._blocks_per_particle(n_components)
        raw = self._raw(0, int(step), n_particles * bpp * 4)
        return raw.reshape(n_particles, bpp * 4)[:, :n_components]

    def normal_block(self, step, n_particles, n_components):
        """Draws for particles 0..n_particles-1 at one step, shape (J, L).

        Row j is bit-identical to normal_rows(step, [j], L) regardless of
        n_particles, so growing the ensemble never reshuffles the noise
        of existing particles.
        """
        return to_normals([self.word_block(step, n_particles, n_components)])

    def normal_rows(self, step, particle_indices, n_components):
        """Draws for an arbitrary list of particle indices at one step."""
        if step < 0:
            raise NonPositive("step must be >= 0")
        bpp = self._blocks_per_particle(n_components)
        out = np.empty((len(particle_indices), n_components), dtype=float)
        for row, j in enumerate(particle_indices):
            j = int(j)
            if j < 0:
                raise NonPositive("particle indices must be >= 0")
            out[row] = to_normals(
                [self._raw(j * bpp, int(step), bpp * 4)[:n_components]])
        return out
