"""Counter-indexed Gaussian noise.

The particle dynamics and the mean-field reference need the SAME Brownian
increment for the same (step, particle, component) triple, drawn in any
order, on any thread count, possibly by two different processes.  A
sequential generator cannot give that, so noise is addressed rather than
streamed: each draw is a pure function of (seed, step, particle,
component).

Each (seed, step) owns one stream: numpy's Philox4x64-10 with key
(seed, 0), started at counter (0, 0, 0, step), read through numpy's
ziggurat Generator.standard_normal.  A draw of J particles with L
components fills a C-contiguous (J, L) block row-major from the start of
that stream, so row j is the stream's values j*L .. j*L + L - 1 whatever
J is: growing the ensemble never reshuffles the noise of existing
particles (the prefix property).  Steps start 2^192 counter blocks apart,
so no step's stream reaches another's.  The values are bit-stable
wherever the same numpy binaries are used; numpy does not promise
Generator streams across its feature releases (NEP 19).

fill(step, out) writes a step's block into a caller's buffer, such as a
row slice of a larger one: the particle dynamics fill one (sum J, L)
buffer per step, one slice per (seed, J) key.  normal_block allocates
the block; normal_rows selects rows of one.

A source builds one generator on its first draw and reuses it: every
later draw resets that generator's counter, which costs a fraction of
building a new one and gives the same values.  A per-source lock spans
the reset and the draw, so one source may be shared by any number of
threads.  The generator is a cache, not part of the value: ==, hash and
repr read only the seed, and a copy or an unpickled source starts
without a generator.
"""

import hashlib
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionMismatch, NonPositive

__all__ = ["NoiseSource", "derive_seed"]

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


@dataclass(frozen=True)
class NoiseSource:
    """Addressable standard-normal noise keyed by a 64-bit seed."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_gen", None)

    def __reduce__(self):
        return type(self), (self.seed,)

    def fill(self, step, out):
        """Write the draws of particles 0..J-1 at one step into out, a
        C-contiguous (J, L) float64 array, and return it: row j holds
        particle j's L draws."""
        if step < 0:
            raise NonPositive("step must be >= 0")
        # numpy fills any layout in memory order, so only a C-ordered
        # float64 matrix holds particle j's draws in row j
        if not (isinstance(out, np.ndarray) and out.ndim == 2
                and out.dtype == np.float64 and out.flags.c_contiguous
                and out.flags.writeable):
            raise DimensionMismatch(
                "out must be a writable C-contiguous float64 (J, L) array")
        with self._lock:
            if self._gen is None:
                bits = Philox(key=np.array([int(self.seed) & _MASK64, 0],
                                           dtype=np.uint64))
                object.__setattr__(self, "_gen", Generator(bits))
                object.__setattr__(self, "_start", bits.state)
            # the cached state's counter is (0, 0, 0, step): only its last
            # word is written, and assigning the state also empties the
            # bit generator's buffer
            self._start["state"]["counter"][3] = step
            self._gen.bit_generator.state = self._start
            self._gen.standard_normal(out=out)
        return out

    def normal_block(self, step, n_particles, n_components):
        """Draws for particles 0..n_particles-1 at one step, shape (J, L).

        Row j is bit-identical to normal_rows(step, [j], L) regardless of
        n_particles, so growing the ensemble never reshuffles the noise
        of existing particles.
        """
        if n_particles < 1:
            raise NonPositive("n_particles must be >= 1")
        if n_components < 1:
            raise NonPositive("n_components must be >= 1")
        return self.fill(step, np.empty((n_particles, n_components)))

    def normal_rows(self, step, particle_indices, n_components):
        """Draws for an arbitrary list of particle indices at one step:
        those rows of one block that reaches the largest index."""
        rows = np.asarray(particle_indices, dtype=np.intp).reshape(-1)
        if rows.size and rows.min() < 0:
            raise NonPositive("particle indices must be >= 0")
        return self.normal_block(step, int(rows.max(initial=0)) + 1,
                                 n_components)[rows]
