"""Tests for the addressable noise source."""

import copy
import dataclasses
import os
import pickle
import sys
import threading
import time

import numpy as np
import pytest
from numpy.random import Generator, Philox

from eks_lab.dynamics import _DrawTable
from eks_lab.errors import DimensionMismatch, NonPositive
from eks_lab.noise import NoiseSource, derive_seed


def test_bulk_matches_single_rows():
    src = NoiseSource(seed=12345)
    for l in (1, 2, 3, 4, 5, 8):
        block = src.normal_block(step=7, n_particles=9, n_components=l)
        rows = src.normal_rows(step=7, particle_indices=range(9),
                               n_components=l)
        assert np.array_equal(block, rows)


def test_growing_ensemble_keeps_existing_rows():
    src = NoiseSource(seed=99)
    small = src.normal_block(step=3, n_particles=4, n_components=2)
    large = src.normal_block(step=3, n_particles=64, n_components=2)
    assert np.array_equal(large[:4], small)


def test_identical_coordinates_identical_draws():
    a = NoiseSource(seed=2024)
    b = NoiseSource(seed=2024)
    assert np.array_equal(a.normal_block(5, 16, 3), b.normal_block(5, 16, 3))


def test_distinct_coordinates_distinct_draws():
    src = NoiseSource(seed=5)
    x = src.normal_block(0, 8, 2)
    assert not np.array_equal(x, src.normal_block(1, 8, 2))
    assert not np.array_equal(x, NoiseSource(seed=6).normal_block(0, 8, 2))
    assert not np.array_equal(x[0], x[1])


def test_marginals_standard_normal():
    src = NoiseSource(seed=77)
    x = src.normal_block(0, 100_000, 2).ravel()
    assert np.all(np.isfinite(x))
    assert abs(np.mean(x)) <= 0.02
    assert abs(np.var(x) - 1.0) <= 0.02
    assert abs(np.mean(x**3)) <= 0.06
    assert abs(np.mean(x**4) - 3.0) <= 0.12


def test_cross_seed_streams_uncorrelated():
    a = NoiseSource(seed=31).normal_block(0, 50_000, 1).ravel()
    b = NoiseSource(seed=derive_seed(31, "other")).normal_block(
        0, 50_000, 1).ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 0.02


def test_validation():
    src = NoiseSource(seed=1)
    with pytest.raises(NonPositive):
        src.normal_block(-1, 4, 2)
    with pytest.raises(NonPositive):
        src.normal_block(0, 0, 2)
    with pytest.raises(NonPositive):
        src.normal_block(0, 4, 0)


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(42, "study-j", 3)
    assert s1 == derive_seed(42, "study-j", 3)
    assert 0 <= s1 < 2**64
    others = {
        derive_seed(42, "study-j", 4),
        derive_seed(42, "study-t", 3),
        derive_seed(43, "study-j", 3),
        derive_seed(42),
    }
    assert s1 not in others
    assert len(others) == 4


def fresh_block(seed, step, n_particles, n_components):
    """The documented layout, drawn from a generator built for this
    call: numpy's Philox at key (seed, 0) and counter (0, 0, 0, step),
    read row-major through Generator.standard_normal."""
    gen = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64),
                           counter=np.array([0, 0, 0, step],
                                            dtype=np.uint64)))
    return gen.standard_normal((n_particles, n_components))


def test_reused_source_in_shuffled_order_matches_fresh_draws():
    rng = np.random.default_rng(8)
    cases = [(step, j, l) for step in (0, 1, 2, 17, 2**40)
             for j in (1, 5, 64) for l in (1, 2, 3, 4, 5, 8, 32)]
    cases = [cases[i] for i in rng.permutation(len(cases))]
    seed = 2**63 + 12345
    src = NoiseSource(seed=seed)
    for step, j, l in cases:
        block = src.normal_block(step, j, l)
        assert np.array_equal(block, fresh_block(seed, step, j, l))
        assert np.array_equal(
            block, NoiseSource(seed=seed).normal_block(step, j, l))
        assert np.array_equal(block, src.normal_rows(step, range(j), l))
        assert np.array_equal(block[::-1],
                              src.normal_rows(step, range(j)[::-1], l))


@pytest.mark.parametrize("l", [1, 2, 3, 5])
def test_fill_into_a_slice_equals_each_block_alone(l):
    # several sources and sizes, one repeated, filled into one buffer by
    # the particle dynamics' draw table
    keys = [(11, 7), (12, 64), (11, 7), (2**64 - 1, 1), (13, 300)]
    table = _DrawTable(keys, l)
    table.draw(9)
    for seed, j in keys:
        assert np.array_equal(table.take(table.columns([(seed, j)])),
                              NoiseSource(seed=seed).normal_block(9, j, l))
    src = NoiseSource(seed=12)
    buffer = np.empty((70, l))
    assert src.fill(9, buffer[6:]).base is buffer
    assert np.array_equal(buffer[6:], src.normal_block(9, 64, l))


@pytest.mark.parametrize("out", [
    np.empty((2, 4)).T, np.empty((4, 4))[:, ::2],
    np.empty((4, 2), dtype=np.float32), np.empty(8),
    np.frombuffer(bytes(64)).reshape(4, 2), [[0.0, 0.0]]],
    ids=["f_ordered", "strided", "float32", "one_d", "read_only", "list"])
def test_fill_rejects_an_out_whose_rows_are_not_particles(out):
    # numpy would fill any of these in memory order, or fail in its own
    # terms, so none can hold particle j's draws in row j
    with pytest.raises(DimensionMismatch):
        NoiseSource(seed=0).fill(0, out)


def test_rows_are_a_selection_from_one_block():
    src = NoiseSource(seed=3)
    block = src.normal_block(3, 9, 2)
    assert np.array_equal(src.normal_block(3, 6, 2), block[:6])
    assert np.array_equal(src.normal_rows(3, [5, 0, 2], 2), block[[5, 0, 2]])
    assert np.array_equal(src.normal_rows(3, [8, 8], 2), block[[8, 8]])
    assert src.normal_rows(3, [], 2).shape == (0, 2)
    with pytest.raises(NonPositive):
        src.normal_rows(3, [1, -1], 2)


def test_source_shared_by_more_threads_than_cores():
    cores = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else (os.cpu_count() or 1)
    n_threads = min(cores, 30) + 2
    src = NoiseSource(seed=404)
    cases = [(step, 1 + step % 7, 1 + step % 6) for step in range(24)]
    expected = [NoiseSource(seed=404).normal_block(*case) for case in cases]
    wrong = []
    deadline = time.monotonic() + 3.0

    def worker(offset):
        for _ in range(50):
            for k in range(len(cases)):
                i = (k + offset) % len(cases)
                if not np.array_equal(src.normal_block(*cases[i]),
                                      expected[i]):
                    wrong.append(cases[i])
            if time.monotonic() > deadline:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def test_source_value_semantics_with_cached_generator():
    src = NoiseSource(seed=7)
    first = src.normal_block(3, 4, 2)
    twin = NoiseSource(seed=7)
    assert src == twin and hash(src) == hash(twin)
    assert len({src, twin}) == 1
    assert repr(src) == "NoiseSource(seed=7)"
    assert src != NoiseSource(seed=8)
    assert dataclasses.replace(src, seed=8) == NoiseSource(seed=8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        src.seed = 8
    for other in (copy.copy(src), copy.deepcopy(src),
                  pickle.loads(pickle.dumps(src))):
        assert other == src and hash(other) == hash(src)
        # the copy draws on its own: a draw from it does not move the
        # original, and both keep reproducing the same values
        assert np.array_equal(other.normal_block(9, 4, 2),
                              src.normal_block(9, 4, 2))
        assert np.array_equal(src.normal_block(3, 4, 2), first)
        assert np.array_equal(other.normal_block(3, 4, 2), first)
