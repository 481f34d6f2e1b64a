"""Calibration loops: fixed plain-numpy kernels that measure the machine.

On a shared host the speed of the same code drifts by up to 2x over tens
of seconds, longer than one benchmark run, so raw wall times of one
config spread by 15-35% between runs.  Each workload is timed against
the kernel below that is shaped like its hot loop (workloads.CALIBRATION):
the loop runs before the first study and after each one, and a study's
wall time is multiplied by REF_S over the mean of the two runs around
it.  The kernels never change and do not call eks_lab, so a faster
program still shows as a proportionally smaller study time.
"""

import time

import numpy as np

# Rescaled times read as seconds on a machine where each kernel takes this
# long, about their typical time on a 2-core x86-64 VM.
REF_S = 0.15


def small_step_s():
    """A small-J sampler step in plain numpy, a thousand times: small-array
    calls from Python, sorted reductions over particles, 2x2 solves and
    eigendecompositions, Philox draws."""
    gen = np.random.Generator(np.random.Philox(7))
    u = gen.normal(size=(256, 2))
    prec = np.array([[2.0, 0.1], [0.1, 5.0]])
    t0 = time.perf_counter()
    for _ in range(1000):
        cu = u - np.sum(np.sort(u, axis=0), axis=0) / len(u)
        cov = np.sum(np.sort(cu[:, :, None] * cu[:, None, :], axis=0),
                     axis=0) / len(u)
        system = np.eye(2) + 0.01 * cov @ prec
        u = np.linalg.solve(system, (u - 0.01 * cu @ (cov @ prec).T).T).T
        w, v = np.linalg.eigh(0.02 * cov)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
        u = u + gen.normal(size=u.shape) @ root
    return time.perf_counter() - t0


def tensor_s():
    """Sorted reductions of (J, L, L) outer-product tensors at J = 512,
    L = 32, and a 32x32 eigendecomposition, four times."""
    gen = np.random.Generator(np.random.Philox(7))
    u = gen.normal(size=(512, 32))
    g = gen.normal(size=(512, 32))
    t0 = time.perf_counter()
    for _ in range(4):
        cu = u - np.sum(np.sort(u, axis=0), axis=0) / len(u)
        np.sum(np.sort(cu[:, :, None] * cu[:, None, :], axis=0), axis=0)
        np.sum(np.sort(cu[:, :, None] * g[:, None, :], axis=0), axis=0)
        np.linalg.eigh(cu.T @ cu)
    return time.perf_counter() - t0


KERNELS = {"small-step": small_step_s, "tensor": tensor_s}
