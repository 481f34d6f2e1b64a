"""Spans around calls into eks_lab's public functions, recorded from
outside the package.

install() replaces every public function of the layer modules (their
`__all__`) plus NoiseSource's draw methods with a timing wrapper.  The
package binds names at import time (`from .ensemble import
empirical_stats` in dynamics and studies), so the wrapper is written into
every eks_lab module, and every module-level dict, that holds the
original object; uninstall() puts the originals back.

Spans stay in memory as [id, parent, name, start, end, run] rows.  All
spans of one study share a run id.  A span's self time is its duration
minus its children's.  A few wrappers also count work at the call, for
ratios measured where the work happens.
"""

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spd", "noise", "model", "ensemble", "dynamics", "reference",
          "metrics", "studies")

# Functions whose calls and share of self time the benchmark reports; the
# layer each belongs to is its defining module.
NAMED_FUNCTIONS = (
    "reference.advance_mean", "reference.covariance_closed_form",
    "ensemble.empirical_stats", "ensemble.save_csv",
    "model.apply_forward_batch", "model.quadrature_moments",
    "noise.normal_block",
    "spd.spd_sqrt", "spd.general_solve", "spd.spd_invert",
    "dynamics.eks_step", "dynamics.eks_gradient_step",
    "dynamics.mean_field_step", "dynamics.run",
    "metrics.empirical_w2_exact",
    "studies.write_report",
)

STEP_FUNCTIONS = ("dynamics.eks_step", "dynamics.eks_gradient_step",
                  "dynamics.mean_field_step")
KALMAN_STEPS = ("dynamics.eks_step", "dynamics.eks_gradient_step")


def _rows(x):
    return np.shape(getattr(x, "particles", x))[0]


# counting hooks take the wrapped function's arguments
def _count_advance_mean(counts, flow, m_start, t_start, t_end):
    span = t_end - t_start
    if span > 0.0:
        counts["rk4_substeps"] += max(1, math.ceil(span / flow.dt_ode - 1e-12))


def _count_stats(counts, ens, problem):
    j, l = ens.particles.shape
    tensor = j * l * (l + problem.dim_k) * 8
    counts["stats_tensor_bytes_max"] = max(
        counts["stats_tensor_bytes_max"], tensor)


def _count_draws(counts, source, step, n_particles, n_components):
    counts["normals_drawn"] += n_particles * n_components


def _count_kalman(counts, ens, problem, cfg, noise):
    counts["kalman_particle_components"] += ens.particles.size


def _count_w2(counts, x, y):
    counts["w2_cost_entries"] += _rows(x) * _rows(y)


COUNTERS = {
    "reference.advance_mean": _count_advance_mean,
    "ensemble.empirical_stats": _count_stats,
    "noise.normal_block": _count_draws,
    "dynamics.eks_step": _count_kalman,
    "dynamics.eks_gradient_step": _count_kalman,
    "metrics.empirical_w2_exact": _count_w2,
}


class Tracer:
    """Span recorder for one benchmark invocation (single-threaded)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.run_id = -1
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(),
                    0.0, self.run_id]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if counter is not None:
                    counter(self.counts, *args, **kwargs)

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn under a span of its own (the root of one study)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"eks_lab.{layer}")
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", "") == module.__name__):
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        noise = importlib.import_module("eks_lab.noise")
        for attr in ("normal_block", "normal_rows"):
            fn = noise.NoiseSource.__dict__[attr]
            self._patch(noise.NoiseSource, attr, fn,
                        self.wrap(f"noise.{attr}", fn))
        wrappers = {key: self.wrap(name, fn)
                    for key, (name, fn) in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "eks_lab" and not mod_name.startswith("eks_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    self._patch(module, attr, value, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if (id(item) in wrappers
                                and item is originals[id(item)][1]):
                            self._patch(value, key, item, wrappers[id(item)])

    def _patch(self, holder, key, original, wrapper):
        if isinstance(holder, dict):
            holder[key] = wrapper
        else:
            setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def self_times(self):
        """{name: (calls, self seconds)} over all recorded spans, and the
        number of distinct study runs."""
        if not self.spans:
            return {}, 0
        parents = np.array([s[1] for s in self.spans])
        durations = np.array([s[4] - s[3] for s in self.spans])
        child = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        own = durations - child
        table = defaultdict(lambda: [0, 0.0])
        for span, self_s in zip(self.spans, own):
            entry = table[span[2]]
            entry[0] += 1
            entry[1] += float(self_s)
        runs = len({s[5] for s in self.spans})
        return {name: tuple(v) for name, v in table.items()}, runs

    def write_spans(self, path):
        """One CSV row per span, times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("run,id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end, run in self.spans:
                fh.write(f"{run},{sid},{parent},{name},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")
