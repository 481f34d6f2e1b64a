"""Study drivers: configure a problem from JSON, run parameter sweeps,
write machine-readable reports.

A study is described by one JSON document, which parse_config walks
against one table (CONFIG: each key's type, default, range and kinds)
before any compute runs, and produces in its output directory:

  report.json   deterministic summary — config echo, per-cell values with
                their exact seeds, slope fits, pass/fail flags, and the
                Python, numpy, scipy, BLAS/LAPACK builds, numpy CPU
                dispatch targets and machine it ran on.  The only
                line that varies between identical runs is the single
                "generated" header entry (timestamp and total wall time).
  <kind>.csv    flat per-cell rows: study, J, t, repeat, seed,
                metric_name, value, wall_ms.  Wall times live here and
                only here, so report.json stays byte-reproducible.
  *.csv         ensemble particles / per-step diagnostics where the study
                calls for them.

Every cell derives its own seed from the base seed and its coordinates,
so its numbers do not depend on which other cells run beside it; one
rule (_cell_start) turns that seed into the cell's initial draw from
rho0 and its noise seed.  sample, study-j, study-coupling and
demo-nonlinear step their cells through one driver (_run_cells): in
lockstep, on the calling thread, in one dynamics.run call when the run
reads the mean-field flow (so the per-step reference work is done once
per study step rather than once per cell) or its cells share one J.
Otherwise (study-j's sweep) the largest J's cells step first, in one
call, and every other cell in a second.  Each call's cells are then
measured on one worker thread, so study-j's slowest exact W2 solves
overlap the stepping of its smaller J; once every cell has stepped, the
calling thread measures the queued cells the worker has not started,
from the last queued backwards, until it meets the worker.  Results are
collected in cell order.  A demo repeat's two samplers share one start
and its noise draws.  study-time steps its particle cell's start in
segments between checkpoints.  A cell's wall_ms is the time of the run
call it stepped in plus its own measurement.
"""

import difflib
import functools
import json
import platform
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dynamics import SdeConfig, run, sample_gaussian
from .ensemble import particle_moments, save_csv
from .errors import EksError
from .metrics import (
    ASSIGNMENT_LIMIT,
    SlopeFit,
    _line_fit,
    fit_slope,
    gaussian_w2,
    w2_ensemble_vs_gaussian,
)
from .model import (
    GaussianMoments,
    InverseProblem,
    make_perpendicular_perturbation,
    posterior_moments,
    quadrature_moments,
)
from .noise import derive_seed
from .reference import MomentFlow, rho_at, w2_decay_curve
from .spd import spd_sqrt

__all__ = [
    "ConfigError",
    "StudyConfig",
    "StudyCell",
    "StudyReport",
    "default_problem",
    "default_rho0",
    "load_config",
    "parse_config",
    "run_study",
    "write_report",
]

STUDY_KINDS = ("sample", "study-j", "study-time", "study-coupling",
               "demo-nonlinear", "validate")
SWEEP_KINDS = ("study-j", "study-coupling")
# the kinds that sample a problem: every kind but validate
SAMPLING_KINDS = STUDY_KINDS[:-1]

# the anisotropic off-center 2-D linear problem used throughout the
# acceptance studies, and the start its studies take by default
DEFAULT_PROBLEM = {"a": [[1.0, 0.0], [0.0, 2.0]],
                   "gamma": [[1.0, 0.0], [0.0, 1.0]],
                   "gamma0": [[1.0, 0.0], [0.0, 1.0]],
                   "y": [1.0, 1.0], "u0": [0.0, 0.0]}
DEFAULT_RHO0 = {"mean": [2.0, -2.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}


class ConfigError(EksError):
    """A study configuration could not be parsed or validated; the message
    names the offending field (and JSON line where available)."""


def default_problem():
    """The anisotropic off-center 2-D linear problem used throughout the
    acceptance studies."""
    return InverseProblem(**DEFAULT_PROBLEM)


def default_rho0():
    return GaussianMoments(**DEFAULT_RHO0)


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study needs; built by parse_config, never by hand.
    A value its kind does not read stays None (or empty)."""

    kind: str
    seed: int
    echo: dict
    problem: Optional[InverseProblem] = None
    rho0: Optional[GaussianMoments] = None
    h: Optional[float] = None
    n_steps: Optional[int] = None
    j_particles: Optional[int] = None
    repeats: Optional[int] = None
    share_noise: Optional[bool] = None
    with_particles: Optional[bool] = None
    fit_t_min: Optional[float] = None
    j_values: tuple = ()
    t_checkpoints: tuple = ()
    bands: dict = field(default_factory=dict)


@dataclass
class StudyCell:
    study: str
    j: Optional[int]
    t: Optional[float]
    repeat: Optional[int]
    seed: Optional[int]
    metric: str
    value: float
    wall_ms: float = 0.0

    def as_row(self):
        def show(x):
            return "" if x is None else x
        return [self.study, show(self.j), show(self.t), show(self.repeat),
                show(self.seed), self.metric, repr(self.value),
                f"{self.wall_ms:.3f}"]

    def as_json(self):
        # wall_ms deliberately excluded: it is the one nondeterministic
        # cell field and belongs to the CSV
        return {"study": self.study, "j": self.j, "t": self.t,
                "repeat": self.repeat, "seed": self.seed,
                "metric": self.metric, "value": self.value}


@dataclass
class StudyReport:
    kind: str
    base_seed: int
    config_echo: dict
    cells: list
    fits: dict
    flags: dict
    summary: dict
    wall_ms_total: float

    @property
    def passed(self):
        return all(self.flags.values())


# ---------------------------------------------------------------- schema


@dataclass(frozen=True)
class Field:
    """One config key: its type, its default (None: optional; ...: the
    kinds that read it must give it), its numbers' range and the kinds
    that read it; a config of any other kind must not set it.

    A type is int or float (a finite JSON number; an int rejects 2.7), a
    tuple of the allowed values, [int] or [float] (a non-empty, strictly
    increasing sweep), np.ndarray (nested lists of numbers), a band shape
    ("max", "min" or "interval") or a dict of Fields (a section; a label
    names its keys from the section, not from the config root)."""

    type: object
    default: object = None
    range: str = "(-inf, inf)"
    kinds: tuple = STUDY_KINDS
    label: Optional[str] = None


def _default_rho0(resolved):
    """The acceptance studies' start on a 2-D problem centered at the
    origin, the prior otherwise."""
    problem = resolved["problem"]
    if len(problem["u0"]) == 2 and np.allclose(problem["u0"], 0.0):
        return DEFAULT_RHO0
    return {"mean": problem["u0"], "cov": problem["gamma0"]}


_ARRAY = Field(np.ndarray, ...)

# a problem document: the config's inline "problem", or a problem file
PROBLEM = {
    "a": _ARRAY, "gamma": _ARRAY, "gamma0": _ARRAY, "y": _ARRAY, "u0": _ARRAY,
    "nonlinear": Field({"seed_direction": _ARRAY, "frequency": _ARRAY,
                        "amplitude": Field(float, ..., "[0, inf)")}),
}

# every band, by the shape its value must have and the one kind that
# grades it: a "max" or "min" band is a number, an "interval" band is
# [lo, hi] with lo <= hi
BANDS = {
    "mean_error": Field("max", kinds=("sample",)),
    "cov_error": Field("max", kinds=("sample",)),
    "slope_j": Field("interval", kinds=("study-j",)),
    "decay_slope": Field("interval", kinds=("study-time",)),
    "decay_r_squared": Field("min", kinds=("study-time",)),
    "slope_coupling": Field("interval", kinds=("study-coupling",)),
    "alg2_mean_error": Field("max", kinds=("demo-nonlinear",)),
    "min_alg1_worse_count": Field("min", kinds=("demo-nonlinear",)),
}

# The whole config, in the order of the echo in report.json, each key with
# the kinds that read it.  The echo is the config resolved against this
# table, so parse and echo cannot drift apart.
CONFIG = {
    "kind": Field(STUDY_KINDS, ...),
    "seed": Field(int, 0, "[0, 18446744073709551616)"),
    "problem": Field(PROBLEM, DEFAULT_PROBLEM, kinds=SAMPLING_KINDS,
                     label="problem field"),
    "rho0": Field({"mean": _ARRAY, "cov": _ARRAY}, _default_rho0,
                  kinds=SAMPLING_KINDS),
    "sde": Field({
        "h": Field(float, 0.01, "[0, 0.5]"),            # SdeConfig's range
        "n_steps": Field(int, 0, "[0, inf)",
                         kinds=SWEEP_KINDS + ("sample", "demo-nonlinear")),
        "j_particles": Field(int, 0, "[0, inf)",
                             kinds=("sample", "study-time", "demo-nonlinear")),
    }, {}, kinds=SAMPLING_KINDS),
    "repeats": Field(int, 1, "[1, inf)",
                     kinds=SWEEP_KINDS + ("demo-nonlinear",)),
    "share_noise": Field((True, False), True, kinds=("study-coupling",)),
    "with_particles": Field((True, False), False, kinds=("study-time",)),
    "fit_t_min": Field(float, 1.0, kinds=("study-time",)),
    "bands": Field(BANDS, {}, kinds=SAMPLING_KINDS, label="band"),
    "sweep": Field({
        "j_values": Field([int], ..., "[2, inf)", SWEEP_KINDS),
        "t_checkpoints": Field([float], ..., "[0, inf)",
                               ("study-time",)),
    }, {}, kinds=SWEEP_KINDS + ("study-time",)),
}


def _is_number(x):
    # an int or float a float can hold; NaN passes here and fails every
    # range, so a NaN h is reported against h's range
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and not abs(x) > sys.float_info.max)


def _number(cast, value, rng, label, name):
    if not _is_number(value):
        raise ConfigError(f"{label} '{name}' must be a number, got {value!r}")
    if cast is int and not isinstance(value, int):
        raise ConfigError(f"{label} '{name}' must be an integer, got "
                          f"{value!r}")
    lo, hi = rng[1:-1].split(", ")
    if not ((float(lo) <= value if rng[0] == "[" else float(lo) < value)
            and (value <= float(hi) if rng[-1] == "]" else value < float(hi))):
        bound = (f"be {'>=' if rng[0] == '[' else '>'} {lo}"
                 if hi == "inf" and lo != "-inf" else f"lie in {rng}")
        raise ConfigError(f"{label} '{name}': {name.rsplit('.', 1)[-1]} "
                          f"must {bound}, got {value!r}")
    return cast(value)


def _leaves(x):
    return [y for v in x for y in _leaves(v)] if isinstance(x, list) else [x]


def _check(field, value, kind, label, name):
    """value checked against field, in the form the echo holds it."""
    expected = field.type
    if isinstance(expected, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{label} '{name}' must be an object, got "
                              f"{value!r}")
        return _walk(expected, value, kind, field.label or label,
                     "" if field.label else name + ".")
    if isinstance(expected, tuple):
        if not (type(value) is type(expected[0]) and value in expected):
            allowed = " or ".join(json.dumps(v) for v in expected)
            raise ConfigError(f"{label} '{name}' must be {allowed}, got "
                              f"{value!r}")
        return value
    if isinstance(expected, list):
        if not isinstance(value, list):
            raise ConfigError(f"{label} '{name}' must be a list of numbers, "
                              f"got {value!r}")
        items = [_number(expected[0], v, field.range, label, name)
                 for v in value]
        if not items:
            raise ConfigError(f"{label} '{name}' must be non-empty")
        if any(b <= a for a, b in zip(items, items[1:])):
            raise ConfigError(f"{label} '{name}' must be strictly increasing")
        return items
    if expected is np.ndarray:
        try:
            if isinstance(value, list) and all(map(_is_number,
                                                   _leaves(value))):
                return np.asarray(value, dtype=float).tolist()
        except ValueError:                  # ragged nesting
            pass
        raise ConfigError(f"{label} '{name}' must be a list (or nested "
                          f"lists) of numbers, got {value!r}")
    if expected == "interval":
        if not (isinstance(value, list) and len(value) == 2
                and all(map(_is_number, value)) and value[0] <= value[1]):
            raise ConfigError(f"{label} '{name}' must be [lo, hi] with "
                              f"lo <= hi, got {value!r}")
        return value
    # a band keeps the number type it is written in: a count stays an int
    return _number(type(value) if expected in ("max", "min") else expected,
                   value, field.range, label, name)


def _walk(schema, doc, kind, label, prefix):
    """doc resolved against a section of the table for a study of this
    kind, in the table's order: unknown keys and keys the kind does not
    read rejected, values checked, defaults filled in."""
    for key in doc:
        name = f"{label} '{prefix}{key}'"
        if key not in schema:
            near = difflib.get_close_matches(str(key), list(schema), n=1)
            hint = f": did you mean '{prefix}{near[0]}'?" if near else ""
            raise ConfigError(f"unknown {name}{hint}")
        if kind not in schema[key].kinds:
            raise ConfigError(f"{name} does not apply to {kind} studies, "
                              f"only to {', '.join(schema[key].kinds)}")
    out = {}
    for key, field in schema.items():
        name = prefix + key
        if key in doc:
            value = doc[key]
        elif kind not in field.kinds or field.default is None:
            continue
        elif field.default is Ellipsis:
            raise ConfigError(f"{label} '{name}' is required")
        else:
            value = (field.default(out) if callable(field.default)
                     else field.default)
        out[key] = _check(field, value, kind, label, name)
    return out


def _read_json(path, what):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} {path}: invalid JSON at line {err.lineno}"
                          f", column {err.colno}: {err.msg}") from None
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read {what}: {err}") from None


def _problem_document(spec, base_dir):
    """The inline problem a config's "problem" stands for: "default", an
    inline problem, or {"path": ...} relative to the config."""
    if spec == "default":
        return DEFAULT_PROBLEM
    if not (isinstance(spec, dict) and "path" in spec):
        return spec
    if not isinstance(spec["path"], str) or len(spec) > 1:
        raise ConfigError("config field 'problem.path' must be a string "
                          f"and the problem's only key, got {spec!r}")
    return _read_json(Path(base_dir) / spec["path"], "problem file")


def _build(cast, doc, what):
    try:
        return cast(**doc)
    except EksError as err:
        raise ConfigError(f"invalid {what}: {err}") from None


def _inverse_problem(nonlinear=None, **matrices):
    if nonlinear is not None:
        nonlinear = make_perpendicular_perturbation(
            matrices["a"], matrices["gamma"], **nonlinear)
    return InverseProblem(nonlinear=nonlinear, **matrices)


def load_config(path):
    """Read and validate a study config from a JSON file."""
    return parse_config(_read_json(path, "config"),
                        base_dir=Path(path).parent)


def parse_config(doc, base_dir="."):
    """Validate a config document against CONFIG and resolve defaults into
    a StudyConfig whose echo is the resolved document."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    kind = _check(CONFIG["kind"], doc.get("kind"), None, "config field",
                  "kind")
    if "problem" in doc and kind in SAMPLING_KINDS:
        doc = dict(doc, problem=_problem_document(doc["problem"], base_dir))
    echo = _walk(CONFIG, doc, kind, "config field", "")
    # study-time reads sde only to step particles
    if kind == "study-time" and not echo["with_particles"]:
        if "sde" in doc:
            raise ConfigError("config field 'sde' does not apply to study-time"
                              " studies unless with_particles is true")
        del echo["sde"]
    values = {k: v for k, v in echo.items()
              if k not in ("problem", "rho0", "sde", "sweep")}
    values.update(echo.get("sde", {}))
    values.update((k, tuple(v)) for k, v in echo.get("sweep", {}).items())
    if kind == "validate":
        return StudyConfig(echo=echo, **values)
    problem = _build(_inverse_problem, echo["problem"], "problem")
    try:
        # the rule sample_gaussian applies when it draws from rho0; it
        # runs before GaussianMoments so that an overflowing cov is named
        # as this field too
        spd_sqrt(echo["rho0"]["cov"])
    except EksError as err:
        raise ConfigError("config field 'rho0.cov' must be a finite positive "
                          f"semidefinite matrix: {err}") from None
    cfg = StudyConfig(problem=problem,
                      rho0=_build(GaussianMoments, echo["rho0"], "rho0"),
                      echo=echo, **values)

    if cfg.rho0.dim != cfg.problem.dim_l:
        raise ConfigError(f"rho0 dimension {cfg.rho0.dim} does not match "
                          f"problem dimension {cfg.problem.dim_l}")
    if kind in SWEEP_KINDS and cfg.n_steps < 1:
        raise ConfigError(f"{kind} study requires sde.n_steps >= 1")
    # a (J, L) float64 particle array of 2^63 bytes or more cannot exist
    # on any host; numpy would refuse it only once the study allocates it
    for name, j in (("sde.j_particles", cfg.j_particles),
                    ("sweep.j_values", max(cfg.j_values, default=None))):
        if j is not None and j * cfg.problem.dim_l * 8 >= 2 ** 63:
            raise ConfigError(f"config field '{name}': J = {j} particles of "
                              f"dimension {cfg.problem.dim_l} need 2^63 "
                              "bytes or more, more than any array can hold")
    # these would fail only after every cell has run: an exact W2 above
    # the assignment guard, a slope fit of coupling errors that are all 0
    # at h = 0, and a demo whose samplers do not move at h = 0, so that
    # neither can beat the other
    if kind == "study-j" and cfg.j_values[-1] > ASSIGNMENT_LIMIT:
        raise ConfigError(f"config field 'sweep.j_values': J = "
                          f"{cfg.j_values[-1]} exceeds the exact-assignment "
                          f"guard {ASSIGNMENT_LIMIT} of study-j's W2")
    if kind in ("study-coupling", "demo-nonlinear") and cfg.h == 0.0:
        raise ConfigError(f"{kind} requires config field 'sde.h' > 0")
    if kind in ("sample", "demo-nonlinear") and cfg.j_particles < 1:
        raise ConfigError(f"{kind} study requires sde.j_particles >= 1")
    if kind == "study-time" and cfg.with_particles:
        if cfg.j_particles < 2:
            raise ConfigError("with_particles requires sde.j_particles >= 2")
        if cfg.h == 0.0:
            raise ConfigError("with_particles requires config field "
                              "'sde.h' > 0")
        for t in cfg.t_checkpoints:
            if not abs(np.round(t / cfg.h) * cfg.h - t) <= 1e-9:
                raise ConfigError(
                    f"checkpoint t={t} is not a multiple of h={cfg.h}")
    if kind == "demo-nonlinear":
        if cfg.problem.nonlinear is None:
            raise ConfigError("demo-nonlinear requires a problem with a "
                              "'nonlinear' section")
        if cfg.problem.dim_l > 2:
            raise ConfigError("demo-nonlinear requires L <= 2 (quadrature "
                              "oracle limit)")

    # A band its study can never grade would pass vacuously: every band of
    # a sweep or study-time grades a fit, which needs three points (at
    # t >= fit_t_min for study-time), and a sample study's bands need the
    # closed-form posterior of a linear problem.
    band = next(iter(cfg.bands), None)
    if band and kind in SWEEP_KINDS + ("study-time",):
        points = (len(cfg.j_values) if kind in SWEEP_KINDS
                  else sum(t >= cfg.fit_t_min for t in cfg.t_checkpoints))
        if points < 3:
            raise ConfigError(f"band '{band}' can never be graded: its fit "
                              f"needs 3 points, the sweep gives {points}")
    if band and kind == "sample" and cfg.problem.nonlinear is not None:
        raise ConfigError(f"band '{band}' can never be graded: a nonlinear "
                          "problem has no closed-form posterior")
    return cfg


# ------------------------------------------------------------ execution


def _flow(cfg):
    return MomentFlow(problem=cfg.problem, m0=cfg.rho0.mean, c0=cfg.rho0.cov)


def _moment_errors(ens, target):
    mean_u, cov_uu = particle_moments(ens)
    mean_err = float(np.linalg.norm(mean_u - target.mean))
    cov_err = float(np.linalg.norm(cov_uu - target.cov, ord="fro"))
    return mean_err, cov_err


def _check_band(flags, bands, name, value):
    """Grade value against a pre-registered band of the shape BANDS
    gives it; bands absent from the config do not produce a flag."""
    if name in bands:
        band = bands[name]
        lo, hi = {"max": (-np.inf, band),
                  "min": (band, np.inf)}.get(BANDS[name].type, band)
        flags[name] = bool(lo <= value <= hi)


def _cell_start(cfg, cell_seed, j, n_steps):
    """A cell's initial ensemble and SdeConfig: J particles drawn from
    rho0 on the cell seed's "init" seed, stepped on its "run" seed.  The
    one place this rule is written."""
    return (sample_gaussian(cfg.rho0, j, derive_seed(cell_seed, "init")),
            SdeConfig(h=cfg.h, n_steps=n_steps, j_particles=j,
                      seed=derive_seed(cell_seed, "run")))


def _timed(measure, res, cell_seed):
    c0 = time.perf_counter()
    value = measure(res, cell_seed)
    return value, (time.perf_counter() - c0) * 1e3


def _measured_here(measure, res, cell_seed):
    """A finished future holding _timed(measure, res, cell_seed), run on
    the calling thread, or what it raised: read in cell order like the
    worker's futures."""
    future = Future()
    try:
        future.set_result(_timed(measure, res, cell_seed))
    except Exception as err:
        future.set_exception(err)
    return future


def _run_cells(cfg, cells, mode, measure, **run_options):
    """Step (cell seed, J) cells from their starts and return
    (RunResult, measure(result, cell seed), wall_ms) per cell, in cell
    order, each bitwise that of running the cell alone.  Cells with equal
    seed and J share one start (a demo's sampler pair).

    The cells step in lockstep groups, one run() call each.  A run that
    reads a flow steps every cell in one call (its per-step clock work is
    then shared), and so does a run whose cells share one J.  Otherwise
    the largest J's cells step first, alone, and then every other cell
    in one call.  As each group's run() returns, its measure calls queue
    on one worker thread (a fixed count; run_study's threads keyword
    does not change it), so the largest cells, the slowest to measure,
    are measured while the others step.  Once every group has stepped,
    the calling thread helps: it runs the queued measures the worker has
    not started, the last one queued first, until it meets the worker,
    which works forward from the first.  measure must therefore be safe
    to run beside run() and beside itself.  Pinned to one core, the
    benchmark's j-sweep study still took 404-454 ms against 476-495 ms
    with one call per J and no helping; the split carries that gain.  A
    cell's wall_ms is its group's run time plus its own measurement.

    Errors are those of stepping every cell in one run() call and then
    measuring them in cell order: a stepping error wins over any measuring
    error, and the first measuring error in cell order is raised, on
    whichever thread it was measured.  Queued measures are cancelled and
    the worker is joined before any error leaves, so no thread outlives
    the call.
    """
    top = max(j for _, j in cells)
    groups = [list(range(len(cells)))]
    if run_options.get("flow") is None and any(j != top for _, j in cells):
        groups = [[i for i, (_, j) in enumerate(cells) if j == top],
                  [i for i, (_, j) in enumerate(cells) if j != top]]
    starts = {}

    def step(indices):
        for i in indices:
            if cells[i] not in starts:
                starts[cells[i]] = _cell_start(cfg, *cells[i], cfg.n_steps)
        return run([starts[cells[i]][0] for i in indices], cfg.problem,
                   [starts[cells[i]][1] for i in indices],
                   mode if isinstance(mode, str)
                   else [mode[i] for i in indices], **run_options)

    stepped, futures = [None] * len(cells), [None] * len(cells)
    worker = ThreadPoolExecutor(max_workers=1)
    try:
        for group in groups:
            c0 = time.perf_counter()
            try:
                results = step(group)
            except EksError:
                worker.shutdown(wait=False, cancel_futures=True)
                # a cell of the other group may fail at an earlier step,
                # and a message names a cell by its place in the call:
                # one lockstep run over every cell raises what it raises
                if len(group) < len(cells):
                    step(range(len(cells)))
                raise
            run_ms = (time.perf_counter() - c0) * 1e3
            for i, res in zip(group, results):
                stepped[i] = res, run_ms
                futures[i] = worker.submit(_timed, measure, res, cells[i][0])
        # the calling thread helps: it measures the queued cells the
        # worker has not started, the last queued first, until it meets
        # the worker, which has taken every measure queued before that one
        for i in reversed([i for group in groups for i in group]):
            if not futures[i].cancel():
                break
            futures[i] = _measured_here(measure, stepped[i][0], cells[i][0])
        out = []
        for (res, run_ms), future in zip(stepped, futures):
            value, measure_ms = future.result()
            out.append((res, value, run_ms + measure_ms))
        return out
    finally:
        worker.shutdown(wait=True, cancel_futures=True)


# per sweep kind: the cell metric, its per-J mean, the slope fit and the
# band that grades it
_SWEEPS = {
    "study-j": ("w2_vs_mean_field", "w2_mean_over_repeats", "w2_vs_j",
                "slope_j"),
    "study-coupling": ("sq_coupling_error", "sq_coupling_error_mean",
                       "coupling_vs_j", "slope_coupling"),
}


def _sweep(cfg, mode, measure, **run_options):
    """Run every (J, repeat) cell of a study-j or study-coupling sweep and
    return one StudyCell per cell in (J, repeat) order, followed by the
    per-J means over repeats, plus the fits and flags of the slope in J.
    mode, measure and run_options go to _run_cells.
    """
    kind = cfg.kind
    metric, mean_metric, fit_name, band_name = _SWEEPS[kind]
    t_final = cfg.h * cfg.n_steps
    specs = [(j, rep, derive_seed(cfg.seed, kind, j, rep))
             for j in cfg.j_values for rep in range(cfg.repeats)]
    outs = _run_cells(cfg, [(seed, j) for j, _, seed in specs], mode,
                      measure, **run_options)
    cells = [StudyCell(kind, j, t_final, rep, seed, metric, value, wall)
             for (j, rep, seed), (_, value, wall) in zip(specs, outs)]

    means = {j: float(np.mean([c.value for c in cells if c.j == j]))
             for j in cfg.j_values}
    cells += [StudyCell(kind, j, t_final, None, None, mean_metric, mean)
              for j, mean in means.items()]
    fits, flags = {}, {}
    if len(cfg.j_values) >= 3:
        fits[fit_name] = fit_slope([(j, means[j]) for j in cfg.j_values])
        _check_band(flags, cfg.bands, band_name, fits[fit_name].slope)
    return cells, means, fits, flags


def _run_sample(cfg, out_dir):
    """Draw an initial ensemble, evolve it, and compare its moments with
    the analytic posterior (linear case).  A configured perturbation
    switches the evolution to the gradient-based step."""
    linear = cfg.problem.nonlinear is None
    mode = "eks" if linear else "eks_gradient"
    target = posterior_moments(cfg.problem) if linear else None

    def measure(res, cell_seed):
        return _moment_errors(res.final, target) if linear else None

    [(res, errors, wall)] = _run_cells(
        cfg, [(cfg.seed, cfg.j_particles)], mode, measure,
        flow=_flow(cfg) if linear else None, record_diagnostics=True)

    cells = []
    t_final = res.final.time
    summary = {"mode": mode, "t_final": t_final,
               "j_particles": cfg.j_particles}
    flags = {}
    if linear:
        for name, value in zip(("mean_error", "cov_error"), errors):
            cells.append(StudyCell("sample", cfg.j_particles, t_final, 0,
                                   cfg.seed, f"{name}_vs_posterior", value,
                                   wall))
            _check_band(flags, cfg.bands, name, value)
        summary["posterior_mean"] = target.mean.tolist()
        summary["posterior_cov"] = target.cov.tolist()

    if out_dir is not None:
        save_csv(res.final, Path(out_dir) / "ensemble.csv")
        _write_diagnostics(res.diagnostics, Path(out_dir) / "diagnostics.csv")
    return cells, {}, flags, summary


def _run_study_j(cfg, out_dir):
    """Ensemble-size sweep: distance between the evolved ensemble and the
    mean-field Gaussian at T, averaged over repeats, slope-fitted in J."""
    t_final = cfg.h * cfg.n_steps
    target = rho_at(_flow(cfg), t_final)

    def measure(res, cell_seed):
        return w2_ensemble_vs_gaussian(res.final, target,
                                       derive_seed(cell_seed, "reference"))

    cells, means, fits, flags = _sweep(cfg, "eks", measure)
    return cells, fits, flags, {
        "t_final": t_final,
        "mean_w2": {str(j): means[j] for j in cfg.j_values}}


def _run_study_time(cfg, out_dir):
    """Exponential-decay study: the deterministic W2(rho(t), posterior)
    curve, log-linear fit over t >= fit_t_min, and (optionally) the
    particle system's Gaussian-moment distance at the same checkpoints."""
    flow = _flow(cfg)
    curve = w2_decay_curve(flow, cfg.t_checkpoints)
    cells = [StudyCell("study-time", None, t, None, None,
                       "w2_reference_vs_posterior", w2)
             for t, w2 in curve]

    fits, flags = {}, {}
    fit_pts = [(t, w2) for t, w2 in curve if t >= cfg.fit_t_min and w2 > 0]
    if len(fit_pts) >= 3:
        # exponential decay shows up as a line in t vs ln(w2), so the fit
        # here is semilog, not the log-log of fit_slope
        ts = np.array([p[0] for p in fit_pts])
        logs = np.log([p[1] for p in fit_pts])
        fits["log_w2_vs_t"] = fit = SlopeFit(
            *_line_fit(ts, logs), points=np.column_stack([ts, logs]))
        _check_band(flags, cfg.bands, "decay_slope", fit.slope)
        _check_band(flags, cfg.bands, "decay_r_squared", fit.r_squared)

    if cfg.with_particles:
        cells.extend(_particle_checkpoints(cfg))
    return cells, fits, flags, {"curve": [[t, w2] for t, w2 in curve]}


def _particle_checkpoints(cfg):
    """Evolve one EKS cell from its start, in segments between checkpoints
    (parse_config put them on the step grid), reading off
    gaussian_w2(empirical moments, posterior) at each."""
    steps = [int(round(t / cfg.h)) for t in cfg.t_checkpoints]
    target = posterior_moments(cfg.problem)
    cell_seed = derive_seed(cfg.seed, "time-particles")
    ens, sde = _cell_start(cfg, cell_seed, cfg.j_particles, 0)
    cells = []
    for t, n in zip(cfg.t_checkpoints, steps):
        c0 = time.perf_counter()
        if n > ens.step:
            ens = run(ens, cfg.problem, replace(sde, n_steps=n - ens.step),
                      "eks").final
        mean_u, cov_uu = particle_moments(ens)
        emp = GaussianMoments(mean=mean_u, cov=cov_uu)
        cells.append(StudyCell(
            "study-time", cfg.j_particles, t, 0, cell_seed,
            "w2_particles_vs_posterior", gaussian_w2(emp, target),
            (time.perf_counter() - c0) * 1e3))
    return cells


def _run_study_coupling(cfg, out_dir):
    """Coupling sweep: mean squared particle-vs-mean-field distance at T
    under shared Brownian increments, slope-fitted in J.  share_noise
    false runs the negative control (independent increments)."""
    cells, means, fits, flags = _sweep(
        cfg, "coupled", lambda res, cell_seed: res.coupling_error,
        flow=_flow(cfg), share_noise=cfg.share_noise)
    return cells, fits, flags, {
        "t_final": cfg.h * cfg.n_steps,
        "share_noise": cfg.share_noise,
        "mean_sq_error": {str(j): means[j] for j in cfg.j_values}}


def _run_demo_nonlinear(cfg, out_dir):
    """Paired comparison on a perturbed forward map: the gradient-based
    step against a quadrature oracle of the true posterior, and the
    plain Kalman step on the same seeds to expose its bias."""
    target = quadrature_moments(cfg.problem)
    t_final = cfg.h * cfg.n_steps
    labels = ("alg2", "alg1")           # the gradient, then the plain step
    rep_seeds = [derive_seed(cfg.seed, "demo", rep)
                 for rep in range(cfg.repeats)]
    # a repeat's two samplers are two cells on one seed: one start, and
    # each step's noise drawn once for the pair
    outs = _run_cells(
        cfg, [(seed, cfg.j_particles) for seed in rep_seeds for _ in labels],
        ("eks_gradient", "eks") * cfg.repeats,
        lambda res, cell_seed: _moment_errors(res.final, target))

    cells = []
    errors = {label: [] for label in labels}
    for i, (_, (mean_err, cov_err), wall) in enumerate(outs):
        rep, label = i // 2, labels[i % 2]
        for metric, value in (("mean", mean_err), ("cov", cov_err)):
            cells.append(StudyCell("demo-nonlinear", cfg.j_particles,
                                   t_final, rep, rep_seeds[rep],
                                   f"{label}_{metric}_error", value, wall))
        errors[label].append(mean_err)
    alg1_errs, alg2_errs = errors["alg1"], errors["alg2"]

    wins = int(sum(a1 > a2 for a1, a2 in zip(alg1_errs, alg2_errs)))
    mean_alg2 = float(np.mean(alg2_errs))
    max_alg2 = float(np.max(alg2_errs))
    flags = {}
    _check_band(flags, cfg.bands, "alg2_mean_error", max_alg2)
    _check_band(flags, cfg.bands, "min_alg1_worse_count", wins)

    summary = {
        "t_final": t_final,
        "quadrature_mean": target.mean.tolist(),
        "quadrature_cov": target.cov.tolist(),
        "alg1_mean_errors": [float(v) for v in alg1_errs],
        "alg2_mean_errors": [float(v) for v in alg2_errs],
        "alg2_mean_error_avg": mean_alg2,
        "alg1_worse_count": wins,
        "repeats": cfg.repeats,
    }
    if out_dir is not None:
        # the ensembles of repeat 0
        for label, (res, _, _) in zip(labels, outs):
            save_csv(res.final, Path(out_dir) / f"ensemble_{label}.csv")
    return cells, {}, flags, summary


# ----------------------------------------------------------- validation


def _validation_checks(seed):
    """Small fast re-statements of each module's core invariants; each
    returns None on success or a failure description."""
    from . import dynamics, ensemble, metrics, noise, reference, spd
    from .ensemble import Ensemble
    from .noise import NoiseSource

    rng = np.random.default_rng(derive_seed(seed, "validate"))
    problem = default_problem()
    rho0 = default_rho0()

    def check_spd_sqrt():
        q = rng.normal(size=(4, 4))
        m = q @ q.T + 0.1 * np.eye(4)
        root = spd.spd_sqrt(m)
        if not np.allclose(root @ root, m, atol=1e-10):
            return "spd_sqrt does not square back"

    def check_spd_rejects_indefinite():
        from .errors import NotPSD
        try:
            spd.spd_sqrt(np.diag([1.0, -1e-3]))
        except NotPSD:
            return None
        return "spd_sqrt accepted an indefinite matrix"

    def check_noise_addressing():
        src = NoiseSource(seed=derive_seed(seed, "noise"))
        block = src.normal_block(3, 6, 2)
        if not np.array_equal(block, src.normal_block(3, 9, 2)[:6]):
            return "growing the ensemble moved existing particles' noise"
        if not np.array_equal(src.normal_rows(3, [5, 0, 2], 2),
                              block[[5, 0, 2]]):
            return "bulk and per-particle noise addressing disagree"

    def check_stats_permutation():
        ens = Ensemble(particles=rng.normal(size=(6, 2)), time=0.0, step=0)
        perm = rng.permutation(6)
        permuted = Ensemble(particles=ens.particles[perm], time=0.0, step=0)
        a = ensemble.empirical_stats(ens, problem)
        b = ensemble.empirical_stats(permuted, problem)
        if not (np.array_equal(a.cov_uu, b.cov_uu)
                and np.array_equal(a.mean_u, b.mean_u)):
            return "empirical statistics depend on particle order"

    def check_degenerate_freeze():
        ens = Ensemble(particles=np.tile([[1.3, -0.4]], (4, 1)),
                       time=0.0, step=0)
        cfg = SdeConfig(h=0.1, n_steps=1, j_particles=4, seed=seed)
        out = dynamics.eks_step(ens, problem, cfg,
                                NoiseSource(seed=seed))
        if not np.array_equal(out.particles, ens.particles):
            return "degenerate ensemble moved"

    def check_linear_agreement():
        ens = Ensemble(particles=rng.normal(size=(8, 2)), time=0.0, step=0)
        cfg = SdeConfig(h=0.05, n_steps=1, j_particles=8, seed=seed)
        a = dynamics.eks_step(ens, problem, cfg, NoiseSource(seed=seed))
        b = dynamics.eks_gradient_step(ens, problem, cfg,
                                       NoiseSource(seed=seed))
        if not np.allclose(a.particles, b.particles, atol=1e-12):
            return "linear-case step agreement broken"

    def check_affine_span():
        wide = InverseProblem(a=np.eye(5), gamma=np.eye(5),
                              gamma0=np.eye(5), y=np.zeros(5),
                              u0=np.zeros(5))
        initial = Ensemble(particles=rng.normal(size=(3, 5)),
                           time=0.0, step=0)
        cfg = SdeConfig(h=0.05, n_steps=20, j_particles=3, seed=seed)
        ens = run(initial, wide, cfg, "eks").final
        if ensemble.affine_span_distance(ens, initial) > 1e-8:
            return "iterates left the initial affine span"

    def check_rerun_determinism():
        cfg = SdeConfig(h=0.05, n_steps=10, j_particles=8, seed=seed)
        outs = [run(sample_gaussian(rho0, 8, seed), problem, cfg,
                    "eks").final.particles for _ in range(2)]
        if not np.array_equal(outs[0], outs[1]):
            return "reruns are not bit-identical"

    def check_particle_moments():
        cfg = SdeConfig(h=0.05, n_steps=80, j_particles=256,
                        seed=derive_seed(seed, "moments"))
        ens = sample_gaussian(rho0, 256, derive_seed(seed, "moments-init"))
        ens = run(ens, problem, cfg, "eks").final
        stats = ensemble.empirical_stats(ens, problem)
        target = posterior_moments(problem)
        if (np.linalg.norm(stats.mean_u - target.mean) > 0.5
                or np.linalg.norm(stats.cov_uu - target.cov, ord="fro") > 0.6):
            return "evolved ensemble moments miss the posterior"

    def check_reference_closed_form():
        flow = MomentFlow(problem=problem, m0=rho0.mean, c0=rho0.cov)
        ode = reference.integrate_moments(flow, 1.0)
        gap = ode.cov - reference.covariance_closed_form(flow, 1.0)
        if np.max(np.abs(gap)) > 1e-6:
            return "covariance closed form disagrees with the ODE"

    def check_reference_equilibrium():
        flow = MomentFlow(problem=problem, m0=rho0.mean, c0=rho0.cov)
        rho = rho_at(flow, 30.0)
        target = posterior_moments(problem)
        if (np.linalg.norm(rho.mean - target.mean) > 1e-8
                or np.linalg.norm(rho.cov - target.cov) > 1e-8):
            return "reference flow misses the posterior equilibrium"

    def check_metric_oracles():
        import itertools
        from .metrics import empirical_w2_exact
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(5, 2))
        best = min(
            np.mean(np.sum((x - y[list(p)]) ** 2, axis=1))
            for p in itertools.permutations(range(5)))
        if abs(empirical_w2_exact(x, y) - np.sqrt(best)) > 1e-12:
            return "assignment W2 disagrees with brute force"
        a = GaussianMoments(mean=[0.0], cov=[[1.0]])
        b = GaussianMoments(mean=[0.0], cov=[[4.0]])
        if abs(metrics.gaussian_w2(a, b) - 1.0) > 1e-12:
            return "gaussian W2 misses the 1-D closed form"

    def check_posterior_quadrature():
        target = posterior_moments(problem)
        quad = quadrature_moments(problem)
        if np.linalg.norm(quad.mean - target.mean) > 1e-4:
            return "quadrature disagrees with the analytic posterior"

    def check_slope_fit():
        js = [10.0, 100.0, 1000.0]
        fit = fit_slope([(j, 7.0 * j ** -0.5) for j in js])
        if abs(fit.slope + 0.5) > 1e-12 or fit.r_squared < 1.0 - 1e-12:
            return "slope fit misses an exact power law"

    return [
        ("spd_sqrt_round_trip", check_spd_sqrt),
        ("spd_sqrt_rejects_indefinite", check_spd_rejects_indefinite),
        ("noise_addressing", check_noise_addressing),
        ("stats_permutation_invariance", check_stats_permutation),
        ("degenerate_freeze", check_degenerate_freeze),
        ("linear_step_agreement", check_linear_agreement),
        ("affine_span_invariance", check_affine_span),
        ("rerun_determinism", check_rerun_determinism),
        ("particle_posterior_moments", check_particle_moments),
        ("reference_closed_form", check_reference_closed_form),
        ("reference_equilibrium", check_reference_equilibrium),
        ("metric_oracles", check_metric_oracles),
        ("posterior_quadrature", check_posterior_quadrature),
        ("slope_fit_power_law", check_slope_fit),
    ]


def _run_validate(cfg, out_dir):
    """One-shot execution of every module's core invariants at small
    sizes; any failure flips the report's flag (CLI exit 1)."""
    cells = []
    failures = {}
    for name, check in _validation_checks(cfg.seed):
        c0 = time.perf_counter()
        try:
            detail = check()
        except Exception as err:          # a crash is a failure, not an abort
            detail = f"{type(err).__name__}: {err}"
        wall = (time.perf_counter() - c0) * 1e3
        cells.append(StudyCell("validate", None, None, None, cfg.seed, name,
                               1.0 if detail is None else 0.0, wall))
        if detail is not None:
            failures[name] = detail
    return cells, {}, {"all_checks_passed": not failures}, {
        "failures": failures, "n_checks": len(cells)}


# per kind, the driver that runs its study: driver(cfg, out_dir) writes
# the study's own CSVs into out_dir (when given) and returns its cells,
# fits, flags and summary
_DRIVERS = {
    "sample": _run_sample,
    "study-j": _run_study_j,
    "study-time": _run_study_time,
    "study-coupling": _run_study_coupling,
    "demo-nonlinear": _run_demo_nonlinear,
    "validate": _run_validate,
}


def run_study(cfg, out_dir=None, threads=1):
    """Run a parsed config's study and, given out_dir, write its report
    files there; returns the StudyReport.

    threads is accepted and ignored: a study steps on the calling thread
    and measures its cells on one worker thread and the calling thread
    (_run_cells), a count that does not change, and the worker is joined
    before run_study returns or raises.  The keyword stays only because
    the benchmark calls run_study(cfg, out, threads=1) and its rerun
    check compares threads=1 with threads=2."""
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    cells, fits, flags, summary = _DRIVERS[cfg.kind](cfg, out_dir)
    report = StudyReport(kind=cfg.kind, base_seed=cfg.seed,
                         config_echo=cfg.echo, cells=cells, fits=fits,
                         flags=flags, summary=summary,
                         wall_ms_total=(time.perf_counter() - t0) * 1e3)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


# -------------------------------------------------------------- output


def _fit_as_json(fit):
    return {"slope": fit.slope, "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "points": [[float(a), float(b)] for a, b in fit.points]}


def _build_dependency(config, name):
    """A BLAS or LAPACK entry of numpy's or scipy's build configuration:
    name, version and OpenBLAS's configuration line, no install paths."""
    try:
        dep = config(mode="dicts")["Build Dependencies"][name]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return "unknown"
    return {key: dep.get(key)
            for key in ("name", "version", "openblas configuration")}


def _cpu_dispatch():
    """numpy's baseline SIMD targets and the dispatched targets this CPU
    enables: what np.show_runtime() reports as "baseline" and "found"."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"baseline": list(umath.__cpu_baseline__),
            "enabled": [target for target in umath.__cpu_dispatch__
                        if umath.__cpu_features__.get(target)]}


@functools.cache
def _environment():
    """What report.json records under "environment", computed once per
    process.  Noise and sums are bit-stable only on the same binaries,
    and np.tanh's bits also depend on the CPU dispatch level, so the
    report names them; fixed per environment, reruns stay equal.  The
    returned dict is shared: callers must not change it.  Top-level
    scipy is imported here, not with the package, which otherwise needs
    only exact W2's compiled assignment kernel (_kernels) and no scipy
    subpackage."""
    import scipy

    env = {"python": platform.python_version(),
           "numpy": np.__version__,
           "scipy": scipy.__version__,
           "machine": platform.machine()}
    # numpy and scipy each ship their own OpenBLAS build
    for dep in ("blas", "lapack"):
        env[dep] = {lib.__name__: _build_dependency(lib.show_config, dep)
                    for lib in (np, scipy)}
    env["cpu_dispatch"] = _cpu_dispatch()
    return env


def write_report(report, out_dir):
    """report.json plus the flat per-cell CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    doc = {
        # the single nondeterministic line: timestamp and wall time live
        # here and nowhere else in this file
        "generated": f"{stamp} wall_ms={report.wall_ms_total:.1f}",
        "package": f"eks-lab {__version__}",
        "environment": _environment(),
        "study": report.kind,
        "base_seed": report.base_seed,
        "passed": report.passed,
        "flags": report.flags,
        "config": report.config_echo,
        "fits": {name: _fit_as_json(fit)
                 for name, fit in sorted(report.fits.items())},
        "summary": report.summary,
        "cells": [cell.as_json() for cell in report.cells],
    }
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")

    csv_name = report.kind.replace("-", "_") + ".csv"
    lines = ["study,J,t,repeat,seed,metric_name,value,wall_ms"]
    for cell in report.cells:
        lines.append(",".join(str(v) for v in cell.as_row()))
    (out / csv_name).write_text("\n".join(lines) + "\n")
    return out / "report.json"


def _write_diagnostics(diag, path):
    if diag is None:
        return
    cols = ["step", "time", "coupling_error", "condition", "trace_cov_uu",
            "fourth_moment"]
    lines = [",".join(cols)]
    n = len(diag["step"])
    for i in range(n):
        lines.append(",".join(repr(float(diag[c][i])) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")
