"""Properties of the config schema (studies.CONFIG) and its walker.

Any JSON document parses to a StudyConfig or fails with a ConfigError,
never another exception, and every config that parses has an echo that
parses back to the same echo.  The shipped configs and the benchmark's
workload configs are held to the same round trip, so the schema can never
reject what the benchmark or the README feeds it.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eks_lab.studies import (
    BANDS,
    CONFIG,
    STUDY_KINDS,
    ConfigError,
    load_config,
    parse_config,
)

ROOT = Path(__file__).resolve().parents[1]


def table_keys(schema):
    """Every key the table knows, at any depth."""
    keys = set(schema)
    for field in schema.values():
        if isinstance(field.type, dict):
            keys |= table_keys(field.type)
    return keys


# no "/" in any string: a drawn problem "path" then names a file beside
# the config, never a device or a file elsewhere on the machine
TEXT = st.text(alphabet=st.characters(blacklist_characters="/"), max_size=8)
KEYS = st.sampled_from(sorted(table_keys(CONFIG) | {"path"})) | TEXT
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from(["default", *STUDY_KINDS]) | TEXT)
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(KEYS, inner, max_size=5),
                    max_leaves=24)
# mostly a known kind at the root, so that the walk reaches the sections
DOCS = st.builds(lambda kind, rest: {"kind": kind, **rest},
                 st.sampled_from(STUDY_KINDS),
                 st.dictionaries(KEYS, JSON, max_size=6)) | JSON


def sweep(elements, min_size=1):
    return st.lists(elements, min_size=min_size, max_size=5,
                    unique=True).map(sorted)


def band_value(name):
    number = st.floats(-10, 10) | st.integers(-10, 10)
    if BANDS[name].type == "interval":
        return st.tuples(number, number).map(sorted)
    return number


@st.composite
def table_docs(draw):
    """Configs drawn from the table's own types and ranges, so that most
    of them parse."""
    kind = draw(st.sampled_from(STUDY_KINDS))
    doc = {"kind": kind,
           "seed": draw(st.integers(0, 2 ** 64 - 1)),
           "repeats": draw(st.integers(1, 3)),
           "fit_t_min": draw(st.floats(-1, 3)),
           "sde": {"h": draw(st.sampled_from([0.0, 0.01, 0.05, 0.25, 0.5])),
                   "n_steps": draw(st.integers(1, 9)),
                   "j_particles": draw(st.integers(2, 64)),
                   "sqrt_tol": draw(st.floats(1e-15, 1.0))}}
    for flag in ("share_noise", "with_particles", "write_ensemble"):
        if draw(st.booleans()):
            doc[flag] = draw(st.booleans())
    if kind in ("study-j", "study-coupling"):
        doc["sweep"] = {"j_values": draw(sweep(st.integers(2, 512)))}
    if kind == "study-time":
        doc["sweep"] = {"t_checkpoints": [
            0.05 * n for n in draw(sweep(st.integers(0, 100)))]}
    if kind == "demo-nonlinear":
        doc["problem"] = json.loads(
            (ROOT / "configs" / "demo_nonlinear.json").read_text())["problem"]
    elif draw(st.booleans()):
        doc["rho0"] = {"mean": draw(st.lists(st.floats(-5, 5), min_size=2,
                                             max_size=2)),
                       "cov": [[2.0, 0.5], [0.5, 1.0]]}
    own = [name for name, band in BANDS.items() if kind in band.kinds]
    doc["bands"] = {name: draw(band_value(name))
                    for name in draw(st.lists(st.sampled_from(own or ["x"]),
                                              unique=True, max_size=2))
                    if name in own}
    return doc


@st.composite
def edited_docs(draw):
    """A table-drawn config with one value, at any depth, replaced by an
    arbitrary JSON value."""
    doc = draw(table_docs())
    section = doc
    while True:
        key = draw(KEYS)
        if isinstance(section.get(key), dict) and draw(st.booleans()):
            section = section[key]
        else:
            section[key] = draw(JSON)
            return doc


def assert_echo_round_trips(cfg):
    text = json.dumps(cfg.echo, allow_nan=False)
    again = parse_config(json.loads(text))
    assert json.dumps(again.echo) == text


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=DOCS | edited_docs())
def test_any_document_parses_or_raises_config_error(tmp_path, doc):
    try:
        cfg = parse_config(doc, base_dir=tmp_path)
    except ConfigError:
        return
    assert_echo_round_trips(cfg)


@settings(max_examples=100, deadline=None)
@given(doc=table_docs())
def test_parsed_configs_echo_round_trip(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert_echo_round_trips(cfg)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_configs_parse_and_round_trip(path):
    assert_echo_round_trips(load_config(path))


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("toy", [True, False], ids=["toy", "full"])
@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_benchmark_workload_configs_parse_and_round_trip(name, toy):
    for seed in range(4):
        assert_echo_round_trips(
            parse_config(WORKLOADS.make_config(name, seed, toy)))
