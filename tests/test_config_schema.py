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
# a shipped config of each kind
SHIPPED = {doc["kind"]: doc for doc in (
    json.loads(path.read_text())
    for path in sorted((ROOT / "configs").glob("*.json")))}


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


# value strategies for the table's numbers and sweeps, chosen so that most
# drawn configs parse; a flag is drawn from its allowed values
VALUES = {
    "seed": st.integers(0, 2 ** 64 - 1),
    "sde.h": st.sampled_from([0.0, 0.01, 0.05, 0.25, 0.5]),
    "sde.n_steps": st.integers(1, 9),
    "sde.j_particles": st.integers(2, 64),
    "repeats": st.integers(1, 3),
    "fit_t_min": st.floats(-1, 3),
    "sweep.j_values": sweep(st.integers(2, 512)),
    "sweep.t_checkpoints": sweep(st.integers(0, 100)).map(
        lambda ns: [0.05 * n for n in ns]),
    "rho0": st.builds(lambda mean: {"mean": mean,
                                    "cov": [[2.0, 0.5], [0.5, 1.0]]},
                      st.lists(st.floats(-5, 5), min_size=2, max_size=2)),
}


def draw_section(draw, schema, kind, prefix=""):
    """Values for the keys of a section of the table that this kind reads;
    a top-level key other than a section of numbers is drawn or left to
    its default."""
    doc = {}
    for key, field in schema.items():
        path = prefix + key
        if kind not in field.kinds or key in ("kind", "problem", "bands"):
            continue
        if (not prefix and key not in ("sde", "sweep")
                and draw(st.booleans())):
            continue
        if path in VALUES:
            doc[key] = draw(VALUES[path])
        elif isinstance(field.type, tuple):
            doc[key] = draw(st.sampled_from(field.type))
        else:
            doc[key] = draw_section(draw, field.type, kind, path + ".")
    return doc


@st.composite
def table_docs(draw):
    """Configs drawn from the table itself: only the keys the drawn kind
    reads, with values that mostly parse."""
    kind = draw(st.sampled_from(STUDY_KINDS))
    doc = {"kind": kind, **draw_section(draw, CONFIG, kind)}
    if kind == "demo-nonlinear":
        doc["problem"] = SHIPPED[kind]["problem"]
    own = [name for name, band in BANDS.items() if kind in band.kinds]
    if own:
        doc["bands"] = {name: draw(band_value(name))
                        for name in draw(st.lists(st.sampled_from(own),
                                                  unique=True, max_size=2))}
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


def foreign_keys(kind, schema=CONFIG, prefix="", label="config field"):
    """(path, message) of every key of the table outside this kind's
    kinds, in sections the kind reads; an unread section is one key."""
    for key, field in schema.items():
        name = key if label == "band" else prefix + key
        if kind not in field.kinds:
            yield prefix + key, (f"{label} '{name}' does not apply to {kind} "
                                 f"studies, only to {', '.join(field.kinds)}")
        elif isinstance(field.type, dict) and key not in ("problem", "rho0"):
            yield from foreign_keys(kind, field.type, prefix + key + ".",
                                    field.label or label)


@pytest.mark.parametrize("kind", STUDY_KINDS)
def test_a_key_its_kind_does_not_read_is_rejected(kind):
    cases = list(foreign_keys(kind))
    assert cases
    for path, message in cases:
        doc = json.loads(json.dumps(SHIPPED[kind]))
        *sections, key = path.split(".")
        section = doc
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(doc, base_dir=ROOT / "configs")
        assert str(err.value) == message


# the keys each kind reads, bands aside
READS = {
    "sample": {"seed", "problem", "rho0", "sde.h", "sde.n_steps",
               "sde.j_particles"},
    "study-j": {"seed", "problem", "rho0", "sde.h", "sde.n_steps",
                "repeats", "sweep.j_values"},
    "study-coupling": {"seed", "problem", "rho0", "sde.h", "sde.n_steps",
                       "repeats", "sweep.j_values", "share_noise"},
    "study-time": {"seed", "problem", "rho0", "sde.h", "sde.j_particles",
                   "with_particles", "fit_t_min", "sweep.t_checkpoints"},
    "demo-nonlinear": {"seed", "problem", "rho0", "sde.h", "sde.n_steps",
                       "sde.j_particles", "repeats"},
    "validate": {"seed"},
}


def read_keys(kind, schema=CONFIG, prefix=""):
    """The dotted keys of the table a kind reads, sde's and sweep's own
    keys included."""
    keys = set()
    for key, field in schema.items():
        if kind in field.kinds:
            keys.add(prefix + key)
            if key in ("sde", "sweep"):
                keys |= read_keys(kind, field.type, key + ".")
    return keys


@pytest.mark.parametrize("kind", STUDY_KINDS)
def test_each_kind_echoes_exactly_the_keys_it_reads(kind):
    echo = parse_config(SHIPPED[kind], base_dir=ROOT / "configs").echo
    echoed = set(echo) | {f"{section}.{key}" for section in ("sde", "sweep")
                          for key in echo.get(section, {})}
    assert echoed == read_keys(kind)
    sections = {"kind", "sde", "sweep"} | ({"bands"} if kind != "validate"
                                           else set())
    assert echoed - sections == READS[kind]
    assert_echo_round_trips(parse_config(echo))
