"""Smoke test of the benchmark harness at toy sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload once untraced and once traced on toy configs, then
checks that every metric BENCHMARK.json declares is emitted with its
unit, that the trace saw the calls the workload mapping predicts, and
that a study failing its band is counted as failed.
"""

import json
import math
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5


@pytest.fixture(scope="module")
def toy_runs():
    return {(name, trace): run.run_workload(name, SEED, 0.1, trace, toy=True)
            for name in workloads.WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(toy_runs, trace,
                                                        section):
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    for name in workloads.WORKLOADS:
        result, _ = toy_runs[(name, trace)]
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared, name
        assert all(math.isfinite(m["value"])
                   for m in result["metrics"].values()), name
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 2, name


def test_trace_sees_every_predicted_call(toy_runs):
    for name in workloads.WORKLOADS:
        result, record = toy_runs[(name, 1)]
        detail = record["trace_detail"]
        assert detail["expected_calls_missing"] == [], name
        assert detail["expected_zero_called"] == [], name
        for fn in workloads.EXPECTED_CALLS[name]:
            assert detail["functions"][fn]["calls"] > 0, (name, fn)
            if fn in tracing.NAMED_FUNCTIONS:
                assert result["metrics"][f"{fn}.calls"]["value"] > 0
        # every study is split into spans under one root per study
        assert detail["studies_traced"] >= 1


def test_failing_band_counts_as_failed_study():
    doc = workloads.make_config("j-sweep", SEED, toy=True)
    doc["bands"] = {"slope_j": [5.0, 6.0]}
    result, record = run.run_workload("j-sweep", SEED, 0.1, 0, toy=True,
                                      doc=doc)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert record["end_to_end"]["bands_passed"]["mean"] == 0.0
