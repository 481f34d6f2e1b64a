"""eks-lab benchmark: end-to-end study time and per-layer spans.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N]
                              [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ directory, so nothing needs installing.  Each workload
(see workloads.py) is one study config generated from --seed and run
through the public API, parse_config -> run_study(cfg, out_dir), with
threads=1, closed loop: one study at a time, back to back, for about
--seconds.

--trace 0 prints the end-to-end metrics:
  setup_s               median seconds, over a few launches, for a fresh
                        interpreter to import eks_lab and return from
                        parse_config on the workload's config
  study_s               seconds of run_study, report and CSV writes
                        included, at reference machine speed (below);
                        median over the run's studies
  particle_steps_per_s  particle-steps advanced per second of study_s
  peak_rss_mb           peak resident memory of this process (with
                        --workload all, the peak over the workloads so far)
  bands_passed          share of the config's bands that pass, averaged
                        over the studies
  rerun_identical       share of studies whose report.json equals the
                        first study's apart from the "generated" line
Failed studies over attempted ones is printed as error_rate.

Reference machine speed: a shared host's speed drifts by up to 2x over
tens of seconds, so each study's wall time is rescaled by a fixed
calibration loop timed around it (calibration.py).  Raw wall times and
calibration times are printed and kept in the results file.

--trace 1 alternates untraced and traced studies, with spans around
every public function of every eks_lab module (tracing.py), and prints
per-layer metrics: calls and share of self time per named function and
per layer, derived work ratios, the tracing overhead (traced minus
untraced study_s), and the layer grid (grid.py).  It also ranks the
layers by self time against the predicted dominant ones and checks the
calls seen against the workload's expected and bypassed functions
(workloads.py), printing any mismatch as a warning.

Every study passes a correctness gate: it must not raise, every
pre-registered band must pass, report.json must match the first study of
the invocation apart from its "generated" line, report.json must hold
only finite numbers and no CSV may hold an infinity.  A miss counts as
a failed study.  Once per invocation a reduced j-sweep also runs with
threads=1 and threads=2 and their report bodies must agree.

Output: a table on stdout, then as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  The full record
(environment stamp, per-study gate results, per-function self times,
spans) goes to .bench_runs/<workload>-seed<N>-trace<T>/ in the checkout.
Noise is bit-stable only on the same scipy binaries, so compare results
only between equal environment stamps.
"""

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the studies run with threads=1, and on two shared cores
# a two-thread BLAS pool made wide-sample twice as slow.  Set before numpy
# is first imported; an explicit setting is kept.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"

import calibration  # noqa: E402  (numpy only; eks_lab is imported in main)
import workloads  # noqa: E402

# name: (unit, better, statistic over the run's samples reported as its
# value).  The gate metrics report their mean so that a single miss shows.
END_TO_END = {
    "setup_s": ("s", "lower", "median"),
    "study_s": ("s", "lower", "median"),
    "particle_steps_per_s": ("1/s", "higher", "median"),
    "peak_rss_mb": ("MB", "lower", "median"),
    "bands_passed": ("share", "higher", "mean"),
    "rerun_identical": ("share", "higher", "mean"),
}

SETUP_LAUNCHES = 3
SETUP_PROBE = ("import json, sys\n"
               "from eks_lab import parse_config\n"
               "parse_config(json.load(open(sys.argv[1])))\n")


def environment():
    """Everything that decides whether two results may be compared."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(path.read_text().splitlines())
                    for path in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_lines": src_lines,
    }


def report_body(out_dir):
    """report.json without its "generated" line, the one line allowed to
    differ between reruns."""
    lines = (Path(out_dir) / "report.json").read_text().splitlines(True)
    return "".join(line for line in lines
                   if not line.lstrip().startswith('"generated"'))


INF = re.compile(r"\binf\b", re.IGNORECASE)


def all_finite(node):
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(all_finite(v) for v in node)
    return True


def summary(values, better):
    """Best, median, mean and worst value and sample count of one metric."""
    lo, hi = min(values), max(values)
    best, worst = (lo, hi) if better == "lower" else (hi, lo)
    return {"best": best, "median": statistics.median(values),
            "mean": statistics.fmean(values), "worst": worst,
            "n": len(values)}


class Session:
    """One workload's config and the studies run on it in one invocation."""

    def __init__(self, name, doc, out_dir):
        from eks_lab import parse_config
        from eks_lab import studies
        self.name = name
        self.calibrate = calibration.KERNELS[workloads.CALIBRATION[name]]
        self.studies = studies
        self.cfg = parse_config(doc)
        self.out_dir = out_dir
        self.particle_steps = workloads.particle_steps(doc)
        self.reference = None
        self.records = []

    def study(self, tracer=None):
        index = len(self.records)
        out = self.out_dir / f"study-{index:03d}"
        rec = {"index": index, "traced": tracer is not None, "error": None,
               "bands_passed": 0.0, "identical": False, "finite": False}
        report = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = self.studies.run_study(self.cfg, out, threads=1)
            else:
                tracer.run_id = index
                report = tracer.span("bench.study", self.studies.run_study,
                                     self.cfg, out, threads=1)
        except Exception as err:  # a crashing study is a failed study
            rec["error"] = f"{type(err).__name__}: {err}"
        rec["study_s"] = time.perf_counter() - t0
        if report is not None:
            self._gate(rec, report, out)
        rec["ok"] = (rec["error"] is None and rec["bands_passed"] == 1.0
                     and rec["identical"] and rec["finite"])
        self.records.append(rec)
        if index > 0:
            shutil.rmtree(out, ignore_errors=True)
        return rec

    def _gate(self, rec, report, out):
        bands = self.cfg.bands
        rec["bands_passed"] = (sum(report.flags.get(b) is True for b in bands)
                               / len(bands)) if bands else 1.0
        body = report_body(out)
        if self.reference is None:
            self.reference = body
        rec["identical"] = body == self.reference
        # NaN in a CSV marks a column that does not apply (diagnostics of
        # an uncoupled run); an infinity is an overflow
        rec["finite"] = (
            all_finite(json.loads((out / "report.json").read_text()))
            and not any(INF.search(p.read_text()) for p in out.glob("*.csv")))
        rec["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())

    def loop(self, seconds, tracer=None, min_runs=2):
        """Studies back to back until the next one would end past
        `seconds`; at least min_runs of them.  The workload's calibration
        loop runs before the first study and after each one, and every
        study is rescaled by the mean of the two runs around it.  With a
        tracer every second study is traced, so drift on a shared machine
        hits both alike."""
        start = time.perf_counter()
        before = self.calibrate()
        while True:
            traced = tracer is not None and len(self.records) % 2 == 1
            if traced:
                tracer.install()
            try:
                rec = self.study(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            after = self.calibrate()
            rec["calibration_s"] = (before + after) / 2.0
            rec["study_scaled_s"] = (rec["study_s"] * calibration.REF_S
                                     / rec["calibration_s"])
            rec["particle_steps_per_s"] = (self.particle_steps
                                           / rec["study_scaled_s"])
            before = after
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["study_s"] + after
                                        for r in self.records)
            if len(self.records) >= min_runs and elapsed + typical > seconds:
                return


def thread_check(seed, out_dir):
    """A reduced j-sweep must give the same report body on 1 and 2
    threads.  Untimed; returns a problem description or None."""
    from eks_lab import parse_config, run_study
    doc = workloads.make_config("j-sweep", seed, toy=True)
    doc["repeats"] = 2
    cfg = parse_config(doc)
    bodies = []
    for threads in (1, 2):
        out = out_dir / f"thread-check-{threads}"
        try:
            run_study(cfg, out, threads=threads)
        except Exception as err:  # reported like a mismatch, not raised
            return f"thread check failed on {threads} threads: {err!r}"
        bodies.append(report_body(out))
    if bodies[0] != bodies[1]:
        return "report.json differs between threads=1 and threads=2"
    return None


def measure_setup(config_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config_path)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(session, setup_times):
    recs = session.records
    samples = {
        "setup_s": setup_times,
        "study_s": [r["study_scaled_s"] for r in recs],
        "particle_steps_per_s": [r["particle_steps_per_s"] for r in recs],
        "study_wall_s": [r["study_s"] for r in recs],
        "calibration_s": [r["calibration_s"] for r in recs],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0],
        "bands_passed": [r["bands_passed"] for r in recs],
        "rerun_identical": [float(r["identical"]) for r in recs],
    }
    return {name: summary(vals, END_TO_END.get(name, ("s", "lower"))[1])
            for name, vals in samples.items()}


def per_layer(session, tracer, grid):
    from tracing import KALMAN_STEPS, LAYERS, NAMED_FUNCTIONS, STEP_FUNCTIONS
    plain = [r for r in session.records if not r["traced"]]
    traced = [r for r in session.records if r["traced"]]
    table, runs = tracer.self_times()
    total = sum(self_s for _, self_s in table.values())
    calls = {name: n for name, (n, _) in table.items()}
    self_s = {name: s for name, (_, s) in table.items()}

    def per_study(x):
        return x / runs

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in NAMED_FUNCTIONS:
        metrics[f"{name}.calls"] = (per_study(calls.get(name, 0)), "count")
        metrics[f"{name}.self_pct"] = (
            100.0 * ratio(self_s.get(name, 0.0), total), "%")
    layer_self = {layer: sum(s for n, s in self_s.items()
                             if n.startswith(layer + "."))
                  for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_pct"] = (
            100.0 * ratio(layer_self[layer], total), "%")
    counts = tracer.counts
    kalman_calls = sum(calls.get(n, 0) for n in KALMAN_STEPS)
    step_calls = sum(calls.get(n, 0) for n in STEP_FUNCTIONS)
    metrics.update({
        "reference.rk4_substeps": (per_study(counts["rk4_substeps"]),
                                   "count"),
        "ensemble.stats_calls_per_step": (
            ratio(calls.get("ensemble.empirical_stats", 0), kalman_calls),
            "ratio"),
        "ensemble.stats_tensor_mb": (
            counts["stats_tensor_bytes_max"] / 2**20, "MiB"),
        "model.forward_evals_per_step": (
            ratio(calls.get("model.apply_forward_batch", 0), kalman_calls),
            "ratio"),
        "noise.draws_per_particle_step": (
            ratio(counts["normals_drawn"],
                  counts["kalman_particle_components"]), "ratio"),
        "dynamics.step_self_us": (
            1e6 * ratio(sum(self_s.get(n, 0.0) for n in STEP_FUNCTIONS),
                        step_calls), "us"),
        "metrics.w2_cost_entries": (per_study(counts["w2_cost_entries"]),
                                    "count"),
        "studies.output_bytes": (
            statistics.median(r.get("output_bytes", 0) for r in traced),
            "bytes"),
    })
    traced_s = statistics.median(r["study_s"] for r in traced)
    plain_s = statistics.median(r["study_s"] for r in plain)
    metrics["trace.study_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    for name, value in grid.items():
        metrics[name] = (value, "s")

    ranking = sorted(LAYERS, key=lambda layer: -layer_self[layer])
    predicted = workloads.PREDICTED_DOMINANT[session.name]
    top = ranking[:len(predicted)]
    missing = [n for n in workloads.EXPECTED_CALLS[session.name]
               if calls.get(n, 0) == 0]
    unexpected = [n for n in workloads.EXPECTED_ZERO[session.name]
                  if calls.get(n, 0) > 0]
    detail = {
        "functions": {n: {"calls": per_study(calls[n]),
                          "self_s": per_study(self_s[n])}
                      for n in sorted(table)},
        "layers_self_s": {layer: per_study(layer_self[layer])
                          for layer in ranking},
        "counts": dict(counts),
        "studies_traced": runs,
        "dominant": {"predicted": list(predicted), "measured": top,
                     "match": set(top) == set(predicted)},
        "expected_calls_missing": missing,
        "expected_zero_called": unexpected,
    }
    return metrics, detail


def run_workload(name, seed, seconds, trace, toy=False, doc=None):
    """Run one workload; returns (result line dict, full record dict)."""
    out_dir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    doc = doc if doc is not None else workloads.make_config(name, seed, toy)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(doc, indent=1) + "\n")
    record = {"environment": environment(), "workload": name, "seed": seed,
              "seconds": seconds, "trace": trace, "toy": toy}
    problems = []
    thread_problem = thread_check(seed, out_dir)
    if thread_problem:
        problems.append(thread_problem)
    session = Session(name, doc, out_dir)
    if not trace:
        setup_times = measure_setup(config_path)
        session.loop(seconds)
        stats = end_to_end(session, setup_times)
        metrics = {n: (stats[n][stat], unit)
                   for n, (unit, _, stat) in END_TO_END.items()}
        record["end_to_end"] = stats
    else:
        from grid import run_grid
        from tracing import Tracer
        tracer = Tracer()
        session.loop(seconds, tracer)
        grid = run_grid(seed, toy=toy)
        metrics, detail = per_layer(session, tracer, grid)
        tracer.write_spans(out_dir / "spans.csv")
        record["trace_detail"] = detail
    record["studies"] = session.records
    record["problems"] = problems
    failed = sum(not r["ok"] for r in session.records)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(session.records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    record["result"] = result
    (out_dir / "results.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def print_table(record):
    result = record["result"]
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  -> {OUT.name}/"
          f"{record['workload']}-seed{record['seed']}-trace{record['trace']}")
    env = record["environment"]
    print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, nproc {env['nproc']}, src lines "
          f"{env['src_lines']}, BLAS threads "
          f"{env['blas_thread_env']['OPENBLAS_NUM_THREADS']}")
    for rec in record["studies"]:
        gate = ("ok" if rec["ok"] else
                rec["error"] or "bands {:.2f} identical {} finite {}".format(
                    rec["bands_passed"], rec["identical"], rec["finite"]))
        mode = "traced" if rec["traced"] else ""
        print(f"   study {rec['index']:3d} {mode:6s} {rec['study_s']:9.4f} s"
              f"  {gate}")
    if "end_to_end" in record:
        print(f"   {'metric':22s} {'unit':6s} {'reported':>9s} "
              f"{'best':>12s} {'median':>12s} {'worst':>12s} {'n':>3s}")
        for name, st in record["end_to_end"].items():
            unit, _, stat = END_TO_END.get(name, ("s", "lower", "-"))
            print(f"   {name:22s} {unit:6s} {stat:>9s} {st['best']:12.6g} "
                  f"{st['median']:12.6g} {st['worst']:12.6g} {st['n']:3d}")
    else:
        detail = record["trace_detail"]
        print("   layer self time per study (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in detail["layers_self_s"].items()))
        dom = detail["dominant"]
        print(f"   dominant layers {dom['measured']} vs predicted "
              f"{dom['predicted']}: {'match' if dom['match'] else 'MISMATCH'}")
        # a miss here means a wrapper was not installed where a name is
        # bound, or the code stopped calling (or started calling) a layer
        if detail["expected_calls_missing"]:
            print("   WARNING predicted called but not seen: "
                  + ", ".join(detail["expected_calls_missing"]))
        if detail["expected_zero_called"]:
            print("   WARNING predicted bypassed but called: "
                  + ", ".join(detail["expected_zero_called"]))
        for name, m in result["metrics"].items():
            print(f"   {name:40s} {m['unit']:6s} {m['value']:14.6g}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   error_rate {failed}/{attempted} = {failed / attempted:.3f}")
    for problem in record["problems"]:
        print(f"   PROBLEM: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "eks_lab" / "__init__.py").is_file():
        print(f"benchmark: no eks_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    results = []
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds,
                                      args.trace)
        print_table(record)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}/{m}": v for name, r in results
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
