#!/usr/bin/env python3
"""In-process, interleaved A/B of run_study between a revision and the
working tree:

    python3 scripts/ab_rev.py REV [WORKLOAD|CONFIG ...] [--pairs N]
                              [--seed S]

exports REV with git archive into a temporary directory (removed on
exit) and imports that tree's package as eks_lab_rev, next to the
working tree's eks_lab; the package's imports are relative, so both load
in one process.  Each argument is a benchmark workload
(benchmarks/workloads.make_config at --seed, default 43) or a config
file such as configs/study_coupling.json; the default is coupling-sweep.
Each side parses the config with its own parse_config, reading a
problem path relative to the config file.

After one untimed warm-up study per side, the studies alternate in
pairs, REV then the working tree and the working tree then REV, each
timed in process CPU seconds (report and CSV writes included, BLAS on
one thread).  Per workload the script prints each side's median, the
median and quartiles of the per-pair ratio tree / REV, the pairs the
tree won, and whether every study's report body (report.json without
its "generated" line), ensemble CSVs and diagnostics CSV equal REV's
first study's byte for byte.  When they do not, a second line gives the
largest absolute and relative difference over the numeric leaves of
REV's first report and the tree's, and their structural differences,
as scripts/report_diff.py compares them.  A study that fails a band
on either side is named with the band; the script then exits 1, as it
does when outputs differ, and exits 0 only when every study passes its
bands and every output equals REV's.

In one process both sides see the same host speed within a pair, so
small effects resolve that separate launches, whose speed on a shared
host swings by tens of percent, do not.  A missing or unknown revision,
and a target that cannot be read or that either side's parse_config
rejects, exits 2 with one line before any study runs.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, as benchmarks/run.py; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import report_diff  # noqa: E402  (the comparison report_diff.py prints)
OUTPUTS = ("report.json", "ensemble*.csv", "diagnostics.csv")


def fail(message):
    print(f"ab_rev.py: {message}", file=sys.stderr)
    sys.exit(2)


def resolve(rev):
    proc = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"unknown revision '{rev}'")
    return proc.stdout.strip()


def import_tree(src, name):
    """The package under src/eks_lab, imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "eks_lab" / "__init__.py",
        submodule_search_locations=[str(src / "eks_lab")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def config_doc(arg, seed):
    if arg.endswith(".json") or os.sep in arg:
        try:
            return json.loads(Path(arg).read_text())
        except (OSError, ValueError) as err:
            fail(f"{arg}: cannot read config: {err}")
    import workloads  # read-only: the benchmark's own generator
    try:
        return workloads.make_config(arg, seed)
    except KeyError as err:
        fail(err.args[0])


def outputs(out_dir):
    """The deterministic bytes of one study's output directory."""
    files = {}
    for pattern in OUTPUTS:
        for path in sorted(out_dir.glob(pattern)):
            text = path.read_bytes()
            if path.name == "report.json":
                text = b"".join(
                    line for line in text.splitlines(True)
                    if not line.lstrip().startswith(b'"generated"'))
            files[path.name] = text
    return files


def report_difference(rev_dir, tree_dir):
    """(largest absolute difference, largest relative difference, number
    of structural differences) between the report.json files of two
    output directories, by report_diff.compare."""
    docs = [json.loads((d / "report.json").read_text())
            for d in (rev_dir, tree_dir)]
    rows, structural = report_diff.compare(*docs)
    return (max((row[0] for row in rows.values()), default=0.0),
            max((row[1] for row in rows.values()), default=0.0),
            len(structural))


def timed_study(package, cfg, out_dir):
    t0 = time.process_time()
    report = package.run_study(cfg, out_dir, threads=1)
    return time.process_time() - t0, report, outputs(out_dir)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def parse(target, doc, sides):
    """The config of one target as each side parses it; a problem path
    in a config file is read relative to that file, as eks-lab reads
    it (a workload name's parent is ".")."""
    cfgs = []
    for side, package in zip(("rev", "tree"), sides):
        try:
            cfgs.append(package.parse_config(
                doc, base_dir=Path(target).parent))
        except package.ConfigError as err:
            fail(f"{target}: {side} side: config error: {err}")
    return cfgs


def compare(name, cfgs, sides, pairs, scratch):
    times = ([], [])
    first = None
    equal = passed = True
    for n in range(pairs + 1):
        order = (0, 1) if n % 2 == 0 else (1, 0)
        for side in order:
            out = scratch / f"{name}-{n}-{side}"
            seconds, report, files = timed_study(sides[side], cfgs[side],
                                                 out)
            first = first or files
            equal = equal and files == first
            if n:  # the first pair warms both sides up
                times[side].append(seconds)
                continue
            failed = [flag for flag, ok in report.flags.items() if not ok]
            if failed:
                passed = False
                print(f"{name}: {('rev', 'tree')[side]} fails band "
                      f"{', '.join(failed)}", flush=True)
    ratios = [b / a for a, b in zip(*times)]
    q1, q3 = quartiles(ratios)
    wins = sum(r < 1.0 for r in ratios)
    print(f"{name}: rev {statistics.median(times[0]):.4f} s, "
          f"tree {statistics.median(times[1]):.4f} s (median CPU), "
          f"ratio {statistics.median(ratios):.3f} [{q1:.3f}, {q3:.3f}], "
          f"tree wins {wins}/{len(ratios)}, "
          f"outputs equal: {'yes' if equal else 'NO'}", flush=True)
    if not equal:
        absolute, relative, structural = report_difference(
            scratch / f"{name}-0-0", scratch / f"{name}-0-1")
        print(f"{name}: report leaves differ by at most {absolute:.3g} "
              f"absolute, {relative:.3g} relative; structural differences: "
              f"{structural}", flush=True)
    return equal and passed


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ab_rev.py",
        description="In-process interleaved run_study A/B of REV against "
                    "the working tree.")
    parser.add_argument("rev")
    parser.add_argument("targets", nargs="*", default=["coupling-sweep"],
                        metavar="WORKLOAD|CONFIG")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=43)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        fail(f"--pairs must be >= 1, got {args.pairs}")
    rev = resolve(args.rev)
    sys.path.insert(0, str(ROOT / "benchmarks"))
    names = [Path(t).stem if t.endswith(".json") else t
             for t in args.targets]
    docs = [config_doc(t, args.seed) for t in args.targets]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive,
                       check=True)
        sys.path.insert(0, str(ROOT / "src"))
        import eks_lab
        sides = (import_tree(tmp / "rev" / "src", "eks_lab_rev"), eks_lab)
        cfgs = [parse(t, doc, sides) for t, doc in zip(args.targets, docs)]
        print(f"rev {args.rev} ({rev[:12]}) against the working tree, "
              f"{args.pairs} pairs, seed {args.seed}", flush=True)
        ok = [compare(name, pair, sides, args.pairs, tmp)
              for name, pair in zip(names, cfgs)]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
