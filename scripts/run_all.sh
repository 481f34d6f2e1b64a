#!/usr/bin/env bash
# Run every configs/*.json, in glob order, into $OUT_ROOT (default:
# results/); each file's "kind" names the eks-lab subcommand.  Each study
# self-grades against the bands pre-registered in its config; the script
# stops at the first failure (nonzero exit from eks-lab) with its status.
# Each study's wall seconds, interpreter start included, its CPU seconds
# and its peak resident memory print after it, then its report's fits.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_ROOT="${OUT_ROOT:-results}"

# one BLAS thread unless the caller set a count, as benchmarks/run.py
# does: the studies step from one thread on small matrices, where a BLAS
# thread pool only contends with them (see README)
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS-1}"
export MKL_NUM_THREADS="${MKL_NUM_THREADS-1}"

# runs eks-lab on the config argv[2] into argv[3] as a child and prints
# argv[1]'s wall seconds, the child's CPU seconds (user + system; above
# wall when it ran on more than one core) and its peak RSS (ru_maxrss,
# KiB on Linux) in MiB, then each fit of the report; exits with the
# child's status, 128 + N when signal N ended it
RUN='
import json, resource, subprocess, sys, time
name, config, out = sys.argv[1:]
with open(config) as fh:
    kind = json.load(fh)["kind"]
print(f"== {name} -> {out}", flush=True)
start = time.perf_counter()
status = subprocess.call(["eks-lab", kind, "--config", config, "--out", out])
wall = time.perf_counter() - start
if status:
    sys.exit(128 - status if status < 0 else status)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
cpu = usage.ru_utime + usage.ru_stime
rss = usage.ru_maxrss / 1024
print(f"== {name}: {wall:.2f} s, CPU {cpu:.2f} s, "
      f"peak RSS {rss:.1f} MB", flush=True)
with open(f"{out}/report.json") as fh:
    fits = json.load(fh)["fits"]
for label, fit in fits.items():
    slope, r_squared = fit["slope"], fit["r_squared"]
    print(f"{name}: {label}: slope {slope:+.4f} (r^2 {r_squared:.4f})",
          flush=True)
'

for config in configs/*.json; do
    name="$(basename "${config}" .json)"
    python3 -c "${RUN}" "${name}" "${config}" "${OUT_ROOT}/${name}"
done

echo "all studies passed; reports under ${OUT_ROOT}/"
