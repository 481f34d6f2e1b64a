#!/usr/bin/env bash
# Run every configured study into $OUT_ROOT (default: results/).
# Each study self-grades against the bands pre-registered in its config;
# the script stops at the first failure (nonzero exit from eks-lab).
# Each study's wall seconds, interpreter start included, its CPU seconds
# and its peak resident memory print after it.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_ROOT="${OUT_ROOT:-results}"

# runs argv[2:] as a child and prints argv[1]'s wall seconds, the
# child's CPU seconds (user + system; above wall when it ran on more
# than one core) and its peak RSS (ru_maxrss, KiB on Linux) in MiB;
# exits with the child's status, 128 + N when signal N ended it
MEASURE='
import resource, subprocess, sys, time
start = time.perf_counter()
status = subprocess.call(sys.argv[2:])
wall = time.perf_counter() - start
if status:
    sys.exit(128 - status if status < 0 else status)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
cpu = usage.ru_utime + usage.ru_stime
rss = usage.ru_maxrss / 1024
print(f"== {sys.argv[1]}: {wall:.2f} s, CPU {cpu:.2f} s, "
      f"peak RSS {rss:.1f} MB", flush=True)
'

run() {
    echo "== ${1} -> ${OUT_ROOT}/${1}"
    python3 -c "${MEASURE}" "${1}" eks-lab "$2" \
            --config "configs/${1}.json" --out "${OUT_ROOT}/${1}"
}

run validate                 validate
run sample                   sample
run study_time               study-time
run study_j                  study-j
run study_coupling           study-coupling
run study_coupling_control   study-coupling
run demo_nonlinear           demo-nonlinear

echo "all studies passed; reports under ${OUT_ROOT}/"
