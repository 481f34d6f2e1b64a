#!/usr/bin/env bash
# Run every configured study into $OUT_ROOT (default: results/).
# Each study self-grades against the bands pre-registered in its config;
# the script stops at the first failure (nonzero exit from eks-lab).
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_ROOT="${OUT_ROOT:-results}"

run() {
    local name="$1"
    echo "== ${name} -> ${OUT_ROOT}/${name}"
    eks-lab "$2" --config "configs/${name}.json" \
            --out "${OUT_ROOT}/${name}"
}

run validate                 validate
run sample                   sample
run study_time               study-time
run study_j                  study-j
run study_coupling           study-coupling
run study_coupling_control   study-coupling
run demo_nonlinear           demo-nonlinear

echo "all studies passed; reports under ${OUT_ROOT}/"
