#!/usr/bin/env bash
# Fast sanity pass: the self-validation suite plus a small sample run.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_ROOT="${OUT_ROOT:-results}"

# one BLAS thread unless the caller set a count, as benchmarks/run.py
# does: the studies step from one thread on small matrices, where a BLAS
# thread pool only contends with them (see README)
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS-1}"
export MKL_NUM_THREADS="${MKL_NUM_THREADS-1}"

eks-lab validate --config configs/validate.json --out "${OUT_ROOT}/validate"
eks-lab sample --config configs/sample.json --out "${OUT_ROOT}/sample_quick" \
        --seed 1
