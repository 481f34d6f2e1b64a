#!/usr/bin/env bash
# The two convergence-rate experiments plus the broken-coupling control:
#   study_j            W2(ensemble, mean-field Gaussian) vs J  (slope ~ -1/2)
#   study_coupling     squared coupling error vs J             (slope ~ -1)
#   ..._control        same sweep, independent noise           (slope ~ 0)
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_ROOT="${OUT_ROOT:-results}"

for name in study_j study_coupling study_coupling_control; do
    echo "== ${name}"
    eks-lab "$(python3 -c "import json;print(json.load(open('configs/${name}.json'))['kind'])")" \
            --config "configs/${name}.json" \
            --out "${OUT_ROOT}/${name}"
done

for name in study_j study_coupling study_coupling_control; do
    python3 - "$OUT_ROOT/$name/report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for label, fit in doc["fits"].items():
    print(f"{sys.argv[1]}: {label}: slope {fit['slope']:+.4f} "
          f"(r^2 {fit['r_squared']:.4f})")
EOF
done
