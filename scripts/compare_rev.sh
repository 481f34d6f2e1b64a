#!/usr/bin/env bash
# Bitwise gate between a revision and the working tree:
#
#     scripts/compare_rev.sh REV
#
# exports REV with git archive into a temporary directory (removed on
# exit), runs that tree's scripts/run_all.sh and the working tree's into
# two result roots, each against its own src/, then compares the roots
# with scripts/report_diff.py --exact.  The exit status is
# report_diff.py's: 0 when every report body, ensemble CSV and
# diagnostics CSV is bitwise equal, 1 when any differs or the trees
# differ in structure.  A study that fails its bands on either side
# stops the script first, with run_all.sh's status; a bad argument
# exits 2.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: scripts/compare_rev.sh REV" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
here="$(pwd)"
if ! rev="$(git rev-parse --verify --quiet "$1^{commit}")"; then
    echo "compare_rev.sh: unknown revision '$1'" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"

# run_all.sh calls eks-lab; this launcher runs the package found first on
# PYTHONPATH, which run_tree points at the tree being run
mkdir "$tmp/bin"
cat > "$tmp/bin/eks-lab" <<'LAUNCHER'
#!/usr/bin/env bash
exec python3 -c 'import sys; from eks_lab.cli import main; sys.exit(main())' "$@"
LAUNCHER
chmod +x "$tmp/bin/eks-lab"

run_tree() {
    PATH="$tmp/bin:$PATH" PYTHONPATH="$1/src" OUT_ROOT="$2" \
        bash "$1/scripts/run_all.sh"
}

echo "=== $1 (${rev:0:12})"
run_tree "$tmp/rev" "$tmp/results-rev"
echo "=== working tree"
run_tree "$here" "$tmp/results-tree"

python3 scripts/report_diff.py --exact "$tmp/results-rev" "$tmp/results-tree"
