#!/usr/bin/env python3
"""Compare two report.json files number by number, or two result trees.

    python3 scripts/report_diff.py [--exact] A/report.json B/report.json
    python3 scripts/report_diff.py [--exact] A_DIR B_DIR

The "generated" entry (timestamp and wall time) is ignored.  Every
structural difference is listed: a key on one side only, lists of
different lengths, leaves of different types, or unequal non-numeric
leaves (strings, booleans, null).  For every numeric leaf path, with list
indices folded into [*], the script prints the largest absolute and the
largest relative difference, |a - b| / max(|a|, |b|), and the concrete
path where the absolute one occurs.  A last line gives the maxima over
all numeric leaves.

Given two directories (the OUT_ROOT of two scripts/run_all.sh runs), it
compares every */report.json pair as above and every */ensemble*.csv
and */diagnostics.csv pair byte for byte.  A file present on one side
only is a structural difference; a CSV pair whose bytes differ is a
numeric one.

Exit status: 0 when the structure matches (numbers may differ), 1 when
it does not, 2 on a usage error or an unreadable file.  With --exact,
any numeric leaf or CSV that differs also exits 1, so the script checks
two reports, or two result trees, for bitwise equality of their bodies.
"""

import json
import math
import re
import sys
from pathlib import Path

IGNORED = ("generated",)
# what a result tree holds per study: the report, and the particle and
# diagnostics CSVs whose bytes are deterministic (the per-cell CSV
# carries wall times)
TREE_FILES = ("*/report.json", "*/ensemble*.csv", "*/diagnostics.csv")
USAGE = ("usage: report_diff.py [--exact] A/report.json B/report.json\n"
         "       report_diff.py [--exact] A_DIR B_DIR")


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def walk(a, b, path, numeric, structural):
    """Record numeric leaf differences and structural ones under path."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if not path and key in IGNORED:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                side = "B" if key not in a else "A"
                structural.append(f"{sub}: only in {side}")
            else:
                walk(a[key], b[key], sub, numeric, structural)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            structural.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            walk(x, y, f"{path}[{i}]", numeric, structural)
    elif is_number(a) and is_number(b):
        numeric.append((path, *difference(a, b)))
    elif type(a) is not type(b) or a != b:
        structural.append(f"{path}: {a!r} vs {b!r}")


def difference(a, b):
    """(absolute, relative) difference of two numbers; equal NaNs and
    equal infinities differ by zero."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    absolute = abs(a - b)
    if not math.isfinite(absolute):
        return math.inf, math.inf
    return absolute, absolute / max(abs(a), abs(b))


def fold(path):
    return re.sub(r"\[\d+\]", "[*]", path)


def compare(a, b):
    """(rows, structural): rows maps each folded numeric path to
    (max abs, max rel, concrete path of max abs, leaf count)."""
    numeric, structural = [], []
    walk(a, b, "", numeric, structural)
    rows = {}
    for path, absolute, relative in numeric:
        key = fold(path)
        best_abs, best_rel, where, count = rows.get(
            key, (-1.0, 0.0, path, 0))
        if absolute > best_abs:
            best_abs, where = absolute, path
        rows[key] = (best_abs, max(best_rel, relative), where, count + 1)
    return rows, structural


def diff_reports(names, exact):
    """Print the comparison of two report files; return the exit status."""
    docs = []
    for name in names:
        try:
            with open(name) as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as err:
            print(f"report_diff: cannot read {name}: {err}", file=sys.stderr)
            return 2
    rows, structural = compare(*docs)
    for line in structural:
        print(f"STRUCTURE {line}")
    width = max([len(key) for key in rows] + [4])
    print(f"{'path':<{width}}  {'max_abs':>10}  {'max_rel':>10}  "
          f"{'n':>5}  at")
    for key in sorted(rows):
        absolute, relative, where, count = rows[key]
        print(f"{key:<{width}}  {absolute:10.3g}  {relative:10.3g}  "
              f"{count:5d}  {where}")
    total_abs = max((r[0] for r in rows.values()), default=0.0)
    total_rel = max((r[1] for r in rows.values()), default=0.0)
    n = sum(r[3] for r in rows.values())
    print(f"{'all':<{width}}  {total_abs:10.3g}  {total_rel:10.3g}  "
          f"{n:5d}  structural differences: {len(structural)}")
    return 1 if structural or (exact and total_abs != 0.0) else 0


def diff_trees(roots, exact):
    """Compare two result trees file by file; return the exit status."""
    found = [{str(path.relative_to(root)) for pattern in TREE_FILES
              for path in root.glob(pattern)} for root in roots]
    if not found[0] | found[1]:
        print(f"report_diff: no results under {roots[0]} or {roots[1]}",
              file=sys.stderr)
        return 2
    status = 0
    for rel in sorted(found[0] ^ found[1]):
        print(f"STRUCTURE {rel}: only in {'A' if rel in found[0] else 'B'}")
        status = 1
    for rel in sorted(found[0] & found[1]):
        pair = [root / rel for root in roots]
        if rel.endswith(".json"):
            print(f"== {rel}")
            status = max(status, diff_reports(pair, exact))
            continue
        try:
            same = pair[0].read_bytes() == pair[1].read_bytes()
        except OSError as err:
            print(f"report_diff: cannot read {rel}: {err}", file=sys.stderr)
            return 2
        print(f"{'same' if same else 'DIFFERS':<9} {rel}")
        if exact and not same:
            status = max(status, 1)
    return status


def main(argv):
    exact = "--exact" in argv
    argv = [arg for arg in argv if arg != "--exact"]
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    paths = [Path(arg) for arg in argv]
    if all(path.is_dir() for path in paths):
        return diff_trees(paths, exact)
    return diff_reports(argv, exact)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
