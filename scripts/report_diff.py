#!/usr/bin/env python3
"""Compare two report.json files number by number.

    python3 scripts/report_diff.py A/report.json B/report.json

The "generated" entry (timestamp and wall time) is ignored.  Every
structural difference is listed: a key on one side only, lists of
different lengths, leaves of different types, or unequal non-numeric
leaves (strings, booleans, null).  For every numeric leaf path, with list
indices folded into [*], the script prints the largest absolute and the
largest relative difference, |a - b| / max(|a|, |b|), and the concrete
path where the absolute one occurs.  A last line gives the maxima over
all numeric leaves.

Exit status: 0 when the structure matches (numbers may differ), 1 when
it does not, 2 on a usage error or an unreadable file.
"""

import json
import math
import re
import sys

IGNORED = ("generated",)
USAGE = "usage: report_diff.py A/report.json B/report.json"


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


def diff_reports(names):
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
    return 1 if structural else 0


def main(argv):
    if len(argv) != 2 or any(arg.startswith("-") for arg in argv):
        print(USAGE, file=sys.stderr)
        return 2
    return diff_reports(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
