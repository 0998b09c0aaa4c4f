"""Compare the CSV and JSON artifacts of two plateflow output directories.

Walks every .csv and .json file under DIR_A and DIR_B (the mode cache,
``modes_cache``, is skipped) and prints, per file, the worst relative and
absolute difference between matching numbers.  Two numbers match when their
relative difference is at most 1e-6 or their absolute difference at most
1e-12, or, under a JSON key of BOUNDS (the finite-difference noise of
``gradient_errors``), when both are at most that key's bound; other values
(strings, booleans, nulls) must be equal.

Exits 1 when a file is missing on one side, a key, header or shape differs,
or some number does not match; 0 otherwise.

Usage: python scripts/compare_artifacts.py DIR_A DIR_B
"""

import argparse
import csv
import json
import math
import os
import sys

from plateflow.verification import BOUNDS as PROGRAM_BOUNDS

REL_TOL = 1e-6
ABS_TOL = 1e-12
SKIP_DIR = "modes_cache"
# JSON keys whose numbers are judged against the program's bound, not each other
BOUNDS = {q: bound for _, q, _, bound in PROGRAM_BOUNDS if q == "gradient_errors"}


class Mismatch(Exception):
    pass


def artifacts(root):
    found = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != SKIP_DIR)
        for name in filenames:
            if name.endswith((".csv", ".json")):
                found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


class Diff:
    """The worst differences seen so far, and the numbers that do not match."""

    def __init__(self):
        self.rel = (0.0, "")
        self.abs = (0.0, "")
        self.bad = []

    def numbers(self, a: float, b: float, where: str, bound=None):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        d = abs(a - b)
        rel = d / max(abs(a), abs(b))
        if not rel <= self.rel[0]:
            self.rel = (rel, where)
        if not d <= self.abs[0]:
            self.abs = (d, where)
        within = bound is not None and a <= bound and b <= bound
        if not (rel <= REL_TOL or d <= ABS_TOL or within):
            self.bad.append(f"{where}: {a!r} vs {b!r}")


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_json(a, b, diff: Diff, where="$", bound=None):
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            raise Mismatch(f"{where}: keys differ: {sorted(set(a) ^ set(b))}")
        for k in sorted(a):
            compare_json(a[k], b[k], diff, f"{where}.{k}", BOUNDS.get(k, bound))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: length {len(a)} vs {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            compare_json(x, y, diff, f"{where}[{i}]", bound)
    elif _is_number(a) and _is_number(b):
        diff.numbers(float(a), float(b), where, bound)
    elif a != b or type(a) is not type(b):
        raise Mismatch(f"{where}: {a!r} vs {b!r}")


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(rows_a, rows_b, diff: Diff):
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"{len(rows_a)} vs {len(rows_b)} rows")
    if rows_a and rows_a[0] != rows_b[0]:
        raise Mismatch(f"header {rows_a[0]} vs {rows_b[0]}")
    header = rows_a[0] if rows_a else []
    for r, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(rb):
            raise Mismatch(f"row {r}: {len(ra)} vs {len(rb)} columns")
        for c, (x, y) in enumerate(zip(ra, rb)):
            where = f"row {r} {header[c] if c < len(header) else c}"
            fx, fy = _float(x), _float(y)
            if fx is not None and fy is not None:
                diff.numbers(fx, fy, where)
            elif x != y:
                raise Mismatch(f"{where}: {x!r} vs {y!r}")


def compare_file(path_a, path_b) -> Diff:
    diff = Diff()
    with open(path_a, encoding="utf-8", newline="") as fa, \
            open(path_b, encoding="utf-8", newline="") as fb:
        if path_a.endswith(".json"):
            try:
                a, b = json.load(fa), json.load(fb)
            except ValueError as exc:
                raise Mismatch(f"unreadable JSON: {exc}") from exc
            compare_json(a, b, diff)
        else:
            compare_csv(list(csv.reader(fa)), list(csv.reader(fb)), diff)
    return diff


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    args = ap.parse_args(argv)

    files_a, files_b = artifacts(args.dir_a), artifacts(args.dir_b)
    ok = True
    for name in sorted(files_a ^ files_b):
        side = args.dir_a if name in files_a else args.dir_b
        print(f"{name}: only in {side}")
        ok = False
    for name in sorted(files_a & files_b):
        try:
            diff = compare_file(os.path.join(args.dir_a, name), os.path.join(args.dir_b, name))
        except Mismatch as exc:
            print(f"{name}: MISMATCH {exc}")
            ok = False
            continue
        if diff.rel[0] == 0.0:
            print(f"{name}: identical numbers")
        else:
            print(f"{name}: worst relative {diff.rel[0]:.3e} at {diff.rel[1]}; "
                  f"worst absolute {diff.abs[0]:.3e} at {diff.abs[1]}")
        for line in diff.bad:
            print(f"{name}: MISMATCH {line}")
        ok = ok and not diff.bad
    if not files_a and not files_b:
        print("no CSV or JSON artifacts found")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
