#!/usr/bin/env python3
"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed 0] [--seconds 20] [--workload NAME ...]

Each run is its own process (``perfbench/run.py``), so each workload's peak
memory is its own.  Prints each run's metric table (name, value, unit,
sample count), then the tracing overhead per workload: the traced
repetition's time (``trace.wall_s``) minus the untraced median raw time
(``wall_raw_s`` of the run record), both not scaled for host speed.
Exits 1 when any check fails or any run does not finish cleanly.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    print(f"== {workload} trace={trace} seed={seed}")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        print(proc.stderr, file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res["record"] = next(json.loads(line[len("record "):]) for line in lines
                         if line.startswith("record "))
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    ok = True
    overhead = {}
    for workload in args.workload:
        plain = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        for res in (plain, traced):
            ok = ok and res is not None and res["correct"]
        if plain is not None and traced is not None:
            base = plain["record"]["wall_raw_s"]
            overhead[workload] = (traced["metrics"]["trace.wall_s"]["value"] - base, base)
    print("== tracing overhead (traced trace.wall_s - untraced wall_raw_s)")
    for workload, (extra, base) in overhead.items():
        print(f"{workload:<20} {extra:+.3f} s  ({100 * extra / base:+.1f}% of {base:.3f} s)")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
