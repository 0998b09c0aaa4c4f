"""Battery sweep: the ten-criterion battery on a declared list of configurations.

Runs verification.run_all at probe seed 0 on each configuration, with the
battery's own bounds.  For each it prints one line with its verdicts, then
each failing criterion's line as verify-all prints it: the member furthest
past its bound, with value, bound and margin, and how many of the criterion's
judged members fail.  Each configuration's
summary goes to DIR/NAME/verify_all.json, so that two sweeps can be compared
with scripts/compare_artifacts.py.  A configuration that raises is reported
and the sweep goes on; the exit status is 0 when every configuration ran,
whatever its verdicts.

Usage: python scripts/battery_sweep.py [--out DIR] [NAME ...]   (default: all)
"""

import argparse
import os
import sys
import time
import traceback

from plateflow.cli import write_json
from plateflow.config import ExperimentConfig, ModesConfig
from plateflow.mesh import GeometryConfig
from plateflow.verification import CRITERIA, run_all

# name: (n_x, n_z, L_x, L_z, m, n)
CONFIGS = {
    "default": (16, 16, 1.0, 1.0, 12, 8),
    "12x12": (12, 12, 1.0, 1.0, 12, 8),
    "32x32": (32, 32, 1.0, 1.0, 12, 8),
    "17x13": (17, 13, 1.0, 1.0, 12, 8),
    "12x20": (12, 20, 1.0, 1.5, 12, 8),
    "16x16-m5-n3": (16, 16, 1.0, 1.0, 5, 3),
    "24x24": (24, 24, 1.0, 1.0, 12, 8),
    "48x48": (48, 48, 1.0, 1.0, 12, 8),
    "64x64": (64, 64, 1.0, 1.0, 12, 8),
    "128x128": (128, 128, 1.0, 1.0, 12, 8),
    "16x16-m30-n12": (16, 16, 1.0, 1.0, 30, 12),
    "24x12": (24, 12, 2.0, 1.0, 12, 8),
    "32x8": (32, 8, 4.0, 0.5, 12, 8),
}


def sweep(name, out):
    """Run the battery on one configuration, write its summary and print its
    line and failing rows."""
    n_x, n_z, L_x, L_z, m, n = CONFIGS[name]
    cfg = ExperimentConfig(geometry=GeometryConfig(n_x=n_x, n_z=n_z, L_x=L_x, L_z=L_z),
                           modes=ModesConfig(m=m, n=n))
    lines = []
    start = time.perf_counter()
    summary, _ = run_all(cfg, os.path.join(out, "modes_cache"), lines.append)
    os.makedirs(os.path.join(out, name), exist_ok=True)
    write_json(os.path.join(out, name, "verify_all.json"), summary)
    failing = [line for line, crit in zip(lines, CRITERIA) if not summary[crit]["pass"]]
    print(f"{name}: {n_x}x{n_z} on {L_x:g} x {L_z:g}, m = {m}, n = {n}: "
          f"{len(CRITERIA) - len(failing)} of {len(CRITERIA)} pass "
          f"({time.perf_counter() - start:.1f} s)")
    for line in failing:
        print(f"  {line}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("names", nargs="*", metavar="NAME", help=f"of {', '.join(CONFIGS)}")
    ap.add_argument("--out", default="out_sweep", help="directory of the summaries and mode cache")
    args = ap.parse_args()
    unknown = [name for name in args.names if name not in CONFIGS]
    if unknown:
        ap.error(f"unknown configuration {', '.join(unknown)}")
    ran = True
    for name in args.names or CONFIGS:
        try:
            sweep(name, args.out)
        except Exception as exc:            # report it and go on with the next one
            print(f"{name}: error: {type(exc).__name__}: {exc}", flush=True)
            traceback.print_exc()
            ran = False
    return 0 if ran else 1


if __name__ == "__main__":
    sys.exit(main())
