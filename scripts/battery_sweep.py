"""Battery sweep: the ten-criterion battery on a declared list of
configurations, or on the default configuration at a range of probe seeds.

Runs verification.run_all at probe seed 0 on each configuration, with the
battery's own bounds.  For each it prints one line with its verdicts, then
each failing criterion's line as verify-all prints it: the member furthest
past its bound, with value, bound and margin, and how many of the criterion's
judged members fail.  Each configuration's
summary goes to DIR/NAME/verify_all.json, so that two sweeps can be compared
with scripts/compare_artifacts.py.  With --seeds A:B it runs the default
configuration at each probe seed A <= seed < B instead, prints the same lines
per seed, writes DIR/seedN/verify_all.json (the bytes of verify-all --seed N)
and ends with the set of failing seeds.  A configuration or seed that raises
is reported and the sweep goes on; the exit status is 0 when every run ran,
whatever its verdicts.

Usage: python scripts/battery_sweep.py [--out DIR] [NAME ...]   (default: all)
       python scripts/battery_sweep.py [--out DIR] --seeds A:B
"""

import argparse
import os
import sys
import time
import traceback

from plateflow.cli import write_json
from plateflow.config import ExperimentConfig, ModesConfig, ProbesConfig
from plateflow.mesh import Grid
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


def _config(name, seed=0):
    n_x, n_z, L_x, L_z, m, n = CONFIGS[name]
    return ExperimentConfig(geometry=Grid(n_x=n_x, n_z=n_z, L_x=L_x, L_z=L_z),
                            modes=ModesConfig(m=m, n=n), probes=ProbesConfig(seed=seed))


def sweep(label, cfg, out, head):
    """Run the battery on cfg, write DIR/label/verify_all.json, and print its
    line and failing rows; returns whether every criterion passed."""
    lines = []
    start = time.perf_counter()
    summary, ok = run_all(cfg, os.path.join(out, "modes_cache"), lines.append)
    os.makedirs(os.path.join(out, label), exist_ok=True)
    write_json(os.path.join(out, label, "verify_all.json"), summary)
    failing = [line for line, crit in zip(lines, CRITERIA) if not summary[crit]["pass"]]
    print(f"{head}{len(CRITERIA) - len(failing)} of {len(CRITERIA)} pass "
          f"({time.perf_counter() - start:.1f} s)", flush=True)
    for line in failing:
        print(f"  {line}")
    return ok


def _seeds(text):
    first, _, stop = text.partition(":")
    try:
        seeds = range(int(first), int(stop))
    except ValueError:
        seeds = range(0)
    if not 0 <= seeds.start < seeds.stop:
        raise argparse.ArgumentTypeError(f"expected A:B with integers 0 <= A < B, got {text!r}")
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("names", nargs="*", metavar="NAME", help=f"of {', '.join(CONFIGS)}")
    ap.add_argument("--seeds", type=_seeds, metavar="A:B",
                    help="the default configuration at probe seeds A <= seed < B")
    ap.add_argument("--out", default="out_sweep", help="directory of the summaries and mode cache")
    args = ap.parse_args(argv)
    unknown = [name for name in args.names if name not in CONFIGS]
    if unknown:
        ap.error(f"unknown configuration {', '.join(unknown)}")
    if args.seeds is not None and args.names:
        ap.error("--seeds runs the default configuration; name no configuration with it")
    if args.seeds is None:
        runs = [(name, _config(name), "{}: {}x{} on {:g} x {:g}, m = {}, n = {}: "
                 .format(name, *CONFIGS[name])) for name in args.names or CONFIGS]
    else:
        runs = [(f"seed{s}", _config("default", s), f"seed {s}: ") for s in args.seeds]
    ran, failing = True, []
    for label, cfg, head in runs:
        try:
            if not sweep(label, cfg, args.out, head):
                failing.append(cfg.probes.seed)
        except Exception as exc:            # report it and go on with the next one
            print(f"{head}error: {type(exc).__name__}: {exc}", flush=True)
            traceback.print_exc()
            ran = False
    if args.seeds is not None:
        print(f"failing seeds: {{{', '.join(map(str, failing))}}}")
    return 0 if ran else 1


if __name__ == "__main__":
    sys.exit(main())
