#!/usr/bin/env python3
"""Run one plateflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Run from the repository root; plateflow is imported from ``src/`` of this
checkout, never from an installed copy.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Exits 2, printing no result, when the checkout has no
plateflow source.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("battery", "basis-64", "simulate-kirchhoff")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "plateflow" / "__init__.py").is_file():
        print(f"error: no plateflow source under {src}", file=sys.stderr)
        return 2

    # One core, one BLAS thread: the host-speed sampler then times the core
    # the program runs on.  BLAS reads its thread count once, at numpy import.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import harness

    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    harness.print_result(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
