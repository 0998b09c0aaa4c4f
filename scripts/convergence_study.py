"""Grid convergence of the first Stokes eigenvalue of the cavity.

Builds the slowest Stokes mode of the unit cavity on grids of 16^2 up to
128^2 cells, doubling, and prints mu_0(h), the successive-difference ratios
(mu_2h - mu_h) / (mu_h - mu_h/2), which tend to 4 for a second-order scheme,
the Richardson estimate mu_h + (mu_h - mu_2h) / 3 from the two finest grids,
and its distance from the continuum value.  In streamfunction form the
Stokes eigenproblem is the buckling problem of the clamped plate, whose first
eigenvalue on the unit square is 52.344691 (Bjorstad and Tjostheim,
Computing 63, 1999).  Each build's wall time and the process peak RSS after
it go on separate lines that start with "timing"; they vary from run to run,
the other lines do not.  Exits 1 unless every ratio lies in [3.5, 4.5].

Usage: python scripts/convergence_study.py [--max-n N]   (N = 64 or 128)
"""

import argparse
import resource
import sys
import time

from plateflow.mesh import Grid, build_grid
from plateflow.modal import solve_stokes_eigenmodes

RATIO_BOUNDS = (3.5, 4.5)
CONTINUUM_MU0 = 52.344691


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=128, choices=(64, 128))
    args = ap.parse_args()

    sizes = [16 * 2 ** k for k in range(5) if 16 * 2 ** k <= args.max_n]
    mu0, timings = [], []
    for n in sizes:
        t0 = time.perf_counter()
        grid = build_grid(Grid(n_x=n, n_z=n))
        mu0.append(float(solve_stokes_eigenmodes(grid, 1)[0][0]))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timings.append((n, time.perf_counter() - t0, rss_mb))
        print(f"n={n:4d}  mu0={mu0[-1]:.10f}")

    ratios = [(a - b) / (b - c) for a, b, c in zip(mu0, mu0[1:], mu0[2:])]
    for n, r in zip(sizes, ratios):
        print(f"ratio (mu_2h - mu_h) / (mu_h - mu_h/2), n={n}/{2 * n}/{4 * n}: {r:.4f}")
    richardson = mu0[-1] + (mu0[-1] - mu0[-2]) / 3.0
    print(f"richardson mu0 = {richardson:.6f}")
    print(f"continuum mu0 = {CONTINUUM_MU0:.6f} (Bjorstad and Tjostheim 1999), "
          f"richardson - continuum = {richardson - CONTINUUM_MU0:.3g} "
          f"(relative {(richardson - CONTINUUM_MU0) / CONTINUUM_MU0:.3g})")
    for n, wall, rss_mb in timings:
        print(f"timing n={n}: build {wall:.3f} s, process peak RSS {rss_mb:.1f} MB")

    lo, hi = RATIO_BOUNDS
    if not all(lo <= r <= hi for r in ratios):
        print(f"FAIL: a ratio lies outside [{lo}, {hi}]")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
