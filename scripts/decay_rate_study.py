"""Decay-rate study: fitted energy decay versus the generator's abscissa.

Sweeps viscosity, runs an ensemble of unforced trajectories as one batch,
fits the exponential rate of each member's quadratic energy, and compares
with the spectral abscissa of the reduced generator.  Writes a CSV table and
prints a summary.

Usage: python scripts/decay_rate_study.py [--out DIR] [--seed N]
"""

import argparse
import os

import numpy as np

from plateflow.cli import write_csv
from plateflow.dynamics import fit_decay_rate, simulate
from plateflow.galerkin import assemble
from plateflow.mesh import Grid, build_grid
from plateflow.modal import build_modal_basis
from plateflow.spectrum import spectral_abscissa


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out_decay")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ensemble", type=int, default=5)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    grid = build_grid(Grid(n_x=16, n_z=16))
    basis = build_modal_basis(grid, m=12, n=8)[0]
    rng = np.random.default_rng(args.seed)

    rows = []
    for nu in (0.25, 0.5, 1.0, 2.0, 4.0):
        sys_ = assemble(basis, nu=nu)
        abscissa = spectral_abscissa(sys_)
        y0 = np.column_stack([sys_.random_state(rng) for _ in range(args.ensemble)])
        tr = simulate(sys_, y0, T=4.0, dt=1e-3, stride=10, keep_states=False)
        rates = [0.5 * fit_decay_rate(tr.t, E0)[0] for E0 in tr.E0.T]
        mean_rate = float(np.mean(rates))
        rel = abs(mean_rate - abs(abscissa)) / abs(abscissa)
        rows.append((nu, abscissa, mean_rate, float(np.min(rates)),
                     float(np.max(rates)), rel))
        print(f"nu={nu:5.2f}  abscissa={abscissa:10.4f}  "
              f"fitted={mean_rate:10.4f}  rel_err={rel:.2e}")

    write_csv(os.path.join(args.out, "decay_rates.csv"),
              ("nu", "abscissa", "rate_mean", "rate_min", "rate_max", "rel_err"),
              rows)
    print(f"wrote {args.out}/decay_rates.csv")


if __name__ == "__main__":
    main()
