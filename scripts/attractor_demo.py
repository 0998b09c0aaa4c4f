"""Attractor demo: a driven nonlinear run collapsing onto its equilibrium.

A constant shear body force drives the cavity; the membrane-stiffened plate
settles onto the stationary state found independently by minimizing the
stationary functional.  Prints the relative-energy decay and distance to the
equilibrium at a few milestones.

Usage: python scripts/attractor_demo.py [--seed N] [--T HORIZON]
"""

import argparse

import numpy as np

from plateflow.dynamics import simulate
from plateflow.forces import BergerForce
from plateflow.galerkin import assemble, fluid_forcing_field
from plateflow.mesh import Grid, build_grid
from plateflow.modal import build_modal_basis
from plateflow.steady import distance_to_equilibrium
from plateflow.verification import estar_monotone


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--T", type=float, default=15.0)
    args = ap.parse_args()

    grid = build_grid(Grid(n_x=16, n_z=16))
    basis = build_modal_basis(grid, m=12, n=8)[0]
    sys_ = assemble(basis, nu=1.0, gf=fluid_forcing_field("shear", 2.0, grid))
    model = BergerForce(grid, kappa=5.0, gamma=0.0)

    y0 = sys_.random_state(np.random.default_rng(args.seed))

    traj = simulate(sys_, y0, T=args.T, dt=1e-3, model=model, stride=50)
    dist, eq = distance_to_equilibrium(sys_, traj.states, model)
    # the energy relative to the stationary flow, less the work of p* and the
    # plate load: the Lyapunov functional of the forced problem
    Estar = traj.Estar
    print(f"equilibrium residual: {eq.residual:.3e}")
    print(f"equilibrium energy:   {eq.energy:.6e}")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        k = min(int(frac * (len(traj.t) - 1)), len(traj.t) - 1)
        print(f"t={traj.t[k]:7.2f}  distance={dist[k]:.3e}  "
              f"Estar={Estar[k]: .6e}")
    assert estar_monotone(Estar), \
        "relative energy increased along the trajectory"
    print("relative energy decreased monotonically")


if __name__ == "__main__":
    main()
