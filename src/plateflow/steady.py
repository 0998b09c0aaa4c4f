"""Stationary states: the driven Stokes flow, its pressure trace on the
elastic face, the stationary plate problem as an energy minimization on mode
coefficients, and the distance of trajectories to equilibria.  The stationary
flow alpha* and the pressure load p* are read off the GalerkinSystem."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np
import scipy.linalg as la

from .forces import ForceModel
from .galerkin import GalerkinSystem
from .mesh import Grid, VelocityField
from .stokes import StokesSolver

STAT_TOL = 1e-8
# a correct stationary Stokes solve reads a momentum residual, relative to the
# largest face's terms, of at most 1.4e-13 on every forcing from 12x9 to 128x128;
# a pressure off by 1e-6 of itself reads 7.2e-8 (16x16) down to 1.2e-9 (bump, 128x128)
STOKES_TOL = 1e-9


class StationaryError(RuntimeError):
    pass


@dataclass
class Equilibrium:
    beta_star: np.ndarray           # plate-mode coefficients of the stationary deflection
    residual: float
    energy: float                   # value of the stationary functional Psi


def solve_stationary_stokes(gf: VelocityField, g: Grid, nu: float = 1.0):
    """Stationary flow for body force gf with no-slip walls.

    Returns (solution, p_star_trace).  Raises StationaryError when the
    solution's momentum residual, relative to the size of its terms on the
    largest face (StokesSolver.momentum_residual), exceeds STOKES_TOL.
    """
    solver = StokesSolver(g, nu=nu)
    sol = solver.solve_body_force(gf)
    res = solver.momentum_residual(sol, gf)
    if not res <= STOKES_TOL:
        raise StationaryError(
            f"stationary Stokes momentum residual {res:.3e} above {STOKES_TOL:.1e}"
        )
    return sol, solver.pressure_trace(sol, gf)


def stationary_residual(sys: GalerkinSystem, beta: np.ndarray,
                        model: ForceModel | None = None) -> float:
    """Norm of the stationary plate equations over the plate mode basis."""
    r = sys.kappa * beta + sys.force_map(model)(beta) - sys.pstar - sys.f_plate
    return float(np.linalg.norm(r))


def _psi_value(sys: GalerkinSystem, beta, load, model):
    return 0.5 * float(sys.kappa @ beta ** 2) + sys.potential(model, beta) - float(load @ beta)


def minimize_stationary(sys: GalerkinSystem, model: ForceModel | None = None,
                        beta_init: np.ndarray | None = None) -> Equilibrium:
    """Descend the stationary plate functional Psi on zero-mean mode coefficients.

    Each step is the Newton step on the exact Hessian diag(kappa) + dfc/dbeta
    where that is positive definite, else the gradient preconditioned by
    1/kappa; both backtrack to the Armijo condition on Psi, so the iteration
    descends into minima, not saddles.  The Armijo test allows Psi a rounding
    of 1e-13 |Psi|, below which it cannot rank steps, and the loop stops once
    the gradient is 1e-13 of its terms or after 500 steps; it raises when the
    residual is then above STAT_TOL.  The zero-mean restriction is built
    into the basis, which fixes the additive pressure constant.
    """
    beta = np.zeros(sys.n) if beta_init is None else np.array(beta_init, float)
    fc, jac = sys.force_map(model), sys.force_jacobian(model)
    load = sys.pstar + sys.f_plate
    norm = np.linalg.norm
    val = _psi_value(sys, beta, load, model)
    for _ in range(500):
        g = sys.kappa * beta + fc(beta) - load
        if norm(g) <= 1e-13 * (norm(load) + norm(sys.kappa * beta)):
            break
        try:
            d = -la.cho_solve(la.cho_factor(np.diag(sys.kappa) + jac(beta)), g)
        except la.LinAlgError:
            d = -g / sys.kappa
        slope, step = 1e-4 * float(g @ d), 1.0
        for _ in range(40):
            trial = beta + step * d
            tval = _psi_value(sys, trial, load, model)
            if tval <= val + step * slope + 1e-13 * abs(val):
                beta, val = trial, tval
                break
            step *= 0.5
        else:
            break

    res = stationary_residual(sys, beta, model)
    if res > STAT_TOL:
        raise StationaryError(
            f"stationary descent stagnated: residual {res:.3e} above {STAT_TOL:.1e}"
        )
    return Equilibrium(beta_star=beta, residual=res, energy=val)


def find_equilibria(sys: GalerkinSystem, model: ForceModel | None = None,
                    seed: int = 0) -> list[Equilibrium]:
    """Multi-start descent from the flat state and 7 random ones of
    scale 0.5; returns distinct equilibria sorted by energy.  Energies equal to
    1e-12 relative (the +-beta pair of a symmetric plate) tie and are ordered
    by the first plate coefficient, larger first."""
    rng = np.random.default_rng(seed)
    found = []
    inits = [None] + [0.5 * rng.standard_normal(sys.n) for _ in range(7)]
    for b0 in inits:
        try:
            eq = minimize_stationary(sys, model, beta_init=b0)
        except StationaryError:
            continue
        if not any(np.linalg.norm(eq.beta_star - e.beta_star) < 1e-6 for e in found):
            found.append(eq)

    def order(a, b):
        if abs(a.energy - b.energy) <= 1e-12 * max(abs(a.energy), abs(b.energy)):
            return b.beta_star[0] - a.beta_star[0]
        return a.energy - b.energy
    return sorted(found, key=cmp_to_key(order))


def equilibrium_state(sys: GalerkinSystem, eq: Equilibrium) -> np.ndarray:
    return sys.join(sys.alpha_star, eq.beta_star, np.zeros(sys.n))


# a trajectory's last sample lies this close to its equilibrium (criterion 7)
DISTANCE_TOL = 1e-4


def distance_to_equilibrium(sys: GalerkinSystem, states: np.ndarray,
                            model: ForceModel | None = None):
    """Distance of every sampled state (samples, N) to the equilibrium that descent
    from the last sample's plate coefficients finds.

    Returns (distances over the samples, the Equilibrium).
    """
    eq = minimize_stationary(sys, model, beta_init=states[-1][sys.m:sys.m + sys.n])
    y_eq = equilibrium_state(sys, eq)
    dist = np.array([sys.state_norm(states[k] - y_eq) for k in range(len(states))])
    return dist, eq
