"""Stationary states: the driven Stokes flow, its pressure trace on the
elastic face, the stationary plate problem as an energy minimization on mode
coefficients, and long-run convergence of trajectories to equilibria."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np
import scipy.linalg as la

from .forces import ForceModel
from .galerkin import GalerkinSystem
from .mesh import Grid, VelocityField, inner_fluid
from .stokes import StokesSolver

STAT_TOL = 1e-8


class StationaryError(RuntimeError):
    pass


@dataclass
class Equilibrium:
    alpha_star: np.ndarray          # flow-mode coefficients of the stationary velocity
    beta_star: np.ndarray           # plate-mode coefficients of the stationary deflection
    pstar_coeffs: np.ndarray        # (p*, xi_j) pairings driving the plate problem
    residual: float
    energy: float                   # value of the stationary functional Psi


def solve_stationary_stokes(gf: VelocityField, g: Grid, nu: float = 1.0):
    """Stationary flow for body force gf with no-slip walls.

    Returns (solution, p_star_trace); the trace is cross-validated against the
    adjoint lifting of gf, two routes to the same functional.
    """
    solver = StokesSolver(g, nu=nu)
    sol = solver.solve_body_force(gf)
    p_trace = solver.pressure_trace(sol, gf)
    ref = StokesSolver(g, nu=1.0).adjoint_trace_functional(gf) if nu != 1.0 else \
        solver.adjoint_trace_functional(gf)
    err = float(np.max(np.abs(p_trace - ref)))
    if err > 1e-8:
        raise StationaryError(
            f"pressure trace disagrees with the adjoint route by {err:.3e}"
        )
    return sol, p_trace


def stationary_flow_coefficients(sys: GalerkinSystem, gf: VelocityField) -> np.ndarray:
    """alpha*_k = (G0, psi_k) / (nu mu_k): the reduced stationary flow."""
    return inner_fluid(gf, sys.basis.psi, sys.basis.grid) / (sys.nu * sys.basis.mu)


def pstar_mode_coeffs(sys: GalerkinSystem, gf: VelocityField) -> np.ndarray:
    """(p*, xi_j) computed as (G0, N0 xi_j): the duality route."""
    return inner_fluid(gf, sys.basis.lift, sys.basis.grid)


def stationary_residual(sys: GalerkinSystem, beta: np.ndarray,
                        pstar_coeffs: np.ndarray, model: ForceModel | None = None) -> float:
    """Norm of the stationary plate equations over the plate mode basis."""
    r = sys.kappa * beta + sys.force_coeffs(model, beta) - pstar_coeffs - sys.f_plate
    return float(np.linalg.norm(r))


def _psi_value(sys: GalerkinSystem, beta, load, model):
    return 0.5 * float(sys.kappa @ beta ** 2) + sys.potential(model, beta) - float(load @ beta)


def minimize_stationary(sys: GalerkinSystem, pstar_coeffs: np.ndarray,
                        model: ForceModel | None = None,
                        beta_init: np.ndarray | None = None,
                        stat_tol: float = STAT_TOL, max_iter: int = 500) -> Equilibrium:
    """Descend the stationary plate functional Psi on zero-mean mode coefficients.

    Each step is the Newton step on the exact Hessian diag(kappa) + dfc/dbeta
    where that is positive definite, else the gradient preconditioned by
    1/kappa; both backtrack to the Armijo condition on Psi, so the iteration
    descends into minima, not saddles.  The Armijo test allows Psi a rounding
    of 1e-13 |Psi|, below which it cannot rank steps, and the loop stops once
    the gradient is 1e-13 of its terms.  The zero-mean restriction is built
    into the basis, which fixes the additive pressure constant.
    """
    beta = np.zeros(sys.n) if beta_init is None else np.array(beta_init, float)
    fc, jac = sys.force_map(model), sys.force_jacobian(model)
    load = pstar_coeffs + sys.f_plate
    norm = np.linalg.norm
    val = _psi_value(sys, beta, load, model)
    for _ in range(max_iter):
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

    res = stationary_residual(sys, beta, pstar_coeffs, model)
    if res > stat_tol:
        raise StationaryError(
            f"stationary descent stagnated: residual {res:.3e} above {stat_tol:.1e}"
        )
    return Equilibrium(
        alpha_star=np.zeros(sys.m),
        beta_star=beta,
        pstar_coeffs=pstar_coeffs.copy(),
        residual=res,
        energy=val,
    )


def find_equilibria(sys: GalerkinSystem, pstar_coeffs: np.ndarray,
                    model: ForceModel | None = None, starts: int = 8,
                    scale: float = 0.5, seed: int = 0) -> list[Equilibrium]:
    """Multi-start descent; returns distinct equilibria sorted by energy.  Energies
    equal to 1e-12 relative (the +-beta pair of a symmetric plate) tie and are
    ordered by the first plate coefficient, larger first."""
    rng = np.random.default_rng(seed)
    found = []
    inits = [None] + [scale * rng.standard_normal(sys.n) for _ in range(starts - 1)]
    for b0 in inits:
        try:
            eq = minimize_stationary(sys, pstar_coeffs, model, beta_init=b0)
        except StationaryError:
            continue
        if not any(np.linalg.norm(eq.beta_star - e.beta_star) < 1e-6 for e in found):
            found.append(eq)

    def order(a, b):
        if abs(a.energy - b.energy) <= 1e-12 * max(abs(a.energy), abs(b.energy)):
            return b.beta_star[0] - a.beta_star[0]
        return a.energy - b.energy
    return sorted(found, key=cmp_to_key(order))


def equilibrium_state(sys: GalerkinSystem, gf: VelocityField, eq: Equilibrium) -> np.ndarray:
    alpha_star = stationary_flow_coefficients(sys, gf)
    return sys.join(alpha_star, eq.beta_star, np.zeros(sys.n))


def converge_to_equilibrium(sys: GalerkinSystem, y0: np.ndarray, gf: VelocityField,
                            T: float, dt: float, model: ForceModel | None = None,
                            stride: int = 50):
    """Run the dynamics and measure the distance to an independently found
    equilibrium (seeded from the trajectory tail).  The trajectory's Estar is
    shifted by the stationary flow and by p* plus the plate load, so it is the
    Lyapunov functional of the forced problem.

    Returns (distances over time, matched Equilibrium, trajectory).
    """
    from .dynamics import simulate

    alpha_star = stationary_flow_coefficients(sys, gf)
    pstar = pstar_mode_coeffs(sys, gf)
    traj = simulate(sys, y0, T, dt, model, stride=stride,
                    alpha_star=alpha_star, pstar_coeffs=pstar + sys.f_plate)
    beta_tail = traj.states[-1][sys.m:sys.m + sys.n]
    eq = minimize_stationary(sys, pstar, model, beta_init=beta_tail)
    y_eq = sys.join(alpha_star, eq.beta_star, np.zeros(sys.n))
    dist = np.array([sys.state_norm(traj.states[k] - y_eq) for k in range(len(traj.t))])
    return dist, eq, traj
