import numpy as np
import pytest

from plateflow.forces import BergerForce
from plateflow.galerkin import ForcingConfig, fluid_forcing_field
from plateflow.mesh import inner_plate
from plateflow.steady import (
    StationaryError,
    converge_to_equilibrium,
    equilibrium_state,
    find_equilibria,
    minimize_stationary,
    pstar_mode_coeffs,
    solve_stationary_stokes,
    stationary_flow_coefficients,
    stationary_residual,
)


@pytest.fixture(scope="module")
def gf(grid):
    return fluid_forcing_field(ForcingConfig(fluid_kind="shear", fluid_amp=2.0), grid)


@pytest.fixture(scope="module")
def berger(grid):
    return BergerForce(grid, kappa=5.0, gamma=0.0)


def test_stationary_pressure_routes_agree(grid, gf):
    sol, p_trace = solve_stationary_stokes(gf, grid, nu=1.0)
    assert abs(float(np.mean(p_trace))) < 1e-12


def test_pstar_duality_with_direct_trace(grid, basis, sys_free, gf):
    pstar = pstar_mode_coeffs(sys_free, gf)
    _, p_trace = solve_stationary_stokes(gf, grid, nu=1.0)
    direct = np.array([inner_plate(p_trace, x, grid) for x in basis.xi])
    assert np.max(np.abs(pstar - direct)) < 1e-10


def test_stationary_flow_solves_reduced_equations(sys_free, gf, basis):
    from plateflow.mesh import inner_fluid
    alpha_star = stationary_flow_coefficients(sys_free, gf)
    proj = np.array([inner_fluid(gf, basis.psi[k], basis.grid) for k in range(basis.m)])
    assert np.max(np.abs(sys_free.nu * basis.mu * alpha_star - proj)) < 1e-12


def test_minimize_stationary_linear_case(sys_free, gf):
    # no nonlinear force: beta* = pstar / kappa in closed form
    pstar = pstar_mode_coeffs(sys_free, gf)
    eq = minimize_stationary(sys_free, pstar, model=None)
    assert np.max(np.abs(eq.beta_star - pstar / sys_free.kappa)) < 1e-10
    assert eq.residual < 1e-8


def test_minimize_stationary_nonlinear(sys_free, gf, berger):
    pstar = pstar_mode_coeffs(sys_free, gf)
    eq = minimize_stationary(sys_free, pstar, berger)
    assert eq.residual < 1e-8
    assert stationary_residual(sys_free, eq.beta_star, pstar, berger) < 1e-8
    # the minimizer beats nearby perturbations of the stationary functional
    rng = np.random.default_rng(0)
    for _ in range(5):
        pert = eq.beta_star + 1e-3 * rng.standard_normal(sys_free.n)
        assert stationary_residual(sys_free, pert, pstar, berger) > eq.residual


def test_find_equilibria_dedupes(sys_free, gf, berger):
    pstar = pstar_mode_coeffs(sys_free, gf)
    eqs = find_equilibria(sys_free, pstar, berger, starts=4)
    assert len(eqs) >= 1
    energies = [e.energy for e in eqs]
    assert energies == sorted(energies)
    for a in eqs:
        for b in eqs:
            if a is not b:
                assert np.linalg.norm(a.beta_star - b.beta_star) > 1e-6


def test_trajectory_attracted_to_equilibrium(sys_forced, grid, berger):
    gf_local = fluid_forcing_field(
        ForcingConfig(fluid_kind="shear", fluid_amp=1.0), grid)
    rng = np.random.default_rng(1)
    y0 = rng.standard_normal(sys_forced.m + 2 * sys_forced.n)
    y0 /= sys_forced.state_norm(y0)
    dist, eq, traj = converge_to_equilibrium(sys_forced, y0, gf_local,
                                             T=10.0, dt=1e-3, model=berger)
    # under the plate load Estar is the Lyapunov functional, so non-increasing
    assert np.max(np.abs(sys_forced.f_plate)) > 0
    assert np.all(np.diff(traj.Estar) <= 1e-10 * (1.0 + abs(traj.Estar[0])))
    assert dist[-1] < 1e-4
    assert dist[-1] < dist[0]
    y_eq = equilibrium_state(sys_forced, gf_local, eq)
    # the equilibrium is a fixed point of the discrete dynamics
    from plateflow.dynamics import Stepper
    y1, _ = Stepper(sys_forced, 1e-3, berger).step(y_eq)
    assert sys_forced.state_norm(y1 - y_eq) < 1e-10


def test_minimize_reports_stagnation(sys_free, gf, berger):
    pstar = pstar_mode_coeffs(sys_free, gf)
    with pytest.raises(StationaryError):
        minimize_stationary(sys_free, pstar, berger, max_iter=0, stat_tol=1e-300)


def test_minimize_stationary_reaches_rounding_residual(sys_forced, gf, berger):
    # the Newton steps on the exact Hessian drive the forced Berger residual
    # to rounding, far below the STAT_TOL acceptance bound
    pstar = pstar_mode_coeffs(sys_forced, gf)
    eq = minimize_stationary(sys_forced, pstar, berger)
    assert eq.residual <= 1e-12 * np.linalg.norm(pstar + sys_forced.f_plate)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_find_equilibria_orders_energy_ties(sys_free, grid, seed):
    # the buckled plate (gamma about twice critical) has the flat state and a
    # +-beta pair of minima whose energies agree to rounding: the pair comes
    # first, ordered by the first plate coefficient, larger first
    buckled = BergerForce(grid, kappa=5.0, gamma=165.6)
    eqs = find_equilibria(sys_free, np.zeros(sys_free.n), buckled, seed=seed)
    assert len(eqs) == 3
    a, b, flat = eqs
    assert abs(a.energy - b.energy) <= 1e-12 * abs(a.energy)
    assert a.beta_star[0] > 0 > b.beta_star[0]
    assert np.max(np.abs(a.beta_star + b.beta_star)) <= 1e-8 * np.max(np.abs(a.beta_star))
    assert flat.energy == 0.0 and np.all(flat.beta_star == 0.0)


def test_minimize_stationary_converges_from_every_start_on_buckled_plate(sys_free, grid):
    # Psi is about -389 at the buckled minima, so near them the Armijo test
    # cannot rank the last Newton steps without its rounding allowance; every
    # seeded start still reaches a residual at rounding
    buckled = BergerForce(grid, kappa=5.0, gamma=165.6)
    rng = np.random.default_rng(0)
    for _ in range(7):
        eq = minimize_stationary(sys_free, np.zeros(sys_free.n), buckled,
                                 beta_init=0.5 * rng.standard_normal(sys_free.n))
        assert eq.energy < 0
        assert eq.residual <= 1e-12 * np.linalg.norm(sys_free.kappa * eq.beta_star)
