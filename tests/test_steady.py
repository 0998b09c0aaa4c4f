import numpy as np
import pytest
import scipy.linalg as la

from plateflow.dynamics import Stepper, energies, simulate
from plateflow.forces import BergerForce
from plateflow.galerkin import ForcingConfig, assemble, fluid_forcing_field
from plateflow.mesh import GeometryConfig, VelocityField, build_grid, inner_fluid
from plateflow.modal import build_modal_basis
from plateflow import steady
from plateflow.steady import (
    STOKES_TOL,
    StationaryError,
    distance_to_equilibrium,
    equilibrium_state,
    find_equilibria,
    minimize_stationary,
    solve_stationary_stokes,
    stationary_residual,
)
from plateflow.stokes import StokesSolution, StokesSolver
from plateflow.verification import estar_monotone
from oracles import inner_plate
from saddle_stokes import assert_matches_saddle_point


@pytest.fixture(scope="module")
def gf(grid):
    return fluid_forcing_field(ForcingConfig(fluid_kind="shear", fluid_amp=2.0), grid)


@pytest.fixture(scope="module")
def sys_shear(basis):
    # the system assembled from gf alone
    return assemble(basis, 1.0, ForcingConfig("shear", 2.0))


@pytest.fixture(scope="module")
def berger(grid):
    return BergerForce(grid, kappa=5.0, gamma=0.0)


def test_stationary_pressure_routes_agree(grid):
    # the flow, pressure and trace against the saddle-point oracle; a correct
    # solve passes the momentum check with a wide margin, also on the unequal
    # grid where some faces carry only rounding (bump, constant).  The constant
    # forcing, a uniform downward w, is a gradient: the flow rests and the trace
    # is 0, up to rounding, which no relative comparison with the oracle can rank
    unequal = build_grid(GeometryConfig(n_x=12, n_z=9, L_x=1.3, L_z=0.7))
    for g, kinds in ((grid, ("shear",)), (unequal, ("shear", "bump", "constant"))):
        for kind in kinds:
            if kind == "constant":
                gf = VelocityField(g)
                gf.w[:, 1:-1] = -2.0
            else:
                gf = fluid_forcing_field(ForcingConfig(fluid_kind=kind, fluid_amp=2.0), g)
            for nu in (1.0, 0.7):
                sol, p_trace = solve_stationary_stokes(gf, g, nu=nu)
                assert abs(float(np.mean(p_trace))) < 1e-12
                if kind == "constant":
                    rest = (sol.v.u, sol.v.w, p_trace)
                    assert max(float(np.max(np.abs(a))) for a in rest) < 1e-12
                else:
                    assert_matches_saddle_point(sol, p_trace, gf, g, nu)
                assert StokesSolver(g, nu).momentum_residual(sol, gf) < 1e-2 * STOKES_TOL


def assert_rejects_a_perturbed_pressure(gf, g, monkeypatch):
    # a pressure off by 1e-6 of itself breaks the momentum balance beyond
    # STOKES_TOL, and the error names the measured value and the bound
    solve = StokesSolver.solve_body_force

    def perturbed(self, f):
        sol = solve(self, f)
        return StokesSolution(v=sol.v, p=sol.p * (1.0 + 1e-6))

    monkeypatch.setattr(StokesSolver, "solve_body_force", perturbed)
    with pytest.raises(StationaryError, match=r"residual \d\.\d{3}e-\d+ above 1\.0e-09"):
        solve_stationary_stokes(gf, g, nu=1.0)


def test_stationary_stokes_rejects_a_perturbed_pressure(grid, gf, monkeypatch):
    assert_rejects_a_perturbed_pressure(gf, grid, monkeypatch)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_stationary_stokes_rejects_a_perturbed_pressure_on_every_grid_size(n, monkeypatch):
    g = build_grid(GeometryConfig(n_x=n, n_z=n))
    gf = fluid_forcing_field(ForcingConfig(fluid_kind="shear", fluid_amp=2.0), g)
    assert_rejects_a_perturbed_pressure(gf, g, monkeypatch)


def test_pstar_duality_with_direct_trace(grid, basis, sys_shear, gf):
    _, p_trace = solve_stationary_stokes(gf, grid, nu=1.0)
    direct = np.array([inner_plate(p_trace, x, grid) for x in basis.xi])
    assert np.max(np.abs(sys_shear.pstar - direct)) < 1e-10


def test_stationary_flow_solves_reduced_equations(sys_shear, gf, basis, eigen):
    proj = np.array([inner_fluid(gf, basis.psi[k], basis.grid) for k in range(basis.m)])
    assert np.max(np.abs(sys_shear.nu * eigen[0] * sys_shear.alpha_star - proj)) < 1e-12


def test_stationary_data_off_unit_viscosity():
    # alpha* carries its 1/nu through D: at nu = 0.7 on an unequal grid, the
    # system's stationary data solve for the projections of the forcing, p* is the pressure
    # trace of the stationary Stokes solve, and without loads Estar is E
    g = build_grid(GeometryConfig(n_x=12, n_z=9, L_x=1.3, L_z=0.7))
    basis = build_modal_basis(g, m=6, n=4)[0]
    forcing = ForcingConfig(fluid_kind="bump", fluid_amp=1.5)
    gf = fluid_forcing_field(forcing, g)
    sys_ = assemble(basis, 0.7, forcing)
    assert np.array_equal(sys_.alpha_star, la.solve(sys_.D[:basis.m, :basis.m],
                                                    inner_fluid(gf, basis.psi, g), assume_a="pos"))
    assert np.array_equal(sys_.pstar, inner_fluid(gf, basis.lift, g))
    # the trace of the gated stationary Stokes solve
    _, p_trace = solve_stationary_stokes(gf, g, nu=0.7)
    assert np.max(np.abs(sys_.pstar - sys_.hXi @ p_trace)) < 1e-10
    free = assemble(basis, 0.7)
    y0 = np.random.default_rng(3).standard_normal(free.m + 2 * free.n)
    tr = simulate(free, y0, T=0.05, dt=1e-3, model=BergerForce(g, kappa=5.0, gamma=0.0), stride=5)
    assert tr.Estar.tobytes() == tr.E.tobytes()


def test_minimize_stationary_linear_case(sys_shear):
    # no nonlinear force: beta* = K^-1 pstar in closed form
    eq = minimize_stationary(sys_shear, model=None, beta_init=np.zeros(sys_shear.n))
    assert np.max(np.abs(eq.beta_star - la.solve(sys_shear.K, sys_shear.pstar))) < 1e-10
    assert eq.residual < 1e-8


def test_minimize_stationary_nonlinear(sys_shear, berger):
    eq = minimize_stationary(sys_shear, berger, np.zeros(sys_shear.n))
    assert eq.residual < 1e-8
    fc = sys_shear.plate_force(berger)[0]
    assert stationary_residual(sys_shear, eq.beta_star, fc) < 1e-8
    # the minimizer beats nearby perturbations of the stationary functional
    rng = np.random.default_rng(0)
    for _ in range(5):
        pert = eq.beta_star + 1e-3 * rng.standard_normal(sys_shear.n)
        assert stationary_residual(sys_shear, pert, fc) > eq.residual


def test_find_equilibria_dedupes(sys_shear, berger):
    eqs = find_equilibria(sys_shear, berger, seed=0)
    assert len(eqs) >= 1
    energies = [e.energy for e in eqs]
    assert energies == sorted(energies)
    for a in eqs:
        for b in eqs:
            if a is not b:
                assert np.linalg.norm(a.beta_star - b.beta_star) > 1e-6


def test_trajectory_attracted_to_equilibrium(sys_forced, berger):
    rng = np.random.default_rng(1)
    y0 = rng.standard_normal(sys_forced.m + 2 * sys_forced.n)
    y0 /= sys_forced.state_norm(y0)
    traj = simulate(sys_forced, y0, T=10.0, dt=1e-3, model=berger, stride=50)
    dist, eq = distance_to_equilibrium(sys_forced, traj.states, berger)
    # under the plate load Estar is the Lyapunov functional, so non-increasing
    assert np.max(np.abs(sys_forced.f_plate)) > 0
    assert estar_monotone(traj.Estar)
    assert dist[-1] < 1e-4
    assert dist[-1] < dist[0]
    y_eq = equilibrium_state(sys_forced, eq)
    # the equilibrium is a fixed point of the discrete dynamics
    y1 = Stepper(sys_forced, 1e-3, berger).step(y_eq)
    assert sys_forced.state_norm(y1 - y_eq) < 1e-10


def _forced_start(sys_forced, grid):
    # y0, and sys_forced's stationary flow and pressure load written out from
    # its fluid forcing
    gf = fluid_forcing_field(ForcingConfig(fluid_kind="shear", fluid_amp=1.0), grid)
    basis = sys_forced.basis
    rng = np.random.default_rng(2)
    y0 = rng.standard_normal(sys_forced.m + 2 * sys_forced.n)
    y0 *= 0.5 / sys_forced.state_norm(y0)
    D_vv = sys_forced.D[:basis.m, :basis.m]
    return y0, la.solve(D_vv, inner_fluid(gf, basis.psi, grid), assume_a="pos"), \
        inner_fluid(gf, basis.lift, grid)


def _written_out_estar(sys, states, model, alpha_star, load):
    # the energy of the samples less the stationary flow, plus the plate
    # potential, less the work of the load on the plate coefficients
    y_star = sys.join(alpha_star, np.zeros(sys.n), np.zeros(sys.n))
    beta = states[:, sys.m:sys.m + sys.n]
    return (sys.energy_quadratic((states - y_star).T) + sys.plate_force(model)[2](beta.T)
            - beta @ load)


def test_shifted_energy_matches_its_formula(sys_forced, sys_free, grid, berger):
    y0, alpha_star, pstar = _forced_start(sys_forced, grid)
    tr = simulate(sys_forced, y0, T=1.0, dt=1e-3, model=berger, stride=50)
    potential = sys_forced.plate_force(berger)[2]
    E0, E, Estar = energies(sys_forced, tr.states.T, potential, 1.0)
    want_Estar = _written_out_estar(sys_forced, tr.states, berger, alpha_star,
                                    pstar + sys_forced.f_plate)
    for got, want in ((E0, tr.E0), (E, tr.E), (Estar, want_Estar), (tr.Estar, want_Estar)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a single state gives the same numbers as a column
    assert np.allclose(energies(sys_forced, tr.states[-1], potential, 1.0)[2],
                       Estar[-1], rtol=1e-14, atol=0.0)
    # under half the loads the stationary flow and the plate load halve
    half = _written_out_estar(sys_forced, tr.states, berger, 0.5 * alpha_star,
                              0.5 * (pstar + sys_forced.f_plate))
    got = energies(sys_forced, tr.states.T, potential, 0.5)[2]
    assert np.max(np.abs(got - half)) <= 1e-14 * np.max(np.abs(half))
    # the shift moves Estar off E; on the unforced system, and at load 0, Estar is E
    assert np.max(np.abs(Estar - E)) > 1e-5
    plain = energies(sys_free, tr.states.T, sys_free.plate_force(berger)[2], 1.0)
    assert np.array_equal(plain[2], plain[1])
    assert np.array_equal(energies(sys_forced, tr.states.T, potential, 0.0)[2], E)


def test_distance_to_equilibrium_matches_its_parts(sys_forced, grid, berger):
    # the oracle: the run's shifted energy, descent from its last plate state,
    # and the distance of every sample, written out
    y0, alpha_star, pstar = _forced_start(sys_forced, grid)
    tr = simulate(sys_forced, y0, T=3.0, dt=1e-3, model=berger, stride=50)
    dist, eq = distance_to_equilibrium(sys_forced, tr.states, berger)
    Estar = _written_out_estar(sys_forced, tr.states, berger, alpha_star,
                               pstar + sys_forced.f_plate)
    beta = tr.states[:, sys_forced.m:sys_forced.m + sys_forced.n]
    want_eq = minimize_stationary(sys_forced, berger, beta_init=beta[-1])
    y_eq = sys_forced.join(alpha_star, want_eq.beta_star, np.zeros(sys_forced.n))
    assert np.max(np.abs(tr.Estar - Estar)) <= 1e-14 * np.max(np.abs(Estar))
    assert np.array_equal(eq.beta_star, want_eq.beta_star)
    assert (eq.residual, eq.energy) == (want_eq.residual, want_eq.energy)
    assert np.array_equal(dist, [sys_forced.state_norm(y - y_eq) for y in tr.states])


def test_minimize_reports_stagnation(sys_shear, berger, monkeypatch):
    monkeypatch.setattr(steady, "STAT_TOL", 1e-300)
    with pytest.raises(StationaryError):
        minimize_stationary(sys_shear, berger, np.zeros(sys_shear.n))


def test_minimize_stationary_reaches_rounding_residual(basis, berger):
    # the Newton steps on the exact Hessian drive the forced Berger residual
    # to rounding, far below the STAT_TOL acceptance bound
    sys_ = assemble(basis, 1.0, ForcingConfig("shear", 2.0, plate_kind="sine", plate_amp=0.5))
    eq = minimize_stationary(sys_, berger, np.zeros(sys_.n))
    assert eq.residual <= 1e-12 * np.linalg.norm(sys_.pstar + sys_.f_plate)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_find_equilibria_orders_energy_ties(sys_free, grid, seed):
    # the buckled plate (gamma about twice critical) has the flat state and a
    # +-beta pair of minima whose energies agree to rounding: the pair comes
    # first, ordered by the first plate coefficient, larger first
    buckled = BergerForce(grid, kappa=5.0, gamma=165.6)
    eqs = find_equilibria(sys_free, buckled, seed=seed)
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
        eq = minimize_stationary(sys_free, buckled,
                                 beta_init=0.5 * rng.standard_normal(sys_free.n))
        assert eq.energy < 0
        assert eq.residual <= 1e-12 * np.linalg.norm(sys_free.K @ eq.beta_star)
