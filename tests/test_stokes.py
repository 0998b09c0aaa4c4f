import numpy as np
import pytest

from plateflow.galerkin import ForcingConfig, fluid_forcing_field
from plateflow.mesh import (
    GeometryConfig,
    GridError,
    VelocityField,
    build_grid,
    grad_inner,
    inner_fluid,
    plate_mean,
    unpack_interior,
)
from plateflow.stokes import (
    HarmonicLifter,
    StokesSolveError,
    StokesSolver,
    _streamfunction_basis,
    velocity_blocks,
)
from oracles import (discrete_div, harmonic_residual, inner_plate, is_solenoidal,
                     project_zero_mean)
from saddle_stokes import assert_matches_saddle_point

UNEQUAL = GeometryConfig(n_x=12, n_z=9, L_x=1.3, L_z=0.7)


@pytest.fixture(scope="module")
def solver(grid):
    return StokesSolver(grid, nu=1.0)


def _zero_mean_trace(g, rng):
    psi = rng.standard_normal(g.n_plate)
    return psi - plate_mean(psi, g) / g.L_x


def test_gradient_block_is_minus_volume_divergence(rng):
    # Gr^T x = -vol div(x) for packed interior-face vectors x (walls and the
    # Omega row zero), on a grid with unequal spacings so h_x and h_z cannot trade
    g = build_grid(GeometryConfig(n_x=12, n_z=9, L_x=1.3, L_z=0.7))
    Gr = velocity_blocks(g).Gr
    X = rng.standard_normal((5, Gr.shape[0]))
    div = discrete_div(unpack_interior(X, g), g).reshape(5, -1)
    want = -g.h_x * g.h_z * div
    assert np.max(np.abs((Gr.T @ X.T).T - want)) < 1e-13 * np.max(np.abs(want))


def test_solver_rejects_bad_viscosity(grid):
    with pytest.raises(ValueError):
        StokesSolver(grid, nu=0.0)


def test_body_force_solution_is_solenoidal_no_slip(grid, solver):
    gf = fluid_forcing_field(ForcingConfig(fluid_kind="shear", fluid_amp=1.0), grid)
    sol = solver.solve_body_force(gf)
    assert is_solenoidal(sol.v, grid)
    assert np.max(np.abs(sol.v.w[:, -1])) == 0.0      # no normal flow through Omega
    assert abs(float(np.sum(sol.p))) < 1e-9    # pressure gauge: zero mean


def test_body_force_and_pressure_trace_reject_a_stack(grid, solver, basis):
    # their right-hand sides index one field's grid axes
    gf = fluid_forcing_field(ForcingConfig(fluid_kind="shear", fluid_amp=1.0), grid)
    sol = solver.solve_body_force(gf)
    with pytest.raises(GridError, match="stack"):
        solver.solve_body_force(basis.psi)
    with pytest.raises(GridError, match="stack"):
        solver.pressure_trace(sol, basis.psi)


def test_lift_matches_trace_and_rejects_nonzero_mean(grid, solver, rng):
    psi = _zero_mean_trace(grid, rng)
    v = solver.lift(psi)
    assert is_solenoidal(v, grid)
    assert np.array_equal(v.w[:, -1], psi)
    with pytest.raises(StokesSolveError, match="zero-mean"):
        solver.lift(np.ones(grid.n_plate))
    # a stack is checked row by row, and a trace of another length is refused
    with pytest.raises(StokesSolveError, match="zero-mean"):
        solver.lift(np.array([psi, psi + 1e-6]))
    with pytest.raises(GridError, match="shape"):
        solver.lift(psi[:-1])


def test_lift_on_unequal_spacings(rng):
    # the lift N0 psi is solenoidal, carries psi, and is orthogonal in the
    # gradient form to every solenoidal field with zero trace (the Stokes
    # energy is minimal); nu != 1 must cancel between the operator and the trace
    g = build_grid(UNEQUAL)
    psi = _zero_mean_trace(g, rng)
    v = StokesSolver(g, nu=0.7).lift(psi)
    assert is_solenoidal(v, g)
    assert np.array_equal(v.w[:, -1], psi)
    Z = unpack_interior(_streamfunction_basis(g).toarray().T, g)
    scale = np.sqrt(np.diag(grad_inner(Z, Z, g)) * grad_inner(v, v, g))
    assert np.max(np.abs(grad_inner(Z, v, g)) / scale) < 1e-12


def test_lift_is_linear(grid, solver, rng):
    a = _zero_mean_trace(grid, rng)
    b = _zero_mean_trace(grid, rng)
    sab = solver.lift(a + 2.0 * b)
    sa, sb = solver.lift(a), solver.lift(b)
    comb = VelocityField(grid, sa.u + 2.0 * sb.u, sa.w + 2.0 * sb.w)
    assert np.max(np.abs(sab.u - comb.u)) < 1e-11
    assert np.max(np.abs(sab.w - comb.w)) < 1e-11
    # a stack lifts row by row
    stack = solver.lift(np.array([a, b]))
    assert np.max(np.abs(stack[0].u - sa.u)) < 1e-14 * np.max(np.abs(sa.u))
    assert np.array_equal(stack[1].w[:, -1], b)


def _random_body_force(g, rng):
    # nonzero on every face, the Omega row included, where pressure_trace
    # adds half a cell of the force
    return VelocityField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_w))


def test_adjoint_trace_functional_duality(grid, rng):
    # (N0^* gf, b)_Omega = (gf, N0 b)_O for zero-mean traces b, with
    # N0^* gf = pressure_trace(solve_body_force(gf), gf)
    for g in (grid, build_grid(UNEQUAL)):
        for gf in (fluid_forcing_field(ForcingConfig(fluid_kind="bump", fluid_amp=1.5), g),
                   _random_body_force(g, rng)):
            for nu in (1.0, 0.7):
                solver = StokesSolver(g, nu=nu)
                r = solver.pressure_trace(solver.solve_body_force(gf), gf)
                for _ in range(4):
                    b = _zero_mean_trace(g, rng)
                    lhs = inner_plate(r, b, g)
                    rhs = inner_fluid(gf, solver.lift(b), g)
                    assert abs(lhs - rhs) < 1e-11 * (1.0 + abs(rhs))


def test_pressure_trace_agrees_with_adjoint_route(grid, rng):
    # the streamfunction solve and its recovered pressure against the
    # saddle-point solve, whose trace is the adjoint of its lift
    for g in (grid, build_grid(UNEQUAL)):
        for gf in [fluid_forcing_field(ForcingConfig(fluid_kind=kind, fluid_amp=2.0), g)
                   for kind in ("shear", "bump")] + [_random_body_force(g, rng)]:
            for nu in (1.0, 0.7):
                solver = StokesSolver(g, nu=nu)
                sol = solver.solve_body_force(gf)
                assert_matches_saddle_point(sol, solver.pressure_trace(sol, gf), gf, g, nu)


def test_pressure_trace_independent_of_viscosity(grid):
    gf = fluid_forcing_field(ForcingConfig(fluid_kind="shear", fluid_amp=1.0), grid)
    traces = []
    for nu in (1.0, 3.0):
        solver = StokesSolver(grid, nu=nu)
        traces.append(solver.pressure_trace(solver.solve_body_force(gf), gf))
    assert np.max(np.abs(traces[0] - traces[1])) < 1e-10


def test_harmonic_lift_residual_and_boundary_pairing(grid, solver, rng):
    lifter = HarmonicLifter(grid)
    r = _zero_mean_trace(grid, rng)
    q, gradq = lifter.lift(r)
    assert harmonic_residual(grid, q, r) < 1e-10
    # (grad q, v)_O = (r, v.n)_Omega for solenoidal v with no-slip on S
    for _ in range(4):
        b = project_zero_mean(rng.standard_normal(grid.n_plate), grid)
        v = solver.lift(b)
        lhs = inner_fluid(gradq, v, grid)
        rhs = inner_plate(r, b, grid)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


def test_harmonic_lift_of_constant_is_constant(grid):
    lifter = HarmonicLifter(grid)
    q, gradq = lifter.lift(np.ones(grid.n_plate))
    assert np.max(np.abs(q - 1.0)) < 1e-11
    assert inner_fluid(gradq, gradq, grid) < 1e-20
