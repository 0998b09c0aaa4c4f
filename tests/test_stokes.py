import numpy as np
import pytest

from plateflow.galerkin import fluid_forcing_field
from plateflow.mesh import (
    Grid,
    GridError,
    VelocityField,
    build_grid,
    grad_inner,
    inner_fluid,
    plate_mean,
)
from plateflow.stokes import (
    HarmonicLifter,
    StokesSolveError,
    StokesSolver,
    _streamfunction_basis,
    velocity_blocks,
)
from oracles import (discrete_div, face_arrays, face_shapes, field_on_faces, harmonic_residual,
                     inner_plate, is_solenoidal, project_zero_mean)
from saddle_stokes import assert_matches_saddle_point

UNEQUAL = Grid(n_x=12, n_z=9, L_x=1.3, L_z=0.7)


@pytest.fixture(scope="module")
def solver(grid):
    return StokesSolver(grid, nu=1.0)


def _zero_mean_trace(g, rng):
    psi = rng.standard_normal(g.n_plate)
    return psi - plate_mean(psi, g) / g.L_x


def _harmonic_lift(lifter, r):
    """(q, grad q) of one trace r: the lift of the one-row stack, row 0."""
    q, gradq = lifter.lift(r[None])
    return q[0], gradq[0]


def test_gradient_block_is_minus_volume_divergence(rng):
    # Gr^T x = -vol div(x) for packed interior-face vectors x (walls and the
    # Omega row zero), on a grid with unequal spacings so h_x and h_z cannot trade
    g = build_grid(Grid(n_x=12, n_z=9, L_x=1.3, L_z=0.7))
    Gr = velocity_blocks(g)[1]
    X = rng.standard_normal((5, Gr.shape[0]))
    div = discrete_div(VelocityField(g, X), g).reshape(5, -1)
    want = -g.h_x * g.h_z * div
    assert np.max(np.abs((Gr.T @ X.T).T - want)) < 1e-13 * np.max(np.abs(want))


def test_solver_rejects_bad_viscosity(grid):
    with pytest.raises(ValueError):
        StokesSolver(grid, nu=0.0)


def test_body_force_solution_is_solenoidal_no_slip(grid, solver):
    gf = fluid_forcing_field("shear", 1.0, grid)
    sol = solver.solve_body_force(gf)
    assert is_solenoidal(sol.v, grid)
    assert np.max(np.abs(sol.v.trace)) == 0.0      # no normal flow through Omega
    assert abs(float(np.sum(sol.p))) < 1e-9    # pressure gauge: zero mean


def test_body_force_and_pressure_trace_reject_a_stack(grid, solver, basis):
    # their right-hand sides index one field's grid axes
    gf = fluid_forcing_field("shear", 1.0, grid)
    sol = solver.solve_body_force(gf)
    with pytest.raises(GridError, match="stack"):
        solver.solve_body_force(basis.psi)
    with pytest.raises(GridError, match="stack"):
        solver.pressure_trace(sol, basis.psi)


def test_lift_matches_trace_and_rejects_nonzero_mean(grid, solver, rng):
    psi = _zero_mean_trace(grid, rng)
    v = solver.lift(psi[None])[0]
    assert is_solenoidal(v, grid)
    assert np.array_equal(v.trace, psi)
    with pytest.raises(StokesSolveError, match="zero-mean"):
        solver.lift(np.ones((1, grid.n_plate)))
    # a stack is checked row by row; a trace of another length, or one trace
    # not in a stack, is refused
    with pytest.raises(StokesSolveError, match="zero-mean"):
        solver.lift(np.array([psi, psi + 1e-6]))
    with pytest.raises(GridError, match="shape"):
        solver.lift(psi[None, :-1])
    with pytest.raises(GridError, match="shape"):
        solver.lift(psi)


def test_lift_on_unequal_spacings(rng):
    # the lift N0 psi is solenoidal, carries psi, and is orthogonal in the
    # gradient form to every solenoidal field with zero trace (the Stokes
    # energy is minimal); nu != 1 must cancel between the operator and the trace
    g = build_grid(UNEQUAL)
    psi = _zero_mean_trace(g, rng)
    v = StokesSolver(g, nu=0.7).lift(psi[None])[0]
    assert is_solenoidal(v, g)
    assert np.array_equal(v.trace, psi)
    Z = VelocityField(g, _streamfunction_basis(g).toarray().T)
    scale = np.sqrt(np.diag(grad_inner(Z, Z, g)) * grad_inner(v, v, g))
    assert np.max(np.abs(grad_inner(Z, v, g)) / scale) < 1e-12


def test_lift_is_linear(grid, solver, rng):
    a = _zero_mean_trace(grid, rng)
    b = _zero_mean_trace(grid, rng)
    sab = solver.lift((a + 2.0 * b)[None])[0]
    sa, sb = solver.lift(a[None])[0], solver.lift(b[None])[0]
    (u_ab, w_ab), (u_a, w_a), (u_b, w_b) = map(face_arrays, (sab, sa, sb))
    assert np.max(np.abs(u_ab - (u_a + 2.0 * u_b))) < 1e-11
    assert np.max(np.abs(w_ab - (w_a + 2.0 * w_b))) < 1e-11
    # a stack lifts row by row
    stack = solver.lift(np.array([a, b]))
    assert np.max(np.abs(face_arrays(stack[0])[0] - u_a)) < 1e-14 * np.max(np.abs(u_a))
    assert np.array_equal(stack[1].trace, b)


def _random_body_force(g, rng):
    # nonzero on every face, the Omega row included, where pressure_trace
    # adds half a cell of the force
    return field_on_faces(g, *(rng.standard_normal(s) for s in face_shapes(g)))


def test_adjoint_trace_functional_duality(grid, rng):
    # (N0^* gf, b)_Omega = (gf, N0 b)_O for zero-mean traces b, with
    # N0^* gf = pressure_trace(solve_body_force(gf), gf)
    for g in (grid, build_grid(UNEQUAL)):
        for gf in (fluid_forcing_field("bump", 1.5, g),
                   _random_body_force(g, rng)):
            for nu in (1.0, 0.7):
                solver = StokesSolver(g, nu=nu)
                r = solver.pressure_trace(solver.solve_body_force(gf), gf)
                for _ in range(4):
                    b = _zero_mean_trace(g, rng)
                    lhs = inner_plate(r, b, g)
                    rhs = inner_fluid(gf, solver.lift(b[None])[0], g)
                    assert abs(lhs - rhs) < 1e-11 * (1.0 + abs(rhs))


def test_pressure_trace_agrees_with_adjoint_route(grid, rng):
    # the streamfunction solve and its recovered pressure against the
    # saddle-point solve, whose trace is the adjoint of its lift
    for g in (grid, build_grid(UNEQUAL)):
        for gf in [fluid_forcing_field(kind, 2.0, g)
                   for kind in ("shear", "bump")] + [_random_body_force(g, rng)]:
            for nu in (1.0, 0.7):
                solver = StokesSolver(g, nu=nu)
                sol = solver.solve_body_force(gf)
                assert_matches_saddle_point(sol, solver.pressure_trace(sol, gf), gf, g, nu)


def test_pressure_trace_independent_of_viscosity(grid):
    gf = fluid_forcing_field("shear", 1.0, grid)
    traces = []
    for nu in (1.0, 3.0):
        solver = StokesSolver(grid, nu=nu)
        traces.append(solver.pressure_trace(solver.solve_body_force(gf), gf))
    assert np.max(np.abs(traces[0] - traces[1])) < 1e-10


def test_harmonic_lift_residual_and_boundary_pairing(grid, solver, rng):
    lifter = HarmonicLifter(grid)
    r = _zero_mean_trace(grid, rng)
    q, gradq = _harmonic_lift(lifter, r)
    assert harmonic_residual(grid, q, r) < 1e-10
    # (grad q, v)_O = (r, v.n)_Omega for solenoidal v with no-slip on S
    for _ in range(4):
        b = project_zero_mean(rng.standard_normal(grid.n_plate), grid)
        v = solver.lift(b[None])[0]
        lhs = inner_fluid(gradq, v, grid)
        rhs = inner_plate(r, b, grid)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


def test_harmonic_lift_of_a_stack_is_the_lift_of_each_row(grid, rng):
    # one solve with the one factor lifts every row of a stack as its own lift
    lifter = HarmonicLifter(grid)
    R = np.array([_zero_mean_trace(grid, rng) for _ in range(3)] + [np.ones(grid.n_plate)])
    q, gradq = lifter.lift(R)
    assert q.shape == (len(R),) + grid.shape_p
    assert face_arrays(gradq)[0].shape == (len(R),) + face_shapes(grid)[0]
    for k, r in enumerate(R):
        qk, gk = _harmonic_lift(lifter, r)
        for got, want in ((q[k], qk), *zip(face_arrays(gradq[k]), face_arrays(gk))):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(GridError):
        lifter.lift(R[:, :-1])
    with pytest.raises(GridError):
        lifter.lift(R[None])
    with pytest.raises(GridError):
        lifter.lift(R[0])


def test_harmonic_lift_of_constant_is_constant(grid):
    lifter = HarmonicLifter(grid)
    q, gradq = _harmonic_lift(lifter, np.ones(grid.n_plate))
    assert np.max(np.abs(q - 1.0)) < 1e-11
    assert inner_fluid(gradq, gradq, grid) < 1e-20
