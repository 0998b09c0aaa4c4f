import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh, null_space
from scipy.optimize import brentq

from plateflow.mesh import (
    GeometryConfig,
    GridError,
    ScalarField,
    VelocityField,
    beam_operators,
    build_grid,
    discrete_grad,
    grad_inner,
    inner_fluid,
    plate_mean,
)
from plateflow.stokes import velocity_blocks
from oracles import (beam_biharmonic, bending_inner, discrete_div, inner_plate, inner_product,
                     is_solenoidal)


def test_build_grid_rejects_coarse():
    with pytest.raises(GridError, match="too coarse"):
        build_grid(GeometryConfig(n_x=3, n_z=16))
    with pytest.raises(GridError, match="too coarse"):
        build_grid(GeometryConfig(n_x=16, n_z=2))


def test_grid_shapes(grid):
    assert grid.shape_u == (17, 16)
    assert grid.shape_w == (16, 17)
    assert grid.shape_p == (16, 16)
    assert grid.n_plate == 16
    assert len(grid.plate_x()) == 16


def test_grad_div_duality(grid, rng):
    # (grad p, v) = -(p, div v) for v vanishing on all boundary faces:
    # summation by parts with no boundary contribution
    g = grid
    p = ScalarField(g, rng.standard_normal(g.shape_p))
    v = VelocityField(g)
    v.u[1:-1, :] = rng.standard_normal((g.n_x - 1, g.n_z))
    v.w[:, 1:-1] = rng.standard_normal((g.n_x, g.n_z - 1))
    lhs = inner_fluid(discrete_grad(p, g), v, g)
    vol = g.h_x * g.h_z
    rhs = -vol * float(np.sum(p.values * discrete_div(v, g).values))
    assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_inner_product_dispatch(grid, rng):
    g = grid
    a = rng.standard_normal(g.n_plate)
    b = rng.standard_normal(g.n_plate)
    assert inner_product(a, b, "plate", g) == inner_plate(a, b, g)
    with pytest.raises(GridError):
        inner_product(a, b, "nowhere", g)


def test_plate_quadrature_oracle():
    # midpoint rule on (0,1): integral of sin(pi x)^2 = 1/2, error O(h^2)
    g = build_grid(GeometryConfig(n_x=64, n_z=4))
    s = np.sin(np.pi * g.plate_x())
    assert abs(inner_plate(s, s, g) - 0.5) < 1e-3
    assert abs(plate_mean(s, g) - 2.0 / np.pi) < 1e-3


def test_grad_inner_nonnegative(grid, rng):
    g = grid
    v = VelocityField(g)
    v.u[1:-1, :] = rng.standard_normal((g.n_x - 1, g.n_z))
    v.w[:, 1:-1] = rng.standard_normal((g.n_x, g.n_z - 1))
    q = grad_inner(v, v, g)
    assert q > 0
    w = VelocityField(g)
    w.u[1:-1, :] = rng.standard_normal((g.n_x - 1, g.n_z))
    assert abs(grad_inner(v, w, g) - grad_inner(w, v, g)) < 1e-12 * (1 + q)


def test_grad_inner_is_stokes_form_plus_trace_terms(rng):
    # grad_inner(a, b) = x_a^T A x_b + (vol/h_z^2)(psi_a.psi_b - w_a.psi_b - psi_a.w_b),
    # A the assembled Stokes form on packed interior faces, psi the top w-rows
    # (traces on Omega) and w the w-rows below them; walls carry zero
    g = build_grid(GeometryConfig(n_x=12, n_z=9, L_x=1.3, L_z=0.7))
    A = velocity_blocks(g).A
    k = 4
    u = np.zeros((k,) + g.shape_u)
    w = np.zeros((k,) + g.shape_w)
    u[:, 1:-1, :] = rng.standard_normal((k, g.n_x - 1, g.n_z))
    w[:, :, 1:] = rng.standard_normal((k, g.n_x, g.n_z))
    stack = VelocityField(g, u, w)
    X = np.concatenate([u[:, 1:-1, :].reshape(k, -1), w[:, :, 1:-1].reshape(k, -1)], axis=1)
    psi, below = w[:, :, -1], w[:, :, -2]
    vol = g.h_x * g.h_z
    want = X @ (A @ X.T) + (vol / g.h_z ** 2) * (psi @ psi.T - below @ psi.T - psi @ below.T)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(grad_inner(stack, stack, g) - want)) < 1e-12 * scale
    for i in range(k):
        for j in range(k):
            assert abs(grad_inner(stack[i], stack[j], g) - want[i, j]) < 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_inner_fluid_bilinear(c1, c2):
    g = build_grid(GeometryConfig(n_x=8, n_z=8))
    rng = np.random.default_rng(42)
    a = VelocityField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_w))
    b = VelocityField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_w))
    c = VelocityField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_w))
    lhs = inner_fluid(a * c1 + b * c2, c, g)
    rhs = c1 * inner_fluid(a, c, g) + c2 * inner_fluid(b, c, g)
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_divergence_of_a_stack_is_taken_field_by_field(grid, rng):
    g = grid
    stack = VelocityField(g, rng.standard_normal((3,) + g.shape_u),
                          rng.standard_normal((3,) + g.shape_w))
    div = discrete_div(stack, g).values
    assert div.shape == (3,) + g.shape_p
    for k in range(3):
        assert np.array_equal(div[k], discrete_div(stack[k], g).values)


def test_is_solenoidal_flags_compressible(grid):
    v = VelocityField(grid)
    v.u[1:-1, :] = 1.0e-3
    assert not is_solenoidal(v, grid)
    assert is_solenoidal(VelocityField(grid), grid)


# -- clamped beam ----------------------------------------------------------

def _clamped_beam_eig_oracle(k_index=1):
    """Continuum eigenvalue of u'''' = kappa u on (0,1), clamped both ends:
    kappa = k^4 with cos(k) cosh(k) = 1."""
    brackets = [(4.5, 5.0), (7.5, 8.0), (10.5, 11.5)]
    lo, hi = brackets[k_index - 1]
    k = brentq(lambda s: np.cos(s) * np.cosh(s) - 1.0, lo, hi)
    return k ** 4


def test_clamped_beam_first_eigenvalue_converges():
    # the clamped bending pencil alone, without the plate modes' zero-mean constraint
    g = build_grid(GeometryConfig(n_x=64, n_z=4))
    ops = beam_operators(g)
    Z = null_space(ops.C)
    kappa = eigh(Z.T @ ops.K @ Z, g.h_x * (Z.T @ Z), eigvals_only=True)
    exact = _clamped_beam_eig_oracle(1)
    assert abs(kappa[0] - exact) / exact < 1e-2


def test_beam_biharmonic_matches_bending_form(grid, rng):
    # h * (biharmonic u, v)_pointwise equals the symmetric bending form
    g = grid
    ops = beam_operators(g)
    u = rng.standard_normal(g.n_plate)
    v = rng.standard_normal(g.n_plate)
    lhs = g.h_x * float(beam_biharmonic(u, g, ops) @ v)
    rhs = bending_inner(u, v, g, ops)
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_boundary_constraint_rows_kill_smooth_clamped_shape():
    # x^2 (1-x)^2 has value and slope zero at both ends; the one-sided
    # extrapolation constraints should nearly vanish on its samples
    g = build_grid(GeometryConfig(n_x=64, n_z=4))
    x = g.plate_x()
    u = x ** 2 * (1 - x) ** 2
    ops = beam_operators(g)
    assert np.max(np.abs(ops.C @ u)) < 1e-3


def test_bending_inner_positive_definite_on_clamped(grid, rng):
    u = rng.standard_normal(grid.n_plate)
    assert bending_inner(u, u, grid) > 0
