import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh, null_space
from scipy.optimize import brentq

from plateflow.mesh import (
    GeometryConfig,
    GridError,
    VelocityField,
    beam_operators,
    build_grid,
    grad_inner,
    inner_fluid,
    plate_mean,
    unpack_interior,
)
from plateflow.stokes import velocity_blocks
from oracles import (beam_biharmonic, bending_inner, discrete_div, grad_inner_by_faces,
                     inner_fluid_by_faces, inner_plate, inner_product, is_solenoidal)


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
    p = rng.standard_normal(g.shape_p)
    v = VelocityField(g)
    v.u[1:-1, :] = rng.standard_normal((g.n_x - 1, g.n_z))
    v.w[:, 1:-1] = rng.standard_normal((g.n_x, g.n_z - 1))
    vol = g.h_x * g.h_z
    lhs = inner_fluid(unpack_interior(velocity_blocks(g).Gr @ p.ravel() / vol, g), v, g)
    rhs = -vol * float(np.sum(p * discrete_div(v, g)))
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


# 16x16, a non-square 12x9 cell grid on a 1.3 x 0.7 cavity, and 64x64
FORM_GRIDS = ((16, 16, 1.0, 1.0), (12, 9, 1.3, 0.7), (64, 64, 1.0, 1.0))


def _velocity_space_stack(g, k, rng):
    """k random fields of the velocity space: zero on S, random on the
    interior faces and the Omega row."""
    u = np.zeros((k,) + g.shape_u)
    w = np.zeros((k,) + g.shape_w)
    u[:, 1:-1, :] = rng.standard_normal((k, g.n_x - 1, g.n_z))
    w[:, :, 1:] = rng.standard_normal((k, g.n_x, g.n_z))
    return VelocityField(g, u, w)


def _assert_form_matches_reference(form, reference, rng):
    for n_x, n_z, L_x, L_z in FORM_GRIDS:
        g = build_grid(GeometryConfig(n_x=n_x, n_z=n_z, L_x=L_x, L_z=L_z))
        k = 4
        stack = _velocity_space_stack(g, k, rng)
        want = reference(stack, stack, g)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(form(stack, stack, g) - want)) < 1e-12 * scale
        for i in range(k):
            assert np.max(np.abs(form(stack[i], stack, g) - want[i])) < 1e-12 * scale
            for j in range(k):
                got = form(stack[i], stack[j], g)
                assert isinstance(got, float)
                assert abs(got - want[i, j]) < 1e-12 * scale


def test_grad_inner_is_stokes_form_plus_trace_terms(rng):
    # grad_inner reads the assembled Stokes form on packed interior faces plus
    # the Omega-trace terms; the reference sums the face differences one by one
    _assert_form_matches_reference(grad_inner, grad_inner_by_faces, rng)


def test_inner_fluid_is_packed_faces_plus_half_omega_row(rng):
    # inner_fluid reads the packed interior faces and half the Omega row; the
    # reference weighs every stored face by the trapezoidal rule
    _assert_form_matches_reference(inner_fluid, inner_fluid_by_faces, rng)


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_inner_fluid_bilinear(c1, c2):
    g = build_grid(GeometryConfig(n_x=8, n_z=8))
    rng = np.random.default_rng(42)
    a = VelocityField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_w))
    b = VelocityField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_w))
    c = VelocityField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_w))
    lhs = inner_fluid(VelocityField(g, c1 * a.u + c2 * b.u, c1 * a.w + c2 * b.w), c, g)
    rhs = c1 * inner_fluid(a, c, g) + c2 * inner_fluid(b, c, g)
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_divergence_of_a_stack_is_taken_field_by_field(grid, rng):
    g = grid
    stack = VelocityField(g, rng.standard_normal((3,) + g.shape_u),
                          rng.standard_normal((3,) + g.shape_w))
    div = discrete_div(stack, g)
    assert div.shape == (3,) + g.shape_p
    for k in range(3):
        assert np.array_equal(div[k], discrete_div(stack[k], g))


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
