import numpy as np
import pytest

from plateflow.mesh import (
    GeometryConfig,
    GridError,
    bending_inner,
    build_grid,
    discrete_div,
    grad_inner,
    inner_fluid,
    inner_plate,
    is_solenoidal,
    plate_mean,
)
from plateflow.modal import (
    _streamfunction_basis,
    build_modal_basis,
    mean_shape,
    project_zero_mean,
    solve_plate_eigenmodes,
    solve_stokes_eigenmodes,
)
from plateflow.stokes import unpack_interior


def test_streamfunction_basis_spans_the_solenoidal_fields():
    # every column is a divergence-free field whose walls and Omega row carry
    # zero, and the columns are independent: (n_x-1)(n_z-1) of them
    g = build_grid(GeometryConfig(n_x=12, n_z=9, L_x=1.3, L_z=0.7))
    Z = _streamfunction_basis(g).toarray()
    n_s = (g.n_x - 1) * (g.n_z - 1)
    assert Z.shape[1] == n_s
    v = unpack_interior(Z.T, g)
    assert np.max(np.abs(discrete_div(v, g).values)) < 1e-12 / min(g.h_x, g.h_z) ** 2
    assert np.linalg.matrix_rank(Z) == n_s


def test_stokes_modes_orthonormal_with_small_residuals(grid, basis):
    m = basis.m
    G = np.array([[inner_fluid(basis.psi[i], basis.psi[j], grid)
                   for j in range(m)] for i in range(m)])
    assert np.max(np.abs(G - np.eye(m))) < 1e-11
    assert np.all(basis.psi_res < 1e-10)
    assert all(is_solenoidal(basis.psi[i], grid) for i in range(m))
    assert np.all(np.diff(basis.mu) >= -1e-9)


def test_stokes_mode_gradient_gram_is_spectral(grid, basis):
    # (grad psi_i, grad psi_j) = mu_i delta_ij by construction of the form
    for i in range(3):
        for j in range(3):
            val = grad_inner(basis.psi[i], basis.psi[j], grid)
            want = basis.mu[i] if i == j else 0.0
            assert abs(val - want) < 1e-9 * (1.0 + basis.mu[i])


def test_first_stokes_eigenvalue_grid_convergence(grid):
    fine = build_grid(GeometryConfig(n_x=32, n_z=32))
    mu16 = solve_stokes_eigenmodes(grid, 1)[0][0]
    mu32 = solve_stokes_eigenmodes(fine, 1)[0][0]
    assert abs(mu16 - mu32) / mu32 < 0.05


def test_plate_modes_orthonormal_zero_mean(grid, basis):
    n = basis.n
    G = np.array([[inner_plate(basis.xi[i], basis.xi[j], grid)
                   for j in range(n)] for i in range(n)])
    assert np.max(np.abs(G - np.eye(n))) < 1e-11
    for x in basis.xi:
        assert abs(plate_mean(x, grid)) < 1e-12
    assert np.all(basis.kappa > 0)
    assert np.all(np.diff(basis.kappa) >= -1e-6)


def test_plate_modes_diagonalize_bending(grid, basis):
    for i in range(3):
        for j in range(3):
            val = bending_inner(basis.xi[i], basis.xi[j], grid)
            want = basis.kappa[i] if i == j else 0.0
            assert abs(val - want) < 1e-7 * (1.0 + basis.kappa[i])


def test_lifted_modes_carry_their_traces(grid, basis):
    for k in range(basis.n):
        assert is_solenoidal(basis.lift[k], grid)
        assert np.max(np.abs(basis.lift[k].w[:, -1] - basis.xi[k])) < 1e-10


def test_mode_count_limits(grid):
    with pytest.raises(GridError, match="modes"):
        solve_stokes_eigenmodes(grid, 10_000)
    with pytest.raises(GridError, match="modes"):
        solve_plate_eigenmodes(grid, 10_000)


def test_mean_shape_projection(grid, rng):
    w0 = mean_shape(grid)
    assert plate_mean(w0, grid) > 0
    # bending-orthogonal to every zero-mean clamped-compatible deflection
    kappa, xi = solve_plate_eigenmodes(grid, 4)
    for k in range(4):
        num = bending_inner(w0, xi[k], grid)
        assert abs(num) < 1e-9 * (1.0 + kappa[k])
    u = rng.standard_normal(grid.n_plate)
    pu = project_zero_mean(u, grid, w0)
    assert abs(plate_mean(pu, grid)) < 1e-12
    assert np.max(np.abs(project_zero_mean(pu, grid, w0) - pu)) < 1e-12


def test_basis_cache_roundtrip(grid, basis, tmp_path):
    cached = build_modal_basis(grid, basis.m, basis.n, cache_dir=str(tmp_path))
    reloaded = build_modal_basis(grid, basis.m, basis.n, cache_dir=str(tmp_path))
    assert np.array_equal(cached.mu, reloaded.mu)
    assert np.array_equal(cached.kappa, reloaded.kappa)
    assert np.array_equal(cached.psi.u, reloaded.psi.u)
    assert np.array_equal(cached.psi.w, reloaded.psi.w)
    assert np.array_equal(cached.psi_res, reloaded.psi_res)
    assert np.array_equal(cached.xi, reloaded.xi)
    assert np.array_equal(cached.lift.u, reloaded.lift.u)
    assert np.array_equal(cached.lift.w, reloaded.lift.w)
    assert np.array_equal(cached.w0, reloaded.w0)
    # the cache key includes the mode counts: a different request recomputes
    other = build_modal_basis(grid, 2, 2, cache_dir=str(tmp_path))
    assert other.m == 2 and other.n == 2


def test_basis_cache_reads_files_with_mode_pressures(grid, basis, tmp_path):
    # earlier cache files also hold the flow and lift pressures (psi_p, lift_p);
    # they load, and the extra arrays are ignored
    b = basis
    path = tmp_path / f"modes_{grid.grid_key()}_m{b.m}_n{b.n}.npz"
    np.savez_compressed(path, mu=b.mu, kappa=b.kappa, psi_u=b.psi.u, psi_w=b.psi.w,
                        psi_p=np.ones((b.m,) + grid.shape_p), psi_res=b.psi_res, xi=b.xi,
                        lift_u=b.lift.u, lift_w=b.lift.w,
                        lift_p=np.ones((b.n,) + grid.shape_p), w0=b.w0)
    loaded = build_modal_basis(grid, b.m, b.n, cache_dir=str(tmp_path))
    for name in ("mu", "kappa", "psi_res", "xi", "w0"):
        assert np.array_equal(getattr(loaded, name), getattr(b, name))
    for name in ("psi", "lift"):
        assert np.array_equal(getattr(loaded, name).u, getattr(b, name).u)
        assert np.array_equal(getattr(loaded, name).w, getattr(b, name).w)


@pytest.mark.parametrize("form", [inner_fluid, grad_inner])
def test_stacked_gram_tables_match_pairwise(grid, basis, form):
    # a stack on either side contracts over the grid axes to the table of
    # pairwise values: flow x lifted and lifted x lifted, as assembly uses them.
    # Errors are relative to |a_i| |b_j| (flow x lifted gradient pairs vanish).
    for a, b in ((basis.psi, basis.lift), (basis.lift, basis.lift)):
        table = form(a, b, grid)
        pairs = np.array([[form(a[i], b[j], grid) for j in range(len(b.u))]
                          for i in range(len(a.u))])
        norms_a = np.sqrt([form(a[i], a[i], grid) for i in range(len(a.u))])
        norms_b = np.sqrt([form(b[j], b[j], grid) for j in range(len(b.u))])
        scale = np.outer(norms_a, norms_b)
        assert table.shape == pairs.shape
        assert np.max(np.abs(table - pairs) / scale) <= 1e-14
        # one field against a stack gives that field's row of the table
        assert np.max(np.abs(form(a[0], b, grid) - pairs[0]) / scale[0]) <= 1e-14
