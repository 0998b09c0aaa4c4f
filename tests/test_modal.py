import os
import zipfile

import numpy as np
import pytest
import scipy.linalg as la

from plateflow.mesh import (
    GeometryConfig,
    GridError,
    build_grid,
    grad_inner,
    inner_fluid,
    plate_mean,
    unpack_interior,
)
import plateflow.modal as modal
from plateflow.modal import (
    CACHE_VERSION,
    TIE_TOL,
    _fix_sign,
    _gauge,
    _vertex_weight,
    build_modal_basis,
    solve_plate_eigenmodes,
    solve_stokes_eigenmodes,
)
from plateflow.stokes import _streamfunction_basis, velocity_blocks
from oracles import (bending_inner, discrete_div, inner_plate, is_solenoidal, mean_shape,
                     project_zero_mean)
from saddle_stokes import SaddlePointStokesSolver

GRIDS = {"16x16": GeometryConfig(n_x=16, n_z=16),
         "12x9": GeometryConfig(n_x=12, n_z=9, L_x=1.3, L_z=0.7)}


def _dense_oracle(g):
    """The whole streamfunction pencil (K, M) solved densely: eigenvalues,
    M-orthonormal eigenvectors, Z and M."""
    Z = _streamfunction_basis(g)
    K = (Z.T @ (velocity_blocks(g).A @ Z)).toarray()
    M = g.h_x * g.h_z * (Z.T @ Z).toarray()
    mu, Y = la.eigh(K, M)
    return mu, Y, Z, M


def _clusters(mu):
    return np.split(np.arange(len(mu)), np.flatnonzero(np.diff(mu) > TIE_TOL * mu[1:]) + 1)


def _packed(v, g):
    """A stack of velocity fields as rows of packed interior-face values."""
    return np.hstack([v.u[:, 1:-1, :].reshape(len(v.u), -1),
                      v.w[:, :, 1:-1].reshape(len(v.w), -1)])


def test_streamfunction_basis_spans_the_solenoidal_fields():
    # every column is a divergence-free field whose walls and Omega row carry
    # zero, and the columns are independent: (n_x-1)(n_z-1) of them
    g = build_grid(GeometryConfig(n_x=12, n_z=9, L_x=1.3, L_z=0.7))
    Z = _streamfunction_basis(g).toarray()
    n_s = (g.n_x - 1) * (g.n_z - 1)
    assert Z.shape[1] == n_s
    v = unpack_interior(Z.T, g)
    assert np.max(np.abs(discrete_div(v, g))) < 1e-12 / min(g.h_x, g.h_z) ** 2
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
    assert basis.xi_res.shape == (n,) and np.all(basis.xi_res < 1e-10)


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


def test_eigensolver_takes_every_count_below_the_dimension():
    # the Lanczos solver needs m < n_s: on a 4x4 grid (n_s = 9) m = 8 is the
    # largest count, and its eigenvalues are the pencil's first eight
    g = build_grid(GeometryConfig(n_x=4, n_z=4))
    mu_ref = _dense_oracle(g)[0]
    mu = solve_stokes_eigenmodes(g, 8)[0]
    assert np.max(np.abs(mu - mu_ref[:8]) / mu_ref[:8]) < 1e-10
    with pytest.raises(GridError, match="1 to 8"):
        solve_stokes_eigenmodes(g, 9)


@pytest.mark.parametrize("name", GRIDS)
def test_stokes_eigenmodes_match_dense_oracle(name):
    # eigenvalues to 1e-10; each mode of a simple eigenvalue equals the oracle's
    # sign-fixed mode; each cluster of equal eigenvalues (the square cavity's
    # exact pairs) spans the oracle's space, compared through the projectors
    g = build_grid(GRIDS[name])
    m = 12
    mu, psi, res, _ = solve_stokes_eigenmodes(g, m)
    mu_ref, Y, Z, M = _dense_oracle(g)
    assert np.max(np.abs(mu - mu_ref[:m]) / mu_ref[:m]) < 1e-10
    assert np.all(res < 1e-10)
    X, X_ref = _packed(psi, g), (Z @ Y[:, :m]).T
    vol = g.h_x * g.h_z
    clusters = [c for c in _clusters(mu_ref[:m + 4]) if c[0] < m]
    if name == "16x16":
        assert [list(c) for c in clusters if len(c) > 1] == [[1, 2], [6, 7], [8, 9]]
    for c in clusters:
        if len(c) == 1:
            k = c[0]
            assert np.max(np.abs(X[k] - _fix_sign(X_ref[k], TIE_TOL))) < 1e-9
        else:
            P, P_ref = vol * X[c].T @ X[c], vol * X_ref[c].T @ X_ref[c]
            assert np.max(np.abs(P - P_ref)) < 1e-9 * np.max(np.abs(P_ref))


def test_gauge_depends_only_on_the_span_of_each_cluster(grid, basis):
    # any orthonormal basis of each cluster gives the same modes after the
    # gauge; the modes of the solver are those of the gauged dense oracle
    mu_ref, Y, Z, M = _dense_oracle(grid)
    mu_ref, Y = mu_ref[:16], Y[:, :16]
    w = _vertex_weight(grid)

    def modes(Y):
        return np.array([_fix_sign(x, TIE_TOL) for x in (Z @ _gauge(mu_ref, Y, M, w)).T])

    ref = modes(Y)
    rng = np.random.default_rng(3)
    for _ in range(3):
        Yr = Y.copy()
        for c in _clusters(mu_ref):
            Yr[:, c] = Y[:, c] @ la.qr(rng.standard_normal((len(c), len(c))))[0]
        assert np.max(np.abs(modes(Yr) - ref)) < 1e-10
    assert np.max(np.abs(_packed(basis.psi, grid) - ref[:basis.m])) < 1e-9
    # a count that cuts the pair (1, 2) keeps the first of the gauged pair
    assert np.max(np.abs(_packed(solve_stokes_eigenmodes(grid, 2)[1], grid) - ref[:2])) < 1e-9


@pytest.mark.parametrize("name", GRIDS)
def test_lift_matches_saddle_point_solver(name):
    # the streamfunction-space lift against the saddle-point solve, at nu != 1
    # (it must cancel), with the Omega row set to the trace itself
    g = build_grid(GRIDS[name])
    xi = solve_plate_eigenmodes(g, 6)[1]
    v = solve_stokes_eigenmodes(g, 2)[3](xi)
    solver = SaddlePointStokesSolver(g, nu=0.7)
    for k in range(len(xi)):
        ref = solver.lift(xi[k]).v
        scale = max(np.max(np.abs(ref.u)), np.max(np.abs(ref.w)))
        assert np.max(np.abs(v[k].u - ref.u)) < 1e-11 * scale
        assert np.max(np.abs(v[k].w - ref.w)) < 1e-11 * scale
        assert np.array_equal(v[k].w[:, -1], ref.w[:, -1])


def test_mean_shape_projection(grid, rng):
    w0 = mean_shape(grid)
    assert plate_mean(w0, grid) > 0
    # bending-orthogonal to every zero-mean clamped-compatible deflection
    kappa, xi, _ = solve_plate_eigenmodes(grid, 4)
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
    # the cache key includes the mode counts: a different request recomputes
    other = build_modal_basis(grid, 2, 2, cache_dir=str(tmp_path))
    assert other.m == 2 and other.n == 2


def _cache_arrays(b):
    # the arrays of a cache file of CACHE_VERSION holding the basis b
    return dict(version=CACHE_VERSION, mu=b.mu, psi_u=b.psi.u, psi_w=b.psi.w,
                psi_res=b.psi_res, kappa=b.kappa, xi=b.xi, xi_res=b.xi_res,
                lift_u=b.lift.u, lift_w=b.lift.w)


def _stale_file(b, kind):
    # every array of the basis, each entry of mu doubled so that a load shows
    arrays = dict(_cache_arrays(b), mu=2.0 * b.mu)
    if kind == "no_version":
        del arrays["version"]
    elif kind == "other_version":
        arrays["version"] = CACHE_VERSION - 1
    else:
        arrays["psi_u"] = b.psi.u[:, :-1]
    return arrays


@pytest.mark.parametrize("kind", ["no_version", "other_version", "wrong_shape"])
def test_basis_cache_rebuilds_stale_files(grid, basis, tmp_path, kind):
    # a cache file of another format version (or of none), or whose arrays do
    # not fit the grid and mode counts, is rebuilt and overwritten: the result
    # equals a fresh build byte for byte, and the next call loads the new file
    b = basis
    path = tmp_path / f"modes_{grid.grid_key()}_m{b.m}_n{b.n}.npz"
    np.savez_compressed(path, **_stale_file(b, kind))
    for _ in range(2):
        _assert_same_basis(build_modal_basis(grid, b.m, b.n, cache_dir=str(tmp_path)), b)
        with np.load(path) as f:
            assert f["version"] == CACHE_VERSION


def _assert_same_basis(got, want):
    for name in ("mu", "kappa", "psi_res", "xi", "xi_res"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    for name in ("psi", "lift"):
        assert np.array_equal(getattr(got, name).u, getattr(want, name).u)
        assert np.array_equal(getattr(got, name).w, getattr(want, name).w)


def test_basis_cache_file_is_stored_uncompressed(grid, basis, tmp_path):
    build_modal_basis(grid, basis.m, basis.n, cache_dir=str(tmp_path))
    # the file is written under a temporary name and moved into place: nothing else is left
    name = f"modes_{grid.grid_key()}_m{basis.m}_n{basis.n}.npz"
    assert os.listdir(tmp_path) == [name]
    with zipfile.ZipFile(tmp_path / name) as z:
        members = z.infolist()
    assert len(members) == 10
    assert all(info.compress_type == zipfile.ZIP_STORED for info in members)


def test_basis_cache_loads_a_compressed_file(grid, basis, tmp_path, forbid_eigensolve):
    # files the cache once wrote load without a rebuild and are left as they
    # are: deflated, and stored with the mean shape w0 the basis used to carry
    name = f"modes_{grid.grid_key()}_m{basis.m}_n{basis.n}.npz"
    written = {}
    for kind, save, arrays in (
            ("deflated", np.savez_compressed, _cache_arrays(basis)),
            ("with_w0", np.savez, dict(_cache_arrays(basis), w0=mean_shape(grid)))):
        path = tmp_path / kind / name
        path.parent.mkdir()
        save(path, **arrays)
        written[path] = path.read_bytes()
    forbid_eigensolve()
    for path, data in written.items():
        cache = str(path.parent)
        _assert_same_basis(build_modal_basis(grid, basis.m, basis.n, cache_dir=cache), basis)
        assert path.read_bytes() == data


def _damage(path, kind):
    data = path.read_bytes()
    if kind == "truncated":
        path.write_bytes(data[:len(data) // 2])
    elif kind == "not_zip":
        path.write_bytes(b"x")
    elif kind == "empty":
        path.write_bytes(b"")
    else:                               # a deflated member whose stream is corrupt
        np.savez_compressed(path, version=CACHE_VERSION, mu=np.zeros(10000))
        data = bytearray(path.read_bytes())
        data[200:250] = bytes(b ^ 0xFF for b in data[200:250])
        path.write_bytes(bytes(data))


@pytest.mark.parametrize("kind", ["truncated", "not_zip", "empty", "corrupt_deflate"])
def test_basis_cache_rebuilds_damaged_files(grid, tmp_path, forbid_eigensolve, kind):
    # an unreadable cache file is rebuilt and overwritten, not raised; the next
    # call loads the new file
    fresh = build_modal_basis(grid, 2, 2)
    build_modal_basis(grid, 2, 2, cache_dir=str(tmp_path))
    path = tmp_path / f"modes_{grid.grid_key()}_m2_n2.npz"
    _damage(path, kind)
    _assert_same_basis(build_modal_basis(grid, 2, 2, cache_dir=str(tmp_path)), fresh)
    forbid_eigensolve()
    _assert_same_basis(build_modal_basis(grid, 2, 2, cache_dir=str(tmp_path)), fresh)


def test_basis_cache_write_interrupted_leaves_the_old_file(grid, tmp_path, monkeypatch):
    # a write that stops part way leaves neither a partial file nor its temporary
    path = tmp_path / f"modes_{grid.grid_key()}_m2_n2.npz"
    path.write_bytes(b"x")

    def interrupted(f, **arrays):
        f.write(b"PK\x03\x04 partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(modal.np, "savez", interrupted)
    with pytest.raises(KeyboardInterrupt):
        build_modal_basis(grid, 2, 2, cache_dir=str(tmp_path))
    assert os.listdir(tmp_path) == [path.name] and path.read_bytes() == b"x"


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
