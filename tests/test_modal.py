import os
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as la

from plateflow.mesh import (
    Grid,
    GridError,
    VelocityField,
    build_grid,
    grad_inner,
    inner_fluid,
    plate_mean,
)
import plateflow.modal as modal
from plateflow.modal import (
    CACHE_VERSION,
    EIG_TOL,
    TIE_TOL,
    _fix_sign,
    _gauge,
    _vertex_weight,
    build_modal_basis,
    solve_plate_eigenmodes,
    solve_stokes_eigenmodes,
)
from plateflow.stokes import _streamfunction_basis, velocity_blocks
from oracles import (bending_inner, discrete_div, face_arrays, inner_plate, is_solenoidal,
                     mean_shape, project_zero_mean)
from saddle_stokes import SaddlePointStokesSolver

GRIDS = {"16x16": Grid(n_x=16, n_z=16),
         "12x9": Grid(n_x=12, n_z=9, L_x=1.3, L_z=0.7)}


def _dense_oracle(g):
    """The whole streamfunction pencil (K, M) solved densely: eigenvalues,
    M-orthonormal eigenvectors, Z and M."""
    Z = _streamfunction_basis(g)
    K = (Z.T @ (velocity_blocks(g)[0] @ Z)).toarray()
    M = g.h_x * g.h_z * (Z.T @ Z).toarray()
    mu, Y = la.eigh(K, M)
    return mu, Y, Z, M


def _clusters(mu):
    return np.split(np.arange(len(mu)), np.flatnonzero(np.diff(mu) > TIE_TOL * mu[1:]) + 1)


def test_streamfunction_basis_spans_the_solenoidal_fields():
    # every column is a divergence-free field whose walls and Omega row carry
    # zero, and the columns are independent: (n_x-1)(n_z-1) of them
    g = build_grid(Grid(n_x=12, n_z=9, L_x=1.3, L_z=0.7))
    Z = _streamfunction_basis(g).toarray()
    n_s = (g.n_x - 1) * (g.n_z - 1)
    assert Z.shape[1] == n_s
    v = VelocityField(g, Z.T)
    assert np.max(np.abs(discrete_div(v, g))) < 1e-12 / min(g.h_x, g.h_z) ** 2
    assert np.linalg.matrix_rank(Z) == n_s


def test_stokes_modes_orthonormal_with_small_residuals(grid, basis, eigen):
    m = basis.m
    mu, psi_res = eigen[:2]
    G = np.array([[inner_fluid(basis.psi[i], basis.psi[j], grid)
                   for j in range(m)] for i in range(m)])
    assert np.max(np.abs(G - np.eye(m))) < 1e-11
    assert np.all(psi_res < 1e-10)
    assert all(is_solenoidal(basis.psi[i], grid) for i in range(m))
    assert np.all(np.diff(mu) >= -1e-9)


def test_stokes_mode_gradient_gram_is_spectral(grid, basis, eigen):
    # (grad psi_i, grad psi_j) = mu_i delta_ij by construction of the form
    mu = eigen[0]
    for i in range(3):
        for j in range(3):
            val = grad_inner(basis.psi[i], basis.psi[j], grid)
            want = mu[i] if i == j else 0.0
            assert abs(val - want) < 1e-9 * (1.0 + mu[i])


def test_first_stokes_eigenvalue_grid_convergence(grid):
    fine = build_grid(Grid(n_x=32, n_z=32))
    mu16 = solve_stokes_eigenmodes(grid, 1)[0][0]
    mu32 = solve_stokes_eigenmodes(fine, 1)[0][0]
    assert abs(mu16 - mu32) / mu32 < 0.05


def test_plate_modes_orthonormal_zero_mean(grid, basis, eigen):
    n = basis.n
    kappa, xi_res = eigen[2:]
    G = np.array([[inner_plate(basis.xi[i], basis.xi[j], grid)
                   for j in range(n)] for i in range(n)])
    assert np.max(np.abs(G - np.eye(n))) < 1e-11
    for x in basis.xi:
        assert abs(plate_mean(x, grid)) < 1e-12
    assert np.all(kappa > 0)
    assert np.all(np.diff(kappa) >= -1e-6)
    assert xi_res.shape == (n,) and np.all(xi_res < 1e-10)


def test_plate_residual_stays_at_rounding_on_fine_grids(monkeypatch):
    # the bending operator's rounding grows like h^-4, and so does the pencil's
    # largest eigenvalue, which the residual is measured against: at 256^2 the
    # residual reads at most EIG_TOL (the residual relative to kappa alone read
    # 2.1e-7), and modes perturbed by 1e-6 of their norm read above it
    g = build_grid(Grid(n_x=256, n_z=256))
    assert np.all(solve_plate_eigenmodes(g, 8)[2] <= EIG_TOL)
    rng = np.random.default_rng(0)

    def perturbed(a, b):
        kappa, Y = la.eigh(a, b)
        noise = rng.standard_normal(Y.shape)
        return kappa, Y + 1e-6 * noise * np.linalg.norm(Y, axis=0) / np.linalg.norm(noise, axis=0)

    monkeypatch.setattr(modal, "la", SimpleNamespace(null_space=la.null_space, eigh=perturbed))
    assert np.all(solve_plate_eigenmodes(g, 8)[2] > EIG_TOL)


def test_plate_modes_diagonalize_bending(grid, basis, eigen):
    kappa = eigen[2]
    for i in range(3):
        for j in range(3):
            val = bending_inner(basis.xi[i], basis.xi[j], grid)
            want = kappa[i] if i == j else 0.0
            assert abs(val - want) < 1e-7 * (1.0 + kappa[i])


def test_lifted_modes_carry_their_traces(grid, basis):
    for k in range(basis.n):
        assert is_solenoidal(basis.lift[k], grid)
        assert np.max(np.abs(basis.lift[k].trace - basis.xi[k])) < 1e-10


def test_mode_count_limits(grid):
    with pytest.raises(GridError, match="modes"):
        solve_stokes_eigenmodes(grid, 10_000)
    with pytest.raises(GridError, match="modes"):
        solve_plate_eigenmodes(grid, 10_000)


def test_eigensolver_takes_every_count_below_the_dimension():
    # the Lanczos solver needs m < n_s: on a 4x4 grid (n_s = 9) m = 8 is the
    # largest count, and its eigenvalues are the pencil's first eight
    g = build_grid(Grid(n_x=4, n_z=4))
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
    X, X_ref = psi.faces, (Z @ Y[:, :m]).T
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
    assert np.max(np.abs(basis.psi.faces - ref[:basis.m])) < 1e-9
    # a count that cuts the pair (1, 2) keeps the first of the gauged pair
    assert np.max(np.abs(solve_stokes_eigenmodes(grid, 2)[1].faces - ref[:2])) < 1e-9


@pytest.mark.parametrize("name", GRIDS)
def test_lift_matches_saddle_point_solver(name):
    # the streamfunction-space lift against the saddle-point solve, at nu != 1
    # (it must cancel), with the Omega row set to the trace itself
    g = build_grid(GRIDS[name])
    xi = solve_plate_eigenmodes(g, 6)[1]
    v = solve_stokes_eigenmodes(g, 2)[3](xi)
    solver = SaddlePointStokesSolver(g, nu=0.7)
    for k in range(len(xi)):
        (u, w), (ref_u, ref_w) = face_arrays(v[k]), face_arrays(solver.lift(xi[k]).v)
        scale = max(np.max(np.abs(ref_u)), np.max(np.abs(ref_w)))
        assert np.max(np.abs(u - ref_u)) < 1e-11 * scale
        assert np.max(np.abs(w - ref_w)) < 1e-11 * scale
        assert np.array_equal(w[:, -1], ref_w[:, -1])


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
    (cached, (mu, psi_res, kappa, _)) = build_modal_basis(grid, basis.m, basis.n,
                                                          cache_dir=str(tmp_path))
    (reloaded, (mu_r, psi_res_r, kappa_r, _)) = build_modal_basis(grid, basis.m, basis.n,
                                                                  cache_dir=str(tmp_path))
    assert np.array_equal(mu, mu_r)
    assert np.array_equal(kappa, kappa_r)
    assert np.array_equal(cached.psi.faces, reloaded.psi.faces)
    assert np.array_equal(cached.psi.trace, reloaded.psi.trace) and not reloaded.psi.trace.any()
    assert np.array_equal(psi_res, psi_res_r)
    assert np.array_equal(cached.xi, reloaded.xi)
    assert np.array_equal(cached.lift.faces, reloaded.lift.faces)
    # the file stores no lift trace: the lifts carry the plate modes as trace
    assert np.array_equal(cached.lift.trace, reloaded.lift.trace)
    assert np.array_equal(reloaded.lift.trace, reloaded.xi)
    # the cache key includes the mode counts: a different request recomputes
    other = build_modal_basis(grid, 2, 2, cache_dir=str(tmp_path))[0]
    assert other.m == 2 and other.n == 2


def test_basis_cache_keeps_grids_of_nearby_extents_apart(tmp_path, forbid_eigensolve):
    # extents 1e-13 apart are two grids: two files, and each reload is the
    # basis of its own grid, byte for byte
    grids = [build_grid(Grid(n_x=8, n_z=8, L_x=L_x)) for L_x in (1.0, 1.0 + 1e-13)]
    fresh = [build_modal_basis(g, 4, 3, cache_dir=str(tmp_path)) for g in grids]
    assert len(set(os.listdir(tmp_path))) == 2
    forbid_eigensolve()
    for g, want in zip(grids, fresh):
        _assert_same_basis(build_modal_basis(g, 4, 3, cache_dir=str(tmp_path)), want)
    assert not np.array_equal(fresh[0][0].psi.faces, fresh[1][0].psi.faces)


def _cache_arrays(built):
    # the arrays of a cache file of CACHE_VERSION holding build_modal_basis's
    # (basis, eigen-data) built
    b, (mu, psi_res, kappa, xi_res) = built
    return dict(version=CACHE_VERSION, mu=mu, psi=b.psi.faces, psi_res=psi_res, kappa=kappa,
                xi=b.xi, xi_res=xi_res, lift=b.lift.faces)


def _stale_file(built, kind):
    # every array of the basis, each entry of mu doubled so that a load shows
    arrays = dict(_cache_arrays(built), mu=2.0 * built[1][0])
    if kind == "no_version":
        del arrays["version"]
    elif kind == "other_version":
        arrays["version"] = CACHE_VERSION - 1
    elif kind == "wrong_shape":
        arrays["psi"] = built[0].psi.faces[:, :-1]
    elif kind == "version_3_layout":
        # the arrays of version 3: psi and the lifts on every face, wall rows
        # and Omega rows included
        del arrays["psi"], arrays["lift"]
        arrays["version"] = 3
        for name in ("psi", "lift"):
            arrays[f"{name}_u"], arrays[f"{name}_w"] = face_arrays(getattr(built[0], name))
    elif kind == "not_float":
        arrays["xi"] = built[0].xi.astype(str)
    elif kind in ("residual_over_tol", "plate_residual_over_tol"):
        name = "psi_res" if kind == "residual_over_tol" else "xi_res"
        arrays[name] = arrays[name].copy()
        arrays[name][-1] = 2.0 * EIG_TOL
    else:
        arrays["psi"] = built[0].psi.faces.copy()
        arrays["psi"][0, 1] = np.nan
    return arrays


@pytest.mark.parametrize("kind", ["no_version", "other_version", "version_3_layout",
                                  "wrong_shape", "not_float", "non_finite", "residual_over_tol",
                                  "plate_residual_over_tol"])
def test_basis_cache_rebuilds_stale_files(grid, built, tmp_path, kind):
    # a cache file of another format version (or of none), whose arrays do not
    # fit the grid and mode counts or are not finite floats, or that stores a
    # flow or plate residual above EIG_TOL, is rebuilt and overwritten: the
    # result equals a fresh build byte for byte, and the next call loads the
    # new file
    b = built[0]
    path = tmp_path / f"modes_{grid.grid_key()}_m{b.m}_n{b.n}.npz"
    np.savez_compressed(path, **_stale_file(built, kind))
    for _ in range(2):
        _assert_same_basis(build_modal_basis(grid, b.m, b.n, cache_dir=str(tmp_path)), built)
        with np.load(path) as f:
            assert f["version"] == CACHE_VERSION


def _assert_same_basis(got, want):
    # two (basis, eigen-data) of build_modal_basis, byte for byte
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)
    got, want = got[0], want[0]
    assert np.array_equal(got.xi, want.xi)
    for name in ("psi", "lift"):
        assert np.array_equal(getattr(got, name).faces, getattr(want, name).faces)
        assert np.array_equal(getattr(got, name).trace, getattr(want, name).trace)


def test_basis_cache_file_is_stored_uncompressed(grid, basis, tmp_path):
    build_modal_basis(grid, basis.m, basis.n, cache_dir=str(tmp_path))
    # the file is written under a temporary name and moved into place: nothing else is left
    name = f"modes_{grid.grid_key()}_m{basis.m}_n{basis.n}.npz"
    assert os.listdir(tmp_path) == [name]
    with zipfile.ZipFile(tmp_path / name) as z:
        members = z.infolist()
    assert len(members) == 8
    assert all(info.compress_type == zipfile.ZIP_STORED for info in members)


def test_basis_cache_loads_a_compressed_file(grid, built, tmp_path, forbid_eigensolve):
    # files the cache once wrote load without a rebuild and are left as they
    # are: deflated, and stored with the mean shape w0 the basis used to carry
    basis = built[0]
    name = f"modes_{grid.grid_key()}_m{basis.m}_n{basis.n}.npz"
    written = {}
    for kind, save, arrays in (
            ("deflated", np.savez_compressed, _cache_arrays(built)),
            ("with_w0", np.savez, dict(_cache_arrays(built), w0=mean_shape(grid)))):
        path = tmp_path / kind / name
        path.parent.mkdir()
        save(path, **arrays)
        written[path] = path.read_bytes()
    forbid_eigensolve()
    for path, data in written.items():
        cache = str(path.parent)
        _assert_same_basis(build_modal_basis(grid, basis.m, basis.n, cache_dir=cache), built)
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
        pairs = np.array([[form(a[i], b[j], grid) for j in range(len(b.faces))]
                          for i in range(len(a.faces))])
        norms_a = np.sqrt([form(a[i], a[i], grid) for i in range(len(a.faces))])
        norms_b = np.sqrt([form(b[j], b[j], grid) for j in range(len(b.faces))])
        scale = np.outer(norms_a, norms_b)
        assert table.shape == pairs.shape
        assert np.max(np.abs(table - pairs) / scale) <= 1e-14
        # one field against a stack gives that field's row of the table
        assert np.max(np.abs(form(a[0], b, grid) - pairs[0]) / scale[0]) <= 1e-14
