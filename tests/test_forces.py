import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateflow.forces import (
    BergerForce,
    ForceModel,
    ForceModelError,
    KirchhoffForce,
    SurrogateNorms,
    verify_coercivity,
    verify_gradient,
    verify_lipschitz,
)
from plateflow.plate2d import (
    PlateGrid2D,
    VonKarmanForce,
    clamped_laplacian_map,
    plate2d_eigenmodes,
    vk_bracket,
)


@pytest.fixture(scope="module")
def norms(basis, grid):
    return SurrogateNorms(kappa=basis.kappa, shapes=basis.xi,
                          weight=grid.h_x)


@pytest.fixture(scope="module")
def g2():
    return PlateGrid2D(n=24)


def test_parameter_validation(grid):
    with pytest.raises(ForceModelError):
        KirchhoffForce(grid, kappa=-1.0)
    with pytest.raises(ForceModelError):
        KirchhoffForce(grid, q=1.0, r=2.0)
    with pytest.raises(ForceModelError):
        BergerForce(grid, kappa=0.0)


def test_kirchhoff_force_is_exact_gradient(grid, rng):
    model = KirchhoffForce(grid, kappa=1.0, q=2.0, r=0.0, mu=0.5)
    u = 0.3 * rng.standard_normal(grid.n_plate)
    assert verify_gradient(model, u, grid, rng=rng) < 1e-8


def test_berger_force_is_exact_gradient(grid, rng):
    model = BergerForce(grid, kappa=5.0, gamma=1.0,
                        load=rng.standard_normal(grid.n_plate))
    u = 0.3 * rng.standard_normal(grid.n_plate)
    assert verify_gradient(model, u, grid, rng=rng) < 1e-8


def test_verify_gradient_rejects_silly_step(grid, rng):
    model = BergerForce(grid, kappa=1.0)
    u = rng.standard_normal(grid.n_plate)
    with pytest.raises(ForceModelError):
        verify_gradient(model, u, grid, h_fd=1.0)


def test_berger_potential_scaling_oracle(grid, rng):
    # with gamma = 0 and no load the potential is quartic: Pi(a u) = a^4 Pi(u)
    model = BergerForce(grid, kappa=3.0, gamma=0.0)
    u = rng.standard_normal(grid.n_plate)
    p1 = model.potential(u)
    p2 = model.potential(2.0 * u)
    assert abs(p2 - 16.0 * p1) < 1e-9 * (1.0 + abs(p2))
    # and equals kappa/4 (h |Du|^2)^2 in closed form
    s = model.ops.D @ u
    Q = grid.h_x * float(s @ s)
    assert abs(p1 - 0.25 * 3.0 * Q ** 2) < 1e-10 * (1.0 + abs(p1))


def test_kirchhoff_local_term_condition(grid):
    model = KirchhoffForce(grid, kappa=1.0, q=2.0)
    worst, ok = model.local_term_lower_bound(lambda1=500.0)
    assert ok
    assert worst >= -1.0   # the default cubic has f(s)/s >= -1


def test_surrogate_norm_ordering(norms, rng):
    # strong norm dominates weak norm up to the spectral gap factor
    u = norms.from_coeffs(rng.standard_normal(len(norms.kappa)))
    assert norms.weak(u) < norms.strong(u)


def test_lipschitz_estimate_grows_superlinearly(basis, grid, norms, rng):
    # the cubic membrane force is superlinear: the local constant at radius 2
    # clearly exceeds the one at radius 1
    model = BergerForce(grid, kappa=1.0, gamma=0.0)
    c1 = verify_lipschitz(model, norms, 1.0, rng=np.random.default_rng(3))
    c2 = verify_lipschitz(model, norms, 2.0, rng=np.random.default_rng(3))
    assert c2 > 1.5 * c1
    with pytest.raises(ForceModelError):
        verify_lipschitz(model, norms, 1.0, trials=3)


def test_coercivity_sweep(grid, norms, rng):
    good = KirchhoffForce(grid, kappa=1.0, q=2.0)
    _, ok = verify_coercivity(good, norms, grid, rng=np.random.default_rng(5))
    assert ok
    # a strongly destabilizing local term, potential -2.5e5 u^4, blows the
    # functional down
    class Destabilizing(ForceModel):
        def potential(self, u):
            return grid.h_x * np.sum(-2.5e5 * u ** 4, axis=0)

    bad = Destabilizing()
    _, ok = verify_coercivity(bad, norms, grid, rng=np.random.default_rng(5))
    assert not ok


# -- 2D plate ---------------------------------------------------------------

def test_plate2d_rejects_coarse():
    with pytest.raises(ForceModelError):
        PlateGrid2D(n=4)


def test_clamped_laplacian_boundary_rows_mirror_the_ghost(g2, rng):
    # the clamped ghost u_{-1} = u_1 leaves 2 u_adjacent / h^2 on a boundary
    # node (corners see no interior neighbour)
    n = g2.n
    u = rng.standard_normal(g2.size)
    Lu = (clamped_laplacian_map(g2) @ u).reshape(n + 1, n + 1)
    full = np.zeros((n + 1, n + 1))
    full[1:-1, 1:-1] = u.reshape(g2.n_int, g2.n_int)
    want = np.zeros((n + 1, n + 1))
    want[0, :] = 2 * full[1, :]
    want[-1, :] = 2 * full[-2, :]
    want[:, 0] = 2 * full[:, 1]
    want[:, -1] = 2 * full[:, -2]
    edge = np.ones((n + 1, n + 1), dtype=bool)
    edge[1:-1, 1:-1] = False
    assert np.max(np.abs(Lu[edge] - want[edge] / g2.h ** 2)) < 1e-12 * np.max(np.abs(Lu))


def test_clamped_laplacian_interior_rows_converge_second_order():
    # on u = sin^2(pi x) sin^2(pi y) the interior rows approach Lap u with
    # error ratio 4 when h is halved
    def error(n):
        g = PlateGrid2D(n=n)
        x, y = g.interior_coords()
        sx, sy = np.sin(np.pi * x) ** 2, np.sin(np.pi * y) ** 2
        cx, cy = 2 * np.pi ** 2 * np.cos(2 * np.pi * x), 2 * np.pi ** 2 * np.cos(2 * np.pi * y)
        Lu = (clamped_laplacian_map(g) @ (sx * sy).ravel()).reshape(n + 1, n + 1)
        return np.max(np.abs(Lu[1:-1, 1:-1] - (cx * sy + sx * cy)))

    e16, e32 = error(16), error(32)
    assert 3.5 < e16 / e32 < 4.5


def test_bracket_polynomial_oracles(g2):
    # [x^2, y^2] = 4 and [xy, xy] = -2 exactly away from the boundary stencil
    xx, yy = g2.interior_coords()
    inner = np.s_[2:-2, 2:-2]
    b1 = vk_bracket((xx ** 2).ravel(), (yy ** 2).ravel(), g2)
    assert np.max(np.abs(b1[inner] - 4.0)) < 1e-10
    b2 = vk_bracket((xx * yy).ravel(), (xx * yy).ravel(), g2)
    assert np.max(np.abs(b2[inner] + 2.0)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_bracket_symmetric(g2, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(g2.size)
    v = rng.standard_normal(g2.size)
    assert np.array_equal(vk_bracket(u, v, g2), vk_bracket(v, u, g2))


def test_von_karman_force_is_exact_gradient(g2, rng):
    xx, yy = g2.interior_coords()
    F0 = 0.3 * np.sin(2 * np.pi * xx) * np.sin(np.pi * yy)
    load = 0.1 * np.cos(np.pi * xx) * np.sin(np.pi * yy)
    model = VonKarmanForce(g2, F0=F0, load=load)
    u = 0.2 * np.sin(np.pi * xx) * np.sin(np.pi * yy)
    assert verify_gradient(model, u, None, rng=rng, weight=g2.h ** 2) < 1e-7


def test_airy_solve_is_consistent(g2, rng):
    model = VonKarmanForce(g2)
    u = 0.2 * rng.standard_normal((g2.n_int, g2.n_int))
    assert model.airy_residual(u) < 1e-8
    # the quartic part of the potential is nonnegative
    assert model.potential(u) >= 0.0


def test_plate2d_eigenmodes_ordered_normalized(g2):
    vals, vecs = plate2d_eigenmodes(g2, 5)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) >= -1e-9)
    for v in vecs:
        assert abs(g2.h ** 2 * float(v @ v) - 1.0) < 1e-9


@pytest.mark.parametrize("name", ["kirchhoff", "berger"])
def test_force_model_acts_column_by_column(grid, rng, name):
    # force and potential on (n_plate, B) equal the single-column calls
    load = rng.standard_normal(grid.n_plate)
    if name == "kirchhoff":
        model = KirchhoffForce(grid, kappa=1.0, q=2.0, r=0.0, mu=0.5, load=load)
    else:
        model = BergerForce(grid, kappa=5.0, gamma=30.0, load=load)
    U = 0.4 * rng.standard_normal((grid.n_plate, 3))
    F, P = model.force(U), model.potential(U)
    assert F.shape == U.shape and P.shape == (3,)
    for j in range(3):
        f, p = model.force(U[:, j]), model.potential(U[:, j])
        assert np.max(np.abs(F[:, j] - f)) <= 1e-14 * np.max(np.abs(f))
        assert abs(P[j] - p) <= 1e-14 * abs(p)
