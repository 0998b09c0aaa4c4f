import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plateflow.verification as verification
from plateflow.config import ExperimentConfig
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
from plateflow.galerkin import assemble
from plateflow.plate2d import (
    PlateGrid2D,
    VonKarmanForce,
    _bracket_adjoint,
    clamped_laplacian_map,
    vk_bracket,
)
from plateflow.verification import holds
from oracles import berger_fc, kirchhoff_fc, kirchhoff_force, plate2d_eigenmodes


@pytest.fixture(scope="module")
def norms(sys_free):
    return SurrogateNorms.of(sys_free)


@pytest.fixture(scope="module")
def g2():
    return PlateGrid2D(n=24)


def test_parameter_validation(grid):
    with pytest.raises(ForceModelError):
        KirchhoffForce(grid, kappa=-1.0, q=2.0, r=0.0, mu=0.0)
    with pytest.raises(ForceModelError):
        KirchhoffForce(grid, kappa=0.0, q=1.0, r=2.0, mu=0.0)
    with pytest.raises(ForceModelError):
        BergerForce(grid, kappa=0.0, gamma=0.0)


def test_kirchhoff_force_is_exact_gradient(grid, rng):
    model = KirchhoffForce(grid, kappa=1.0, q=2.0, r=0.0, mu=0.5)
    u = 0.3 * rng.standard_normal(grid.n_plate)
    assert verify_gradient(model, u, grid.h_x, rng) < 1e-8


def test_berger_force_is_exact_gradient(grid, rng):
    model = BergerForce(grid, kappa=5.0, gamma=1.0)
    u = 0.3 * rng.standard_normal(grid.n_plate)
    assert verify_gradient(model, u, grid.h_x, rng) < 1e-8


def test_berger_potential_scaling_oracle(grid, rng):
    # with gamma = 0 the potential is quartic: Pi(a u) = a^4 Pi(u)
    model = BergerForce(grid, kappa=3.0, gamma=0.0)
    u = rng.standard_normal(grid.n_plate)
    p1 = model.potential(u)
    p2 = model.potential(2.0 * u)
    assert abs(p2 - 16.0 * p1) < 1e-9 * (1.0 + abs(p2))
    # and equals kappa/4 (h |Du|^2)^2 in closed form
    s = model.ops.D @ u
    Q = grid.h_x * float(s @ s)
    assert abs(p1 - 0.25 * 3.0 * Q ** 2) < 1e-10 * (1.0 + abs(p1))


def test_kirchhoff_local_term_condition(grid, eigen, rng):
    # the local term is the fixed cubic f(s) = s^3 - s: at kappa = 0 it is the
    # whole force, computed as two products, and within a few ulp of the
    # cubic by pow
    u = rng.standard_normal((grid.n_plate, 3))
    model = KirchhoffForce(grid, kappa=0.0, q=2.0, r=0.0, mu=0.0)
    assert np.array_equal(model.force(u), u * u * u - u)
    shape = (grid.n_plate, 200)
    u = 10.0 ** rng.uniform(-3.0, 3.0, shape) * rng.choice([-1.0, 1.0], shape)
    scale = np.abs(u) ** 3 + np.abs(u)
    assert np.all(np.abs(model.force(u) - (u ** 3 - u)) <= 4 * np.finfo(float).eps * scale)
    # so liminf f(s)/s > -lambda_1: f(s)/s = s^2 - 1 >= -1 > -lambda_1, with
    # lambda_1 the smallest bending eigenvalue of the basis
    s = np.linspace(-30.0, 30.0, 20 * grid.n_plate).reshape(grid.n_plate, 20)   # no s = 0
    ratio = KirchhoffForce(grid, kappa=0.0, q=2.0, r=0.0, mu=0.0).force(s) / s
    assert np.max(np.abs(ratio - (s ** 2 - 1.0)) / (s ** 2 + 1.0)) < 1e-14
    assert np.min(ratio) >= -1.0 > -eigen[2][0]


def test_force_maps_equal_their_matmul_forms_bit_for_bit(grid, basis, sys_free, rng):
    # the per-step products call ndarray.dot; written with @ they give the
    # same bytes, for single states and for batches
    kirchhoff = KirchhoffForce(grid, kappa=1.0, q=2.0, r=0.0, mu=0.5)
    berger = BergerForce(grid, kappa=5.0, gamma=30.0)
    for shape in ((grid.n_plate,), (grid.n_plate, 4)):
        u = rng.standard_normal(shape)
        assert np.array_equal(kirchhoff.force(u), kirchhoff_force(kirchhoff, u))
    xi, hXi = basis.xi, sys_free.hXi
    maps = [(sys_free.plate_force(kirchhoff)[0], kirchhoff_fc(kirchhoff, xi, hXi)),
            (sys_free.plate_force(berger)[0], berger_fc(berger, xi))]
    n = basis.n
    for shape in ((n,), (n, 1), (n, 4), (n, 20)):
        beta = rng.standard_normal(shape)
        for fc, want in maps:
            assert np.array_equal(fc(beta), want(beta))


def test_surrogate_norm_ordering(norms, rng):
    # strong norm dominates weak norm up to the spectral gap factor
    u = norms.from_coeffs(rng.standard_normal(len(norms.lam)))
    assert norms.weak(u) < norms.strong(u)


def test_lipschitz_estimate_grows_superlinearly(basis, grid, norms, rng):
    # the cubic membrane force is superlinear: the local constant at radius 2
    # clearly exceeds the one at radius 1
    model = BergerForce(grid, kappa=1.0, gamma=0.0)
    c1 = verify_lipschitz(model, norms, 1.0, rng=np.random.default_rng(3))
    c2 = verify_lipschitz(model, norms, 2.0, rng=np.random.default_rng(3))
    assert c2 > 1.5 * c1


def test_coercivity_sweep(grid, norms, rng):
    def bounded_below(model):
        _, drop = verify_coercivity(model, norms, grid, rng=np.random.default_rng(5))
        return holds("force_model_contracts", "coercivity_drop", drop)

    assert bounded_below(KirchhoffForce(grid, kappa=1.0, q=2.0, r=0.0, mu=0.0))
    # a strongly destabilizing local term, potential -2.5e5 u^4, blows the
    # functional down
    class Destabilizing(ForceModel):
        def potential(self, u):
            return grid.h_x * np.sum(-2.5e5 * u ** 4, axis=0)

    assert not bounded_below(Destabilizing())



def test_surrogate_norms_depend_only_on_the_span_of_the_plate_modes(basis, eigen, sys_free, rng,
                                                                    monkeypatch):
    # xi -> S xi with N0 xi -> S N0 xi spans the same plate space: the norms
    # of any deflection stay, and so do criterion 6's verdicts
    S = np.eye(basis.n) + 0.3 * np.random.default_rng(0).standard_normal((basis.n, basis.n))
    mixed = dataclasses.replace(basis, xi=S @ basis.xi, lift=basis.lift.combine(S))
    norms, norms_mixed = (SurrogateNorms.of(s) for s in (sys_free, assemble(mixed, 1.0)))
    for u in (*rng.standard_normal((3, basis.grid.n_plate)), basis.xi[0], norms.shapes[-1]):
        for a, b in ((norms.strong(u), norms_mixed.strong(u)), (norms.weak(u), norms_mixed.weak(u))):
            assert abs(a - b) <= 1e-12 * a
    verdicts = []
    for b in (basis, mixed):
        monkeypatch.setattr(verification, "build_modal_basis", lambda *args: (b, eigen))
        result = verification.run_criterion("force_model_contracts", ExperimentConfig(), None)
        verdicts.append((result["pass"], {k: v[1] for k, v in result["coercivity"].items()}))
    assert verdicts[0] == verdicts[1] == (True, {"kirchhoff": True, "berger": True})

# -- 2D plate ---------------------------------------------------------------

def test_plate2d_rejects_coarse():
    with pytest.raises(ForceModelError):
        PlateGrid2D(n=4)


def test_clamped_laplacian_boundary_rows_mirror_the_ghost(g2, rng):
    # the clamped ghost u_{-1} = u_1 leaves 2 u_adjacent / h^2 on a boundary
    # node (corners see no interior neighbour)
    n = g2.n
    u = rng.standard_normal(g2.n_int ** 2)
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
    u = rng.standard_normal(g2.n_int ** 2)
    v = rng.standard_normal(g2.n_int ** 2)
    assert np.array_equal(vk_bracket(u, v, g2), vk_bracket(v, u, g2))


def test_bracket_adjoint_is_the_transpose(g2, rng):
    # sum(w * [u, d]) = sum(adjoint(w, u) * d) to rounding: the adjoint is the
    # transpose of d -> [u, d], which the gradient test sees only to 1e-7
    u, w, d = (rng.standard_normal((g2.n_int, g2.n_int)) for _ in range(3))
    lhs = np.sum(w * vk_bracket(u, d, g2))
    assert abs(lhs - np.sum(_bracket_adjoint(w, u, g2) * d)) <= 1e-12 * abs(lhs)


def test_von_karman_force_is_exact_gradient(g2, rng):
    xx, yy = g2.interior_coords()
    model = VonKarmanForce(g2)
    u = 0.2 * np.sin(np.pi * xx) * np.sin(np.pi * yy)
    assert verify_gradient(model, u, g2.h ** 2, rng) < 1e-7


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
    if name == "kirchhoff":
        model = KirchhoffForce(grid, kappa=1.0, q=2.0, r=0.0, mu=0.5)
    else:
        model = BergerForce(grid, kappa=5.0, gamma=30.0)
    U = 0.4 * rng.standard_normal((grid.n_plate, 3))
    F, P = model.force(U), model.potential(U)
    assert F.shape == U.shape and P.shape == (3,)
    for j in range(3):
        f, p = model.force(U[:, j]), model.potential(U[:, j])
        assert np.max(np.abs(F[:, j] - f)) <= 1e-14 * np.max(np.abs(f))
        assert abs(P[j] - p) <= 1e-14 * abs(p)
