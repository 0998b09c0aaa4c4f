import dataclasses

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

from plateflow.dynamics import Stepper, lyapunov_V, simulate
from plateflow.forces import BergerForce, ForceModel, KirchhoffForce
from plateflow.galerkin import (
    AssemblyError,
    assemble,
    fluid_forcing_field,
    plate_forcing_profile,
    reconstruct,
)
from plateflow.mesh import VelocityField, grad_inner, inner_fluid, plate_mean
from plateflow.spectrum import generator_eigenvalues, spectral_abscissa
from plateflow.steady import minimize_stationary, solve_stationary_stokes
import oracles


def test_mass_matrix_symmetric_positive(sys_free):
    M = sys_free.M
    assert np.max(np.abs(M - M.T)) < 1e-13
    assert np.min(np.linalg.eigvalsh(M)) > 0


def test_the_system_forms_its_derived_forms_once(sys_forced, basis):
    # the plate mass table is the block M adds on ll, M's spectrum is read in
    # ascending order, and the plate load is p* + f_plate, as ell carries it
    m, n = sys_forced.m, sys_forced.n
    assert np.array_equal(sys_forced.Mp, basis.grid.h_x * basis.xi @ basis.xi.T)
    ll = inner_fluid(basis.lift, basis.lift, basis.grid) + sys_forced.Mp
    assert np.max(np.abs(sys_forced.M[m:, m:] - 0.5 * (ll + ll.T))) <= 1e-15
    assert np.array_equal(sys_forced.M_eigenvalues, np.linalg.eigvalsh(sys_forced.M))
    assert np.array_equal(sys_forced.plate_load, sys_forced.pstar + sys_forced.f_plate)
    assert np.any(sys_forced.f_plate) and np.any(sys_forced.pstar)
    assert np.array_equal(sys_forced.ell[m:m + n],
                          (sys_forced.H @ sys_forced.join(sys_forced.alpha_star, np.zeros(n),
                                                          np.zeros(n)))[m:m + n]
                          + sys_forced.plate_load)


def test_dissipation_matrix_block_structure(sys_free, eigen):
    D = sys_free.D
    m = sys_free.m
    # flow block is diagonal with the Stokes eigenvalues, and flow/lift
    # gradient cross terms vanish identically
    assert np.max(np.abs(D[:m, :m] - np.diag(eigen[0]))) < 1e-9
    assert np.max(np.abs(D[:m, m:])) < 1e-10
    assert np.min(np.linalg.eigvalsh(0.5 * (D + D.T))) > 0


@pytest.mark.parametrize("side", ["flow", "plate"])
def test_assembly_does_not_depend_on_the_basis_of_the_trial_space(basis, grid, side):
    # psi -> S psi spans the same flow space, and xi -> S xi with N0 xi -> S N0 xi
    # the same plate space, so with the battery's forcing the generator's
    # spectrum, the stationary flow and its energy stay, the coefficients of
    # the stationary flow go to S^-T alpha* and the pressure load to S p*, and
    # the forced Berger and Kirchhoff plates rest in the same deflections (the
    # Kirchhoff force through the default modal form, projected by hXi)
    loads = fluid_forcing_field("shear", 1.0, grid), plate_forcing_profile("sine", 0.5, grid)
    k = basis.m if side == "flow" else basis.n
    S = np.eye(k) + 0.3 * np.random.default_rng(0).standard_normal((k, k))
    other = (dataclasses.replace(basis, psi=basis.psi.combine(S)) if side == "flow" else
             dataclasses.replace(basis, xi=S @ basis.xi, lift=basis.lift.combine(S)))
    sys_, mixed = (assemble(b, 1.0, *loads) for b in (basis, other))
    ev, ev_mixed = generator_eigenvalues(sys_), generator_eigenvalues(mixed)
    assert np.max(np.abs(ev - ev_mixed)) <= 1e-12 * np.max(np.abs(ev))
    alpha = S.T @ mixed.alpha_star if side == "flow" else mixed.alpha_star
    assert np.max(np.abs(sys_.alpha_star - alpha)) <= 1e-12 * np.max(np.abs(sys_.alpha_star))
    assert abs(sys_.E0_star - mixed.E0_star) <= 1e-12 * sys_.E0_star
    pstar = sys_.pstar if side == "flow" else S @ sys_.pstar
    assert np.max(np.abs(mixed.pstar - pstar)) <= 1e-12 * np.max(np.abs(pstar))
    for model in (BergerForce(grid, kappa=5.0, gamma=30.0),
                  KirchhoffForce(grid, kappa=1.0, q=2.0, r=0.0, mu=0.5)):
        u, u_mixed = (s.plate_deflection(minimize_stationary(s, model, np.zeros(s.n)).beta_star)
                      for s in (sys_, mixed))
        assert np.max(np.abs(u - u_mixed)) <= 1e-12 * np.max(np.abs(u))


def test_full_order_flow_space(basis, grid, sys_forced, rng):
    # every discretely solenoidal field, with no eigensolve: the reduced model
    # is the discrete PDE's, so its stationary flow is the stationary Stokes
    # solve and the m = 12 stationary flow is the Galerkin projection of it
    full = oracles.full_order_basis(basis)
    assert full.m == (grid.n_x - 1) * (grid.n_z - 1)
    gf, plate = fluid_forcing_field("shear", 1.0, grid), plate_forcing_profile("sine", 0.5, grid)
    for nu, abscissa in ((1.0, -5.17623), (0.1, -0.994168), (0.01, -0.148496)):
        sys_ = assemble(full, nu, gf, plate)
        assert np.max(np.abs(sys_.M - sys_.M.T)) == 0.0 and np.linalg.eigvalsh(sys_.M)[0] > 0
        assert abs(spectral_abscissa(sys_) - abscissa) <= 1e-5 * abs(abscissa)
        v = full.psi.combine(sys_.alpha_star)
        (u, w), (want_u, want_w) = (oracles.face_arrays(f)
                                    for f in (v, solve_stationary_stokes(gf, grid, nu)[0].v))
        scale = max(np.max(np.abs(want_u)), np.max(np.abs(want_w)))
        assert max(np.max(np.abs(u - want_u)), np.max(np.abs(w - want_w))) <= 1e-12 * scale
        if nu == 1.0:
            v_m = basis.psi.combine(sys_forced.alpha_star)
            gap = grad_inner(VelocityField(grid, v.faces - v_m.faces, v.trace - v_m.trace),
                             basis.psi, grid)
            assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(grad_inner(v, basis.psi, grid)))
        rec = reconstruct(sys_, rng.standard_normal(full.m + 2 * full.n))
        assert np.array_equal(rec.v.trace, rec.u_t)


@pytest.mark.parametrize("nu, errors, full_norm", [
    (1.0, (2.096779e-2, 1.004965e-3, 5.759752e-5), 9.678669e-4),
    (0.1, (0.1226363, 0.3442107, 0.3423419), 0.2429449),
    (0.01, (0.1461399, 0.6331326, 1.112561), 0.8641624),
])
def test_reduced_model_against_full_order_in_time(basis, nu, errors, full_norm):
    # the seed-0 unit-energy state of the m = 12 model, lifted exactly to full
    # order (its flow part through C = (Z^T Z)^-1 Z^T psi on the packed faces),
    # and both models run unforced and linear to T = 1: the error in the full
    # order energy norm at t = 0, 0.1, 0.5 and 1; at nu <= 0.1 the m = 12
    # trajectory ends further from full order than full order is from zero
    full = oracles.full_order_basis(basis)
    Z = full.psi.faces.T
    C = la.solve(Z.T @ Z, Z.T @ basis.psi.faces.T, assume_a="pos")
    reduced, full_sys = assemble(basis, nu), assemble(full, nu)
    red = simulate(reduced, reduced.random_state(np.random.default_rng(0)), 1.0, 1e-3, stride=100)
    lifted = np.concatenate([C @ red.states.T[:basis.m], red.states.T[basis.m:]])
    ref = simulate(full_sys, lifted[:, 0], 1.0, 1e-3, stride=100)
    assert np.array_equal(ref.t, red.t) and np.allclose(red.t[[1, 5, 10]], (0.1, 0.5, 1.0))
    err = full_sys.state_norm(ref.states.T - lifted)
    assert err[0] == 0.0
    np.testing.assert_allclose(err[[1, 5, 10]], errors, rtol=1e-6)
    y1_norm = full_sys.state_norm(ref.states[-1])
    assert abs(y1_norm - full_norm) <= 1e-6 * full_norm
    assert (err[10] > y1_norm) == (nu <= 0.1)


def test_lyapunov_V_is_its_field_definition(sys_forced, grid, rng):
    # V = E0 + eps [(u, u_t)_Omega + (v, N0 u)_O], the fields reconstructed
    # from one state and from each of a batch of columns
    eps = 0.25
    Y = rng.standard_normal((sys_forced.m + 2 * sys_forced.n, 3))

    def field_V(y):
        rec = reconstruct(sys_forced, y)
        N0u = sys_forced.basis.lift.combine(sys_forced.split(y)[1])
        return sys_forced.energy_quadratic(y) + eps * (grid.h_x * np.sum(rec.u * rec.u_t)
                                                       + inner_fluid(rec.v, N0u, grid))
    want = np.array([field_V(y) for y in Y.T])
    assert np.max(np.abs(lyapunov_V(sys_forced, Y, eps) - want)) <= 1e-12 * np.max(np.abs(want))
    assert abs(lyapunov_V(sys_forced, Y[:, 0], eps) - want[0]) <= 1e-12 * abs(want[0])


def test_assemble_rejects_bad_viscosity(basis):
    with pytest.raises(AssemblyError):
        assemble(basis, nu=-1.0)


def test_energy_derivative_identity(sys_free, rng):
    # analytic chain rule: dE0/dt = w . M wdot + K beta . betadot
    y = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    ydot = oracles.rhs(sys_free, y)
    m, n = sys_free.m, sys_free.n
    w = np.concatenate([y[:m], y[m + n:]])
    wdot = np.concatenate([ydot[:m], ydot[m + n:]])
    dE = float(w @ sys_free.M @ wdot) + float(y[m:m + n] @ sys_free.K @ y[m + n:])
    assert abs(dE + sys_free.power_rates(y)[0]) < 1e-9 * (1.0 + abs(dE))


def test_rhs_matches_linear_parts(sys_forced, grid, rng):
    # the core (A, c, B) against the independent la.solve route of rhs, with
    # and without the plate force
    A, c, B = sys_forced.A, sys_forced.c, sys_forced.B
    berger = BergerForce(grid, kappa=5.0, gamma=0.0)

    fc = sys_forced.plate_force(berger)[0]
    m, n = sys_forced.m, sys_forced.n
    for _ in range(3):
        y = rng.standard_normal(m + 2 * n)
        diff = oracles.rhs(sys_forced, y) - (A @ y + c)
        assert np.max(np.abs(diff)) < 1e-9 * (1.0 + np.max(np.abs(A @ y)))
        force = B @ fc(y[m:m + n])
        assert np.max(np.abs(force)) > 0
        diff = oracles.rhs(sys_forced, y, fc) - (A @ y + c - force)
        assert np.max(np.abs(diff)) < 1e-12 * (np.max(np.abs(A @ y)) + np.max(np.abs(force)))


def test_generator_energy_identity(sys_free):
    # dE0/dt = y^T H A y = -w^T D w for ydot = A y:  H A + A^T H = -2 D_y,
    # with D_y the dissipation form placed on the kinetic rows and columns
    A, H, kin = sys_free.A, sys_free.H, sys_free.kin
    D_y = np.zeros_like(A)
    D_y[np.ix_(kin, kin)] = sys_free.D
    HA = H @ A
    err = np.max(np.abs(HA + HA.T + 2.0 * D_y)) / np.max(np.abs(HA))
    assert err < 1e-12


def test_force_input_works_only_on_plate_velocity(sys_free):
    # H B selects betadot, so the force term -B fc changes E0 at rate -fc . betadot
    m, n = sys_free.m, sys_free.n
    select = np.zeros((m + 2 * n, n))
    select[m + n:, :] = np.eye(n)
    assert np.max(np.abs(sys_free.H @ sys_free.B - select)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_rhs_affine_in_state(sys_free, c1, c2):
    rng = np.random.default_rng(7)
    N = sys_free.m + 2 * sys_free.n
    y1, y2 = rng.standard_normal(N), rng.standard_normal(N)
    lhs = oracles.rhs(sys_free, c1 * y1 + c2 * y2)
    rhs = (c1 * oracles.rhs(sys_free, y1) + c2 * oracles.rhs(sys_free, y2)
           + (1 - c1 - c2) * oracles.rhs(sys_free, np.zeros(N)))
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * (1.0 + np.max(np.abs(lhs)))


def test_forcing_fields(grid):
    # the shear pushes the u-faces, faces[:n_u], and leaves the w-faces and
    # the Omega row at rest
    gf = fluid_forcing_field("shear", 2.0, grid)
    assert np.max(np.abs(gf.faces[:grid.n_u])) > 0
    assert np.max(np.abs(gf.faces[grid.n_u:])) == 0 and np.max(np.abs(gf.trace)) == 0
    gp = plate_forcing_profile("sine", 1.0, grid)
    assert abs(plate_mean(gp, grid)) < 1e-12
    none = fluid_forcing_field("none", 0.0, grid)
    assert np.max(np.abs(none.faces)) == 0 and np.max(np.abs(none.trace)) == 0
    # an unknown kind is refused at every amplitude, 0 included
    for amp in (1.0, 0.0):
        with pytest.raises(AssemblyError, match="unknown fluid forcing kind 'swirl'"):
            fluid_forcing_field("swirl", amp, grid)
        with pytest.raises(AssemblyError, match="unknown plate forcing kind 'cosine'"):
            plate_forcing_profile("cosine", amp, grid)


def test_a_missing_load_is_positive_zero(sys_free):
    # assembled with no loads, every load and every table derived from them is
    # +0.0, not -0.0, so that an unforced artifact spells no "-0"
    for name in ("f_kin", "f_plate", "alpha_star", "pstar", "plate_load", "ell", "c"):
        a = getattr(sys_free, name)
        assert np.all(a == 0.0) and not np.any(np.signbit(a)), name
    assert sys_free.E0_star == 0.0 and not np.signbit(sys_free.E0_star)


@pytest.mark.parametrize("trial", ["eigen", "plate", "full"])
def test_projection_roundtrip(basis, rng, trial):
    # build compatible data from known coefficients, project, and compare: on
    # the eigenbasis, on the [plate] case's mixed plate basis of the invariance
    # test and on the full-order flow space, whose stacks are not orthonormal
    if trial == "plate":
        S = np.eye(basis.n) + 0.3 * np.random.default_rng(0).standard_normal((basis.n, basis.n))
        basis = dataclasses.replace(basis, xi=S @ basis.xi, lift=basis.lift.combine(S))
    elif trial == "full":
        basis = oracles.full_order_basis(basis)
    sys_ = assemble(basis, 1.0)
    y_ref = rng.standard_normal(sys_.m + 2 * sys_.n)
    rec = reconstruct(sys_, y_ref)
    rep = oracles.project_initial(sys_, rec.v, rec.u, rec.u_t)
    assert np.max(np.abs(rep.y0 - y_ref)) < 1e-12 * (1.0 + np.max(np.abs(y_ref)))
    assert rep.plate_residual < 1e-12
    assert rep.velocity_residual < 1e-10
    assert abs(rep.mean_offset) < 1e-13


def test_projection_reports_mean_offset(sys_free, grid, rng):
    y_ref = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    rec = reconstruct(sys_free, y_ref)
    rep = oracles.project_initial(sys_free, rec.v, rec.u + 0.7, rec.u_t)
    assert abs(rep.mean_offset - 0.7) < 1e-12


def test_projection_rejects_incompatible_data(sys_free, grid, rng):
    y_ref = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    rec = reconstruct(sys_free, y_ref)
    with pytest.raises(AssemblyError, match="divergence"):
        u, w = oracles.face_arrays(rec.v)
        u[3, 3] += 1.0
        bad = oracles.field_on_faces(grid, u, w)
        oracles.project_initial(sys_free, bad, rec.u, rec.u_t)
    with pytest.raises(AssemblyError, match="trace"):
        oracles.project_initial(sys_free, rec.v, rec.u, rec.u_t + 1e-3)


def test_reconstruct_trace_identity_is_exact(sys_free, grid, rng):
    y = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    rec = reconstruct(sys_free, y)
    assert oracles.is_solenoidal(rec.v, grid)
    assert np.array_equal(rec.v.trace, rec.u_t)


def test_state_norm_matches_energy(sys_free, grid, rng):
    y = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    # relative bound: the plate stiffnesses reach ~3.6e5, so 2*E0 is ~5.5e5 for an
    # unscaled state and one ulp there (~1.2e-10) already exceeds an absolute 1e-10
    two_e0 = 2.0 * sys_free.energy_quadratic(y)
    assert abs(sys_free.state_norm(y) ** 2 - two_e0) < 1e-14 * (1.0 + abs(two_e0))
    # state_norm is built on energy_quadratic, so also check 2*E0 against the
    # energy of the reconstructed fields: |v|^2 + |u_t|^2 + bending(u, u)
    rec = reconstruct(sys_free, y)
    two_e0_fields = (inner_fluid(rec.v, rec.v, grid) + oracles.inner_plate(rec.u_t, rec.u_t, grid)
                     + oracles.bending_inner(rec.u, rec.u, grid))
    assert abs(two_e0_fields - two_e0) < 1e-12 * (1.0 + abs(two_e0))


@pytest.mark.parametrize("own_ops", [False, True])
def test_modal_berger_matches_nodal_force(sys_forced, grid, rng, own_ops):
    # plate_force's fc (modal for Berger) and potential against the nodal
    # force projected by hXi, for one state and for a batch of columns; the
    # modal form follows a model given its own beam operators
    model = BergerForce(grid, kappa=5.0, gamma=30.0)
    if own_ops:
        model.ops = dataclasses.replace(model.ops, D=1.5 * model.ops.D)
    fcs, _, potential = sys_forced.plate_force(model)
    n = sys_forced.n
    betas = 0.7 * rng.standard_normal((n, 4))
    for j in range(4):
        beta = betas[:, j]
        u = sys_forced.plate_deflection(beta)
        want_fc = sys_forced.hXi @ model.force(u)
        want_pot = model.potential(u)
        fc = fcs(beta)
        pot = potential(beta)
        assert fc.shape == (n,) and np.ndim(pot) == 0
        assert np.max(np.abs(fc - want_fc)) <= 1e-14 * np.max(np.abs(want_fc))
        assert abs(pot - want_pot) <= 1e-14 * abs(want_pot)
        fc_cols = fcs(betas)
        pot_cols = potential(betas)
        assert fc_cols.shape == (n, 4) and pot_cols.shape == (4,)
        assert np.max(np.abs(fc_cols[:, j] - want_fc)) <= 1e-14 * np.max(np.abs(want_fc))
        assert abs(pot_cols[j] - want_pot) <= 1e-14 * abs(want_pot)


def test_energetics_act_column_by_column(sys_forced, rng):
    N = sys_forced.m + 2 * sys_forced.n
    Y = rng.standard_normal((N, 3))
    fns = [sys_forced.energy_quadratic, sys_forced.state_norm,
           lambda y: sys_forced.power_rates(y)[0], lambda y: sys_forced.power_rates(y)[1],
           lambda y: lyapunov_V(sys_forced, y, 0.25)]
    for fn in fns:
        cols = fn(Y)
        assert cols.shape == (3,)
        for j in range(3):
            assert abs(cols[j] - fn(Y[:, j])) <= 1e-14 * abs(fn(Y[:, j]))


def test_none_model_gives_zero_force(sys_forced, rng):
    # model=None is the absent plate force: zero force, Jacobian and potential
    n = sys_forced.n
    beta = rng.standard_normal(n)
    fc, dfc, potential = sys_forced.plate_force(None)
    assert np.array_equal(fc(beta), np.zeros(n))
    assert np.array_equal(dfc(beta), np.zeros((n, n)))
    assert potential(beta) == 0.0


@pytest.mark.parametrize("case", ["berger", "berger_own_ops", "kirchhoff_r0", "kirchhoff_r1",
                                  "kirchhoff_local"])
def test_force_jacobian_matches_central_differences(sys_forced, grid, rng, case):
    # the exact dfc/dbeta against central differences of fc, column by
    # column; the Jacobian of a gradient is symmetric.  kirchhoff_local has
    # kappa = 0, so its local term u^3 - u is not swamped by the flux term
    if case.startswith("berger"):
        model = BergerForce(grid, kappa=5.0, gamma=30.0)
        if case == "berger_own_ops":
            model.ops = dataclasses.replace(model.ops, D=1.5 * model.ops.D)
    else:
        q, r = (2.5, 1.0) if case == "kirchhoff_r1" else (2.0, 0.0)
        kappa = 0.0 if case == "kirchhoff_local" else 1.0
        model = KirchhoffForce(grid, kappa=kappa, q=q, r=r, mu=0.5)
    fc, jac, _ = sys_forced.plate_force(model)
    n, h = sys_forced.n, 1e-6
    beta = 0.7 * rng.standard_normal(n)
    J = jac(beta)
    fd = np.column_stack([(fc(beta + h * e) - fc(beta - h * e)) / (2 * h) for e in np.eye(n)])
    assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))
    assert np.max(np.abs(J - J.T)) <= 1e-12 * np.max(np.abs(J))


class LocalCubic(ForceModel):
    """A plate law given by its nodal methods alone: F(u) = u^3 - u."""

    def __init__(self, grid):
        self.h = grid.h_x

    def force(self, u):
        return u ** 3 - u

    def jacobian(self, u):
        return np.diag(3.0 * u ** 2 - 1.0)

    def potential(self, u):
        return self.h * np.sum(0.25 * u ** 4 - 0.5 * u ** 2, axis=0)


def test_a_new_force_model_runs_through_the_default_modal_form(sys_forced, grid, rng):
    # a model that defines only force, potential and jacobian gets its modal
    # form from ForceModel.modal, the nodal force and Jacobian projected by
    # hXi, and runs simulate and minimize_stationary as Kirchhoff's local term
    # (kappa = 0) does
    model, kirchhoff = LocalCubic(grid), KirchhoffForce(grid, kappa=0.0, q=2.0, r=0.0, mu=0.0)
    fc, dfc, _ = model.modal(sys_forced.basis.xi, sys_forced.hXi)
    beta = 0.7 * rng.standard_normal(sys_forced.n)
    u = sys_forced.plate_deflection(beta)
    assert np.array_equal(fc(beta), sys_forced.hXi @ model.force(u))
    assert np.array_equal(dfc(beta), sys_forced.hXi @ model.jacobian(u) @ sys_forced.basis.xi.T)
    y0 = 0.5 * rng.standard_normal(sys_forced.m + 2 * sys_forced.n)
    runs = [simulate(sys_forced, y0, T=0.2, dt=1e-3, model=f, stride=10)
            for f in (model, kirchhoff)]
    assert np.max(np.abs(runs[0].states - runs[1].states)) <= 1e-13 * np.max(np.abs(runs[1].states))
    assert np.max(np.abs(runs[0].balance_residual)) < 1e-5
    flat = np.zeros(sys_forced.n)
    eq, want = (minimize_stationary(sys_forced, model, flat),
                minimize_stationary(sys_forced, kirchhoff, flat))
    assert eq.residual < 1e-8
    assert np.max(np.abs(eq.beta_star - want.beta_star)) <= 1e-10 * np.max(np.abs(want.beta_star))


def test_stepper_and_descent_call_the_models_modal_form(sys_forced, grid, rng):
    # a model that overrides modal is what stepping and stationary descent
    # evaluate: every nodal force call comes from its fc, and descent calls its
    # dfc; each builds the modal form once, a Stepper for all its steps and a
    # descent for its loop and its closing residual
    calls = {"modal": 0, "fc": 0, "dfc": 0, "force": 0}

    class Counted(LocalCubic):
        def force(self, u):
            calls["force"] += 1
            return super().force(u)

        def modal(self, xi, hXi):
            calls["modal"] += 1
            fc, dfc, potential = super().modal(xi, hXi)

            def counted_fc(beta):
                calls["fc"] += 1
                return fc(beta)

            def counted_dfc(beta):
                calls["dfc"] += 1
                return dfc(beta)
            return counted_fc, counted_dfc, potential

    y = 0.5 * rng.standard_normal(sys_forced.m + 2 * sys_forced.n)
    stepper = Stepper(sys_forced, 1e-3, Counted(grid))
    stepper.step(stepper.step(y))
    assert calls["modal"] == 1
    assert calls["fc"] > 0 and calls["force"] == calls["fc"] and calls["dfc"] == 0
    calls.update(modal=0, fc=0, force=0)
    minimize_stationary(sys_forced, Counted(grid), np.zeros(sys_forced.n))
    assert calls["modal"] == 1
    assert calls["fc"] > 0 and calls["force"] == calls["fc"] and calls["dfc"] > 0
