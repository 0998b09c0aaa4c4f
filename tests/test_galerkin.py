import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateflow.dynamics import Stepper, lyapunov_V, simulate
from plateflow.forces import BergerForce, ForceModel, KirchhoffForce
from plateflow.galerkin import (
    AssemblyError,
    ForcingConfig,
    assemble,
    fluid_forcing_field,
    plate_forcing_profile,
    reconstruct,
)
from plateflow.mesh import VelocityField, inner_fluid, plate_mean
from plateflow.steady import minimize_stationary
import oracles


def test_mass_matrix_symmetric_positive(sys_free):
    M = sys_free.M
    assert np.max(np.abs(M - M.T)) < 1e-13
    assert np.min(np.linalg.eigvalsh(M)) > 0


def test_dissipation_matrix_block_structure(sys_free, basis):
    D = sys_free.D
    m = sys_free.m
    # flow block is diagonal with the Stokes eigenvalues, and flow/lift
    # gradient cross terms vanish identically
    assert np.max(np.abs(D[:m, :m] - np.diag(basis.mu))) < 1e-9
    assert np.max(np.abs(D[:m, m:])) < 1e-10
    assert np.min(np.linalg.eigvalsh(0.5 * (D + D.T))) > 0


def test_assemble_rejects_bad_viscosity(basis):
    with pytest.raises(AssemblyError):
        assemble(basis, nu=-1.0)


def test_energy_derivative_identity(sys_free, rng):
    # analytic chain rule: dE0/dt = w . M wdot + kappa beta . betadot
    y = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    ydot = oracles.rhs(sys_free, y)
    m, n = sys_free.m, sys_free.n
    w = np.concatenate([y[:m], y[m + n:]])
    wdot = np.concatenate([ydot[:m], ydot[m + n:]])
    dE = float(w @ sys_free.M @ wdot) + float(sys_free.kappa @ (y[m:m + n] * y[m + n:]))
    assert abs(dE + sys_free.power_rates(y)[0]) < 1e-9 * (1.0 + abs(dE))


def test_rhs_matches_linear_parts(sys_forced, grid, rng):
    # the core (A, c, B) against the independent la.solve route of rhs, with
    # and without the plate force
    A, c, B = sys_forced.A, sys_forced.c, sys_forced.B
    berger = BergerForce(grid, kappa=5.0, gamma=0.0)

    fc = sys_forced.force_map(berger)
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
    gf = fluid_forcing_field(ForcingConfig(fluid_kind="shear", fluid_amp=2.0), grid)
    assert np.max(np.abs(gf.u)) > 0 and np.max(np.abs(gf.w)) == 0
    gp = plate_forcing_profile(ForcingConfig(plate_kind="sine", plate_amp=1.0), grid)
    assert abs(plate_mean(gp, grid)) < 1e-12
    none = fluid_forcing_field(ForcingConfig(), grid)
    assert np.max(np.abs(none.u)) == 0 and np.max(np.abs(none.w)) == 0


def test_projection_roundtrip(sys_free, grid, rng):
    # build compatible data from known coefficients, project, and compare
    y_ref = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    rec = reconstruct(sys_free, y_ref)
    rep = oracles.project_initial(sys_free, rec.v, rec.u, rec.u_t)
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
        bad = VelocityField(grid, rec.v.u.copy(), rec.v.w.copy())
        bad.u[3, 3] += 1.0
        oracles.project_initial(sys_free, bad, rec.u, rec.u_t)
    with pytest.raises(AssemblyError, match="trace"):
        oracles.project_initial(sys_free, rec.v, rec.u, rec.u_t + 1e-3)


def test_reconstruct_trace_identity_is_exact(sys_free, grid, rng):
    y = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    rec = reconstruct(sys_free, y)
    assert oracles.is_solenoidal(rec.v, grid)
    assert np.array_equal(rec.v.w[:, -1], rec.u_t)


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
    # force_map (modal for Berger) and potential against the nodal force
    # projected by hXi, for one state and for a batch of columns; the modal
    # form follows a model given its own beam operators
    model = BergerForce(grid, kappa=5.0, gamma=30.0)
    if own_ops:
        model.ops = dataclasses.replace(model.ops, D=1.5 * model.ops.D)
    fcs = sys_forced.force_map(model)
    n = sys_forced.n
    betas = 0.7 * rng.standard_normal((n, 4))
    for j in range(4):
        beta = betas[:, j]
        u = sys_forced.plate_deflection(beta)
        want_fc = sys_forced.hXi @ model.force(u)
        want_pot = model.potential(u)
        fc = fcs(beta)
        pot = sys_forced.potential(model, beta)
        assert fc.shape == (n,) and np.ndim(pot) == 0
        assert np.max(np.abs(fc - want_fc)) <= 1e-14 * np.max(np.abs(want_fc))
        assert abs(pot - want_pot) <= 1e-14 * abs(want_pot)
        fc_cols = fcs(betas)
        pot_cols = sys_forced.potential(model, betas)
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
    assert np.array_equal(sys_forced.force_map(None)(beta), np.zeros(n))
    assert np.array_equal(sys_forced.force_jacobian(None)(beta), np.zeros((n, n)))
    assert sys_forced.potential(None, beta) == 0.0


@pytest.mark.parametrize("case", ["berger", "berger_own_ops", "kirchhoff_r0", "kirchhoff_r1",
                                  "kirchhoff_local"])
def test_force_jacobian_matches_central_differences(sys_forced, grid, rng, case):
    # the exact dfc/dbeta against central differences of force_map, column by
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
    fc, jac = sys_forced.force_map(model), sys_forced.force_jacobian(model)
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
    model, kirchhoff = LocalCubic(grid), KirchhoffForce(grid, kappa=0.0)
    fc, dfc = model.modal(sys_forced.basis.xi, grid.h_x)
    beta = 0.7 * rng.standard_normal(sys_forced.n)
    u = sys_forced.plate_deflection(beta)
    assert np.array_equal(fc(beta), sys_forced.hXi @ model.force(u))
    assert np.array_equal(dfc(beta), sys_forced.hXi @ model.jacobian(u) @ sys_forced.basis.xi.T)
    y0 = 0.5 * rng.standard_normal(sys_forced.m + 2 * sys_forced.n)
    runs = [simulate(sys_forced, y0, T=0.2, dt=1e-3, model=f, stride=10)
            for f in (model, kirchhoff)]
    assert np.max(np.abs(runs[0].states - runs[1].states)) <= 1e-13 * np.max(np.abs(runs[1].states))
    assert np.max(np.abs(runs[0].balance_residual)) < 1e-5
    eq, want = minimize_stationary(sys_forced, model), minimize_stationary(sys_forced, kirchhoff)
    assert eq.residual < 1e-8
    assert np.max(np.abs(eq.beta_star - want.beta_star)) <= 1e-10 * np.max(np.abs(want.beta_star))


def test_stepper_and_descent_call_the_models_modal_form(sys_forced, grid, rng):
    # a model that overrides modal is what stepping and stationary descent
    # evaluate: every nodal force call comes from its fc, and descent calls its dfc
    calls = {"fc": 0, "dfc": 0, "force": 0}

    class Counted(LocalCubic):
        def force(self, u):
            calls["force"] += 1
            return super().force(u)

        def modal(self, xi, h_x):
            fc, dfc = super().modal(xi, h_x)

            def counted_fc(beta):
                calls["fc"] += 1
                return fc(beta)

            def counted_dfc(beta):
                calls["dfc"] += 1
                return dfc(beta)
            return counted_fc, counted_dfc

    y = 0.5 * rng.standard_normal(sys_forced.m + 2 * sys_forced.n)
    Stepper(sys_forced, 1e-3, Counted(grid)).step(y)
    assert calls["fc"] > 0 and calls["force"] == calls["fc"] and calls["dfc"] == 0
    calls.update(fc=0, force=0)
    minimize_stationary(sys_forced, Counted(grid))
    assert calls["fc"] > 0 and calls["force"] == calls["fc"] and calls["dfc"] > 0
