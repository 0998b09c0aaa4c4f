import numpy as np
import pytest

from plateflow.dynamics import (
    IntegratorError,
    Stepper,
    Trajectory,
    attractor_regularity_probe,
    continuous_dependence_probe,
    energy_balance_residual,
    fit_decay_rate,
    lyapunov_V,
    lyapunov_eps_scan,
    quasi_stability_probe,
    simulate,
)
from plateflow.forces import BergerForce


@pytest.fixture(scope="module")
def berger(grid):
    return BergerForce(grid, kappa=5.0, gamma=0.0)


def _random_unit_state(sys, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(sys.m + 2 * sys.n)
    return scale * y / sys.state_norm(y)


def test_stepper_rejects_bad_dt(sys_free):
    with pytest.raises(IntegratorError):
        Stepper(sys_free, dt=0.0)


def test_midpoint_matches_scalar_formula_per_mode(sys_free):
    # one linear step of the exact midpoint map: y1 = (I - dt A/2)^{-1}(I + dt A/2) y0
    dt = 1e-3
    A, c = sys_free.A, sys_free.c
    y0 = _random_unit_state(sys_free, seed=1)
    y1, y_mid = Stepper(sys_free, dt).step(y0)
    want = np.linalg.solve(np.eye(len(y0)) - 0.5 * dt * A,
                           (np.eye(len(y0)) + 0.5 * dt * A) @ y0 + dt * c)
    assert np.max(np.abs(y1 - want)) < 1e-13
    assert np.max(np.abs(y_mid - 0.5 * (y0 + y1))) == 0.0


def test_linear_energy_balance_is_exact(sys_free):
    y0 = _random_unit_state(sys_free, seed=2)
    tr = simulate(sys_free, y0, T=1.0, dt=1e-3, stride=10)
    assert energy_balance_residual(tr) < 1e-12


def test_nonlinear_balance_residual_second_order(sys_free, berger):
    y0 = _random_unit_state(sys_free, seed=3)
    r1 = energy_balance_residual(simulate(sys_free, y0, T=1.0, dt=1e-3,
                                          model=berger, stride=10))
    r2 = energy_balance_residual(simulate(sys_free, y0, T=1.0, dt=5e-4,
                                          model=berger, stride=20))
    assert r1 < 1e-5
    assert 3.0 < r1 / r2 < 5.0


def test_energy_monotone_unforced(sys_free, berger):
    y0 = _random_unit_state(sys_free, seed=4)
    for model in (None, berger):
        tr = simulate(sys_free, y0, T=1.0, dt=1e-3, model=model, stride=1)
        metric = tr.E0 if model is None else tr.E
        assert np.all(np.diff(metric) <= 1e-12)


def test_simulate_zero_horizon(sys_free):
    y0 = _random_unit_state(sys_free, seed=5)
    tr = simulate(sys_free, y0, T=0.0, dt=1e-3)
    assert len(tr.t) == 1 and tr.t[0] == 0.0
    assert np.array_equal(tr.states[0], y0)


def test_fit_decay_rate_on_synthetic_exponential():
    t = np.linspace(0.0, 5.0, 200)
    gam, res = fit_decay_rate(t, 3.0 * np.exp(-2.5 * t))
    assert abs(gam - 2.5) < 1e-10
    assert res < 1e-10
    with pytest.raises(IntegratorError):
        fit_decay_rate(t[:4], np.ones(4) * 1e-300)


def test_fitted_rate_tracks_spectral_abscissa(sys_free):
    from plateflow.spectrum import spectral_abscissa
    y0 = _random_unit_state(sys_free, seed=6)
    tr = simulate(sys_free, y0, T=4.0, dt=1e-3, stride=10)
    gam, _ = fit_decay_rate(tr.t, tr.E0)
    target = abs(spectral_abscissa(sys_free))
    assert abs(0.5 * gam - target) / target < 0.1


def test_lyapunov_scan_and_monotonicity(sys_free):
    table, eps_star = lyapunov_eps_scan(sys_free, n_states=50,
                                        rng=np.random.default_rng(8))
    assert eps_star is not None
    y0 = _random_unit_state(sys_free, seed=9)
    tr = simulate(sys_free, y0, T=2.0, dt=1e-3, stride=10)
    V = np.array([lyapunov_V(sys_free, y, eps_star) for y in tr.states])
    assert np.all(np.diff(V) <= 1e-12)
    with pytest.raises(IntegratorError):
        lyapunov_V(sys_free, y0, -0.1)


def test_continuous_dependence_first_order(sys_free, berger):
    y0 = _random_unit_state(sys_free, seed=10)
    out = continuous_dependence_probe(sys_free, y0, delta=1e-4, T=1.0, dt=1e-3,
                                      model=berger, rng=np.random.default_rng(1))
    assert 1.8 < out["ratio"] < 2.2


def test_quasi_stability_probe_basics(sys_free, berger):
    ya = _random_unit_state(sys_free, seed=11)
    yb = _random_unit_state(sys_free, seed=12)
    passed, M = quasi_stability_probe(sys_free, ya, ya.copy(), T=1.0, dt=1e-3,
                                      gamma_star=1.0, model=berger)
    assert passed and M == 0.0
    passed, M = quasi_stability_probe(sys_free, ya, yb, T=3.0, dt=1e-3,
                                      gamma_star=1.0, model=berger, M_cap=1e4)
    assert passed and 0.0 < M <= 1e4


def test_attractor_regularity_probe_flags_growth(sys_free):
    # synthetic trajectories y(t) = e^{rt} y_1 with a known answer: every sup
    # norm of a growing tail rises from the first half to the second, a
    # decaying tail's falls
    t = np.linspace(0.0, 4.0, 201)
    y1 = _random_unit_state(sys_free, seed=21)
    zeros = np.zeros_like(t)

    def probe(rate):
        states = np.exp(rate * t)[:, None] * y1
        return attractor_regularity_probe(Trajectory(t, states, zeros, zeros, zeros, zeros, zeros),
                                          sys_free)

    grow, decay = probe(1.0), probe(-1.0)
    assert not grow["pass"]
    assert decay["pass"]
    for name in ("v_t", "u_t_bending", "u_tt"):
        assert not grow[name]["non_growing"]
        assert grow[name]["sup_second"] > 2.0 * grow[name]["sup_first"] > 0.0
        assert decay[name]["non_growing"]
        assert 0.0 < decay[name]["sup_second"] < decay[name]["sup_first"]


def test_fixed_point_failure_is_reported(sys_free, grid):
    # an enormous force with a huge step cannot contract
    wild = BergerForce(grid, kappa=1e12)
    y0 = _random_unit_state(sys_free, seed=13, scale=10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegratorError, match="converge|diverge"):
            simulate(sys_free, y0, T=1.0, dt=0.5, model=wild)
