import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from plateflow import dynamics
from plateflow.dynamics import (
    IntegratorError,
    Stepper,
    Trajectory,
    attractor_regularity_probe,
    energy_balance_residual,
    fit_decay_rate,
    lyapunov_V,
    lyapunov_eps_scan,
    quasi_stability_probe,
    simulate,
)
from plateflow.forces import BergerForce, KirchhoffForce
from plateflow.verification import holds
from oracles import continuous_dependence_probe, midpoint_step


@pytest.fixture(scope="module")
def berger(grid):
    return BergerForce(grid, kappa=5.0, gamma=0.0)


def _random_unit_state(sys, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(sys.m + 2 * sys.n)
    return scale * y / sys.state_norm(y)


def test_stepper_rejects_bad_dt(sys_free):
    for dt in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(IntegratorError, match=f"dt must be finite and positive, got {dt}"):
            Stepper(sys_free, dt=dt, model=None)
    with pytest.raises(IntegratorError, match="dt must be finite and positive, got inf"):
        simulate(sys_free, _random_unit_state(sys_free, seed=70), T=0.1, dt=np.inf, stride=10)


def test_midpoint_matches_scalar_formula_per_mode(sys_free):
    # one linear step of the exact midpoint map: y1 = (I - dt A/2)^{-1}(I + dt A/2) y0
    dt = 1e-3
    A, c = sys_free.A, sys_free.c
    y0 = _random_unit_state(sys_free, seed=1)
    y1 = Stepper(sys_free, dt, None).step(y0)
    want = np.linalg.solve(np.eye(len(y0)) - 0.5 * dt * A,
                           (np.eye(len(y0)) + 0.5 * dt * A) @ y0 + dt * c)
    assert np.max(np.abs(y1 - want)) < 1e-13


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
    tr = simulate(sys_free, y0, T=0.0, dt=1e-3, stride=10)
    assert len(tr.t) == 1 and tr.t[0] == 0.0
    assert np.array_equal(tr.states[0], y0)


def test_fit_decay_rate_on_synthetic_exponential():
    t = np.linspace(0.0, 5.0, 200)
    gam, res = fit_decay_rate(t, 3.0 * np.exp(-2.5 * t))
    assert abs(gam - 2.5) < 1e-10
    assert res < 1e-10
    with pytest.raises(IntegratorError):
        fit_decay_rate(t[:4], np.ones(4) * 1e-300)


def test_fit_decay_rate_rejects_negative_samples_and_drops_underflow():
    t = np.linspace(0.0, 1.0, 20)
    q = np.exp(-2.0 * t)
    bad = q.copy()
    bad[15] = -1.0
    with pytest.raises(IntegratorError, match="nonnegative samples, got -1 at sample 15"):
        fit_decay_rate(t, bad)
    bad[15] = np.nan
    with pytest.raises(IntegratorError, match="got nan at sample 15"):
        fit_decay_rate(t, bad)
    # a negative sample before the fit window is not read
    early = q.copy()
    early[3] = -1.0
    assert fit_decay_rate(t, early) == fit_decay_rate(t, q)
    # samples in [0, 1e-280] have underflowed and are left out of the fit
    under = q.copy()
    under[[12, 15]] = (0.0, 1e-280)
    gam, res = fit_decay_rate(t, under)
    assert abs(gam - 2.0) < 1e-12 and res < 1e-12


def test_fitted_rate_tracks_spectral_abscissa(sys_free):
    from plateflow.spectrum import spectral_abscissa
    y0 = _random_unit_state(sys_free, seed=6)
    tr = simulate(sys_free, y0, T=4.0, dt=1e-3, stride=10)
    gam, _ = fit_decay_rate(tr.t, tr.E0)
    target = abs(spectral_abscissa(sys_free))
    assert abs(0.5 * gam - target) / target < 0.1


def test_lyapunov_scan_and_monotonicity(sys_free):
    table = lyapunov_eps_scan(sys_free, n_states=50, rng=np.random.default_rng(8))
    assert [row[0] for row in table] == [2.0 ** -k for k in range(1, 11)]
    # the largest eps whose ratio range V/E0 meets criterion 4's bounds
    eps_star = next(eps for eps, a0, a1 in table if holds("lyapunov_construction", "a0", a0)
                    and holds("lyapunov_construction", "a1", a1))
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


def _pair_run(sys, ya, yb, T, model, dt=1e-3):
    # the pairs (ya, yb) as one run: the a-sides, then the b-sides
    return simulate(sys, np.column_stack([ya, yb]), T, dt, model, stride=10)


def test_quasi_stability_probe_basics(sys_free, berger):
    ya = _random_unit_state(sys_free, seed=11)
    yb = _random_unit_state(sys_free, seed=12)
    M = quasi_stability_probe(sys_free, _pair_run(sys_free, ya, ya.copy(), 1.0, berger),
                              gamma_star=1.0)
    assert M.tolist() == [0.0]
    M = quasi_stability_probe(sys_free, _pair_run(sys_free, ya, yb, 3.0, berger), gamma_star=1.0)
    assert 0.0 < M[0] and holds("quasi_stability", "M", M[0])


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

    def non_growing(halves):
        return holds("attractor_regularity", "sup_second",
                     (halves["sup_second"], halves["sup_first"]))

    grow, decay = probe(1.0), probe(-1.0)
    assert sorted(grow) == sorted(decay) == ["u_t_bending", "u_tt", "v_t"]
    for name in ("v_t", "u_t_bending", "u_tt"):
        assert not non_growing(grow[name])
        assert grow[name]["sup_second"] > 2.0 * grow[name]["sup_first"] > 0.0
        assert non_growing(decay[name])
        assert 0.0 < decay[name]["sup_second"] < decay[name]["sup_first"]
    # a sample at T off the stride, as simulate adds it, makes the last
    # interval short: the central differences would divide by the wrong span
    t[-1] = t[-2] + 0.25 * (t[1] - t[0])
    with pytest.raises(IntegratorError,
                       match=r"evenly spaced samples: interval 199, \[3\.98, 3\.985\]"):
        probe(-1.0)


def test_fixed_point_failure_is_reported(sys_free, grid):
    # an enormous force with a huge step cannot contract
    wild = BergerForce(grid, kappa=1e12, gamma=0.0)
    y0 = _random_unit_state(sys_free, seed=13, scale=10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegratorError, match="converge|diverge"):
            simulate(sys_free, y0, T=1.0, dt=0.5, model=wild, stride=10)


def _loaded_models(grid):
    return {
        "linear": None,
        "berger": BergerForce(grid, kappa=5.0, gamma=30.0),
        "kirchhoff": KirchhoffForce(grid, kappa=1.0, q=2.0, r=0.0, mu=0.5),
    }


@pytest.mark.parametrize("name", ["linear", "berger", "kirchhoff"])
def test_batched_simulate_matches_solo_runs(sys_forced, grid, name):
    # each column of one (N, B) run against its own (N,) run, states and
    # every energy report, on a forced system with a sine plate load (f_plate)
    model = _loaded_models(grid)[name]
    y0 = np.column_stack([_random_unit_state(sys_forced, seed=30 + j, scale=0.5 * (j + 1))
                          for j in range(3)])
    batch = simulate(sys_forced, y0, T=0.5, dt=1e-3, model=model, stride=10)
    assert batch.states.shape == (51, y0.shape[0], 3) and batch.E.shape == (51, 3)
    for j in range(3):
        solo = simulate(sys_forced, y0[:, j], T=0.5, dt=1e-3, model=model, stride=10)
        assert solo.states.shape == (51, y0.shape[0]) and solo.E.shape == (51,)
        size = np.max(np.abs(solo.states))
        assert np.max(np.abs(batch.states[..., j] - solo.states)) <= 1e-13 * size
        for field in ("E0", "E", "dissipation_integral"):
            want = getattr(solo, field)
            got = getattr(batch, field)[:, j]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(batch.balance_residual[:, j] - solo.balance_residual)) < 1e-15


@pytest.mark.parametrize("name", ["linear", "berger"])
def test_a_load_0_run_of_the_forced_system_is_the_unforced_run(sys_free, sys_forced, grid, name):
    # load 0 scales away the forced system's loads column by column: in an
    # ensemble with a loaded run, its columns equal the unforced system's run,
    # states and all five reports, and the loaded run its own solo run
    model = _loaded_models(grid)[name]
    y0 = np.column_stack([_random_unit_state(sys_free, seed=90 + j, scale=0.5) for j in range(2)])
    y1 = _random_unit_state(sys_free, seed=92, scale=0.5)
    free, loaded = simulate(sys_forced, [y0, y1], [0.3, 0.2], 1e-3, model, stride=[10, 7],
                            keep_states=[True, True], load=[0.0, 1.0])
    for got, want in ((free, simulate(sys_free, y0, T=0.3, dt=1e-3, model=model, stride=10)),
                      (loaded, simulate(sys_forced, y1, T=0.2, dt=1e-3, model=model, stride=7))):
        assert np.array_equal(got.t, want.t)
        for field in ("states", "E0", "E", "Estar", "dissipation_integral", "balance_residual"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape, field
            assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(b))), field
    assert np.array_equal(free.Estar, free.E) and np.max(np.abs(loaded.Estar - loaded.E)) > 1e-5


def test_propagator_step_matches_lu_solve_midpoint(sys_forced, grid):
    # one step of the propagator against the factored midpoint equation
    # S1 y+ = S0 y + dt c - dt B fc(beta_mid), iterated with lu_solve
    dt = 1e-3
    model = _loaded_models(grid)["berger"]
    N = sys_forced.A.shape[0]
    m, n = sys_forced.m, sys_forced.n
    S1 = la.lu_factor(np.eye(N) - 0.5 * dt * sys_forced.A)
    S0 = np.eye(N) + 0.5 * dt * sys_forced.A
    for stepper_model in (None, model):
        fc = sys_forced.plate_force(stepper_model)[0]
        y = _random_unit_state(sys_forced, seed=40, scale=0.8)
        base = S0 @ y + dt * sys_forced.c
        want = la.lu_solve(S1, base)
        if stepper_model is not None:
            for _ in range(50):
                mid = 0.5 * (y + want)[m:m + n]
                rhs = base - dt * sys_forced.B @ fc(mid)
                want = la.lu_solve(S1, rhs)
        got = Stepper(sys_forced, dt, stepper_model).step(y)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_batched_step_failure_names_the_member(sys_free, grid, monkeypatch):
    # column 1 converges slowly while column 3 diverges: the error names
    # column 3 with its last finite update; when the iterations run out, it
    # names the first column still iterating
    stiff = BergerForce(grid, kappa=1e6, gamma=0.0)
    small = _random_unit_state(sys_free, seed=50, scale=1e-6)
    slow = _random_unit_state(sys_free, seed=51, scale=0.2)
    big = _random_unit_state(sys_free, seed=52, scale=10.0)
    stepper = Stepper(sys_free, 0.05, stiff)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegratorError, match=r"diverged \(non-finite iterate\) in member 3 "
                                                  r"\(last update \d\.\d{3}e[+-]\d+\)"):
            stepper.step(np.column_stack([small, slow, small, big]))
    stepper.step(np.column_stack([small, slow, small]))
    monkeypatch.setattr("plateflow.dynamics.FP_MAXIT", 3)
    with pytest.raises(IntegratorError, match=r"did not converge in member 1 \(last update"):
        stepper.step(np.column_stack([small, slow, slow]))


def test_step_is_the_first_fixed_point_bit_for_bit(sys_free, sys_forced, grid, monkeypatch):
    # Stepper.step against the fixed point as first written
    # (oracles.midpoint_step): twenty Kirchhoff steps and twenty linear steps
    # of one state, twenty steps of a Berger batch as wide as quasi_stability's
    # ensemble, and a stiff Berger batch whose columns freeze after different
    # iteration counts
    for model in (_loaded_models(grid)["kirchhoff"], None):
        stepper = Stepper(sys_forced, 1e-3, model)
        y = _random_unit_state(sys_forced, seed=80, scale=0.8)
        for _ in range(20):
            want = midpoint_step(stepper, y)
            y = stepper.step(y)
            assert np.array_equal(y, want)
    stepper = Stepper(sys_forced, 1e-3, _loaded_models(grid)["berger"])
    y = np.column_stack([_random_unit_state(sys_forced, seed=s, scale=0.8) for s in range(80, 100)])
    for _ in range(20):
        want = midpoint_step(stepper, y)
        y = stepper.step(y)
        assert np.array_equal(y, want)
    stepper = Stepper(sys_free, 0.05, BergerForce(grid, kappa=1e6, gamma=0.0))
    widths, fc = [], stepper._fc
    monkeypatch.setattr(stepper, "_fc", lambda beta: widths.append(beta.shape[1]) or fc(beta))
    batch = np.column_stack([_random_unit_state(sys_free, seed=s, scale=a)
                             for s, a in ((50, 1e-6), (51, 0.2), (53, 0.05), (54, 1e-3))])
    got = stepper.step(batch)
    assert len(set(widths)) >= 3                  # two freezes, at different iterations
    assert np.array_equal(got, midpoint_step(stepper, batch))
    # two columns with kinetic entries of about 30 and 300: each step, one of
    # them converges on an update above FP_TOL that only the relative test
    # FP_TOL (1 + max|y_new|) accepts, and the columns freeze at different
    # iterations
    stepper = Stepper(sys_forced, 1e-3, _loaded_models(grid)["berger"])
    fc = stepper._fc
    monkeypatch.setattr(stepper, "_fc", lambda beta: widths.append(beta.shape[1]) or fc(beta))
    y = np.column_stack([_random_unit_state(sys_forced, seed=s, scale=0.5) for s in range(60, 64)])
    y[sys_forced.kin, 2:] *= [1e4, 1e5]
    for _ in range(3):
        updates = []
        widths.clear()
        want = midpoint_step(stepper, y, updates)
        want_widths = widths.copy()
        widths.clear()
        y = stepper.step(y)
        assert np.array_equal(y, want) and widths == want_widths
        assert any(np.any((d > dynamics.FP_TOL) & (d <= b)) for d, b in updates)
        assert len(set(widths)) >= 2


def test_a_long_kirchhoff_run_makes_the_first_fixed_points_force_calls(sys_forced, grid,
                                                                         monkeypatch):
    # 2,000 steps of one Kirchhoff trajectory: the same states and the same
    # number of force evaluations as oracles.midpoint_step
    stepper = Stepper(sys_forced, 1e-3, _loaded_models(grid)["kirchhoff"])
    calls, fc = [], stepper._fc
    monkeypatch.setattr(stepper, "_fc", lambda beta: calls.append(1) or fc(beta))
    y0 = _random_unit_state(sys_forced, seed=81, scale=0.8)
    counts = []
    for step in (stepper.step, lambda y: midpoint_step(stepper, y)):
        calls.clear()
        y = y0
        for _ in range(2000):
            y = step(y)
        counts.append((len(calls), y))
    (got, y_got), (want, y_want) = counts
    assert got == want > 2000 and np.array_equal(y_got, y_want)


def test_step_fails_as_the_first_fixed_point(sys_free, grid, monkeypatch):
    # a diverging column, alone or after others froze, a run out of
    # iterations and an update that overflows to inf raise with the member
    # and the last update of the first form
    small = _random_unit_state(sys_free, seed=50, scale=1e-6)
    slow = _random_unit_state(sys_free, seed=51, scale=0.2)
    big = _random_unit_state(sys_free, seed=52, scale=10.0)
    stepper = Stepper(sys_free, 0.05, BergerForce(grid, kappa=1e6, gamma=0.0))

    def messages(y):
        out = []
        for step in (lambda y: midpoint_step(stepper, y), stepper.step):
            with pytest.raises(IntegratorError) as exc:
                step(y)
            out.append(str(exc.value))
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        for y in (big, np.column_stack([small, slow, small, big]), np.column_stack([big, small])):
            want, got = messages(y)
            assert got == want and "diverged" in got
    monkeypatch.setattr("plateflow.dynamics.FP_MAXIT", 3)
    want, got = messages(np.column_stack([small, slow, slow]))
    assert got == want and "did not converge in member 1" in got
    # a force that overflows past the start state makes every entry of the
    # update +-inf and none nan, so the relative test alone would pass it
    start = small[stepper._beta, None]

    def overflow(beta):
        f = np.zeros_like(beta)
        f[0] = 0.0 if np.array_equal(beta, start) else np.inf
        return f
    assert np.all(stepper._PB[:, 0] != 0.0)
    monkeypatch.setattr(stepper, "_fc", overflow)
    with np.errstate(invalid="ignore"):
        want, got = messages(small)
    assert got == want and "diverged" in got


def _trapezoid_conv(t, du2, gamma_star):
    # the O(K^2) form: integral of e^{-g(t_k - s)} du2(s) by trapezoid on [0, t_k]
    conv = np.zeros_like(t)
    for k in range(1, len(t)):
        w = np.exp(-gamma_star * (t[k] - t[: k + 1])) * du2[: k + 1]
        conv[k] = np.trapezoid(w, t[: k + 1])
    return conv


def test_quasi_stability_recursion_matches_trapezoid(sys_free, berger):
    # T = 1.005 with stride 10 leaves a last sample interval of 5 steps; a
    # large gamma_star makes the convolution, not the Z0 term, set M
    T, dt, gamma_star = 1.005, 1e-3, 20.0
    m, n = sys_free.m, sys_free.n
    ya = np.column_stack([_random_unit_state(sys_free, seed=60),
                          _random_unit_state(sys_free, seed=61)])
    yb = np.column_stack([_random_unit_state(sys_free, seed=62), ya[:, 1]])
    tr = _pair_run(sys_free, ya, yb, T, berger, dt)
    M = quasi_stability_probe(sys_free, tr, gamma_star=gamma_star)
    t = tr.t
    assert np.isclose(t[-1] - t[-2], 0.005) and np.isclose(t[1] - t[0], 0.01)
    diff = tr.states[..., 0] - tr.states[..., 2]
    Z2 = np.array([sys_free.state_norm(d) ** 2 for d in diff])
    du2 = np.array([float(np.sum(d[m:m + n] ** 2)) for d in diff])
    want = np.max(Z2 / (np.exp(-gamma_star * t) * Z2[0] + _trapezoid_conv(t, du2, gamma_star)))
    assert want > 2.0
    assert abs(M[0] - want) <= 1e-12 * want
    # the identical pair keeps M = 0 on its own
    assert M[1] == 0.0


def test_quasi_stability_identical_pair_has_zero_M(sys_free, berger):
    # M = 0 for an identical pair must not rest on the two batch columns
    # rounding alike: perturb the b-side's samples k >= 1 at rounding level
    ya = np.column_stack([_random_unit_state(sys_free, seed=63), _random_unit_state(sys_free, seed=64)])
    yb = np.column_stack([ya[:, 0], _random_unit_state(sys_free, seed=65)])
    tr = _pair_run(sys_free, ya, yb, 0.2, berger)
    tr.states[1:, :, 2:] *= 1.0 + 1e-15
    M = quasi_stability_probe(sys_free, tr, gamma_star=1.0)
    assert M[0] == 0.0 and M[1] > 0.0
    single = _pair_run(sys_free, ya[:, 0], ya[:, 0], 0.2, berger)
    single.states[1:, :, 1:] *= 1.0 + 1e-15
    M = quasi_stability_probe(sys_free, single, gamma_star=1.0)
    assert M.tolist() == [0.0]


@pytest.mark.parametrize("bad, message", [
    ({"stride": 0}, "stride .* got 0"), ({"stride": -3}, "stride .* got -3"),
    ({"T": -1.0}, "time .* got -1.0"), ({"T": float("nan")}, "time .* got nan"),
    ({"T": float("inf")}, "time .* got inf"),
    ({"T": 1.0, "dt": 0.3}, "1.0 is not a whole number of time steps 0.3")])
def test_simulate_rejects_bad_stride_and_horizon(sys_free, bad, message):
    kw = {"T": 0.1, "dt": 1e-3, "stride": 10} | bad
    with pytest.raises(IntegratorError, match=message):
        simulate(sys_free, _random_unit_state(sys_free, seed=70), **kw)


def _per_step_reference(sys, y0, T, dt, model, stride):
    # simulate's reports one step at a time: power rates at each step's
    # midpoint, summed as it goes, and the energies at each sample, with the
    # energy shifted by the system's stationary flow and by p* plus the plate
    # load written out
    m, n = sys.m, sys.n
    stepper = Stepper(sys, dt, model)
    potential = sys.plate_force(model)[2]
    y_star = sys.join(sys.alpha_star, np.zeros(n), np.zeros(n))[:, None]
    load = sys.pstar + sys.f_plate

    def reports(y):
        beta = y[m:m + n]
        E0 = sys.energy_quadratic(y)
        pot = potential(beta)
        return E0, E0 + pot, sys.energy_quadratic(y - y_star) + pot - load @ beta

    y = y0.reshape(len(y0), -1)
    n_steps = int(round(T / dt))
    diss_acc = work_acc = np.zeros(y.shape[1])
    t, states, rep = [0.0], [y], [reports(y) + (diss_acc, diss_acc)]
    E_0 = rep[0][1]
    for k in range(1, n_steps + 1):
        y_prev, y = y, stepper.step(y)
        diss, work = sys.power_rates(0.5 * (y_prev + y))
        diss_acc = diss_acc + dt * diss
        work_acc = work_acc + dt * work
        if k % stride == 0 or k == n_steps:
            E0, E, Estar = reports(y)
            t.append(k * dt)
            states.append(y)
            rep.append((E0, E, Estar, (E + diss_acc - E_0 - work_acc) / (np.abs(E_0) + 1.0),
                        diss_acc))
    rep = np.array(rep)
    return np.array(t), np.array(states).reshape((len(t),) + y0.shape), rep.reshape(
        rep.shape[:2] + y0.shape[1:])


def _check_block_reports(sys, grid, B, stride, span, keep_states):
    # L is simulate's block length; short is under one block, whole is two
    # blocks exactly, long has a short last block
    L = max(1, min(dynamics._BLOCK_STEPS, dynamics._BLOCK_COLUMNS // B))
    n_steps = {"short": L // 2 + 3, "whole": 2 * L, "long": 2 * L + 33}[span]
    dt = 1e-3
    model = _loaded_models(grid)["berger"]
    y0 = np.column_stack([_random_unit_state(sys, seed=80 + j, scale=0.5 * (j + 1))
                          for j in range(B)])
    if B == 1:
        y0 = y0[:, 0]
    tr = simulate(sys, y0, n_steps * dt, dt, model, stride=stride, keep_states=keep_states)
    t, states, rep = _per_step_reference(sys, y0, n_steps * dt, dt, model, stride)
    assert np.array_equal(tr.t, t)
    assert np.array_equal(tr.states, states) if keep_states else tr.states is None
    # stacking columns may reorder BLAS sums; measured worst drift 1.6e-16
    scale = 1.0 + np.abs(rep[0, 1])
    for col, (field, got) in enumerate((("E0", tr.E0), ("E", tr.E), ("Estar", tr.Estar),
                                        ("balance_residual", tr.balance_residual),
                                        ("dissipation_integral", tr.dissipation_integral))):
        assert got.shape == rep[:, col].shape
        assert np.max(np.abs(got - rep[:, col]) / scale) <= 1e-14, field


@pytest.mark.parametrize("keep_states", [True, False])
@pytest.mark.parametrize("span", ["short", "whole", "long"])
@pytest.mark.parametrize("stride", [1, 7, 10])
@pytest.mark.parametrize("B", [1, 3])
def test_block_reports_match_per_step_reference(sys_forced, grid, B, stride, span, keep_states,
                                                monkeypatch):
    # a small budget where both caps bind and blocks cut strides: B = 1 blocks
    # are 62 steps (step cap), B = 3 blocks 52 steps (column cap), and no span
    # is a multiple of 7 or 10, so each run ends between two samples
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 62)
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", 156)
    _check_block_reports(sys_forced, grid, B, stride, span, keep_states)


def test_block_reports_match_per_step_reference_at_default_budget(sys_forced, grid):
    # B = 3 blocks are column-capped at 682 steps, not a multiple of 7
    _check_block_reports(sys_forced, grid, 3, 7, "long", True)


def test_sparse_stride_keeps_block_buffers_small(sys_free):
    # two samples of a 20,000-step run: the block buffers follow the block
    # budget, not the stride, which would size them at about 16 MB here
    y0 = _random_unit_state(sys_free, seed=81)
    dense = simulate(sys_free, y0, T=20.0, dt=1e-3, stride=1000)
    tracemalloc.start()
    try:
        sparse = simulate(sys_free, y0, T=20.0, dt=1e-3, stride=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(sparse.t, [0.0, 20.0])
    assert np.array_equal(sparse.states, dense.states[[0, -1]])
    assert np.allclose(sparse.E, dense.E[[0, -1]], rtol=1e-14, atol=0.0)
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"
