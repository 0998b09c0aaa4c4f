"""The full property-verification battery at desk scale.

Each check ends in a dict with a boolean "pass" plus the measured numbers, so
the CLI can print one line per criterion and the test suite can assert on the
same data.  All tolerances are fixed here, not configurable: they encode the
claims being verified.

The battery runs as one schedule.  A check that integrates trajectories is a
generator: it draws its random states, yields its run requests (_Run) and
receives their trajectories.  The scheduler starts the checks in CRITERIA
order, each up to its request, so every random draw keeps its place; it then
steps each group of requests that share system, force model, dt and
keep_states as one ensemble, and resumes a check once all its runs are served.
A batch member is its solo run up to rounding, so the verdicts are those of
the checks run one after another.  The schedule's simulate is the battery's
only integration: the probes it feeds (quasi-stability, semigroup
consistency, attractor regularity, distance to equilibrium) and the shifted
energy read the trajectories they are served.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig
from .dynamics import (
    BALANCE_TOL,
    IntegratorError,
    Trajectory,
    energy_balance_residual,
    fit_decay_rate,
    lyapunov_V,
    lyapunov_eps_scan,
    per_sample,
    quasi_stability_probe,
    attractor_regularity_probe,
    estar_monotone,
    simulate,
)
from .forces import (
    BergerForce,
    ForceModel,
    KirchhoffForce,
    SurrogateNorms,
    verify_coercivity,
    verify_gradient,
    verify_lipschitz,
)
from .galerkin import ForcingConfig, GalerkinSystem, assemble, fluid_forcing_field, reconstruct
from .mesh import build_grid, plate_mean
from .modal import build_modal_basis
from .plate2d import PlateGrid2D, VonKarmanForce, vk_bracket
from .spectrum import (
    CONTRACTION_TOL,
    contraction_norm,
    gamma_operator_checks,
    semigroup_consistency,
    spectral_abscissa,
)
from .steady import DISTANCE_TOL, distance_to_equilibrium, solve_stationary_stokes


class _Setup:
    """Shared grid/basis/system for the battery (built once)."""

    def __init__(self, cfg: ExperimentConfig, cache_dir=None):
        self.cfg, self.cache_dir = cfg, cache_dir
        self.grid = build_grid(cfg.geometry)
        self.basis = build_modal_basis(self.grid, cfg.modes.m, cfg.modes.n, cache_dir)
        self.nu = cfg.physics.nu
        self.sys_free = assemble(self.basis, self.nu)
        self.forcing = ForcingConfig(fluid_kind="shear", fluid_amp=1.0,
                                     plate_kind="sine", plate_amp=0.5)
        self.sys_forced = assemble(self.basis, self.nu, self.forcing)
        self.gf = fluid_forcing_field(self.forcing, self.grid)
        self.berger = BergerForce(self.grid, kappa=5.0, gamma=0.0)
        self.rng = np.random.default_rng(cfg.probes.seed)
        self.abscissa = spectral_abscissa(self.sys_free)

    def random_state(self, scale=1.0):
        return self.sys_free.random_state(self.rng, scale)


class _Run(NamedTuple):
    """One trajectory a check requests: simulate(sys, y0, T, dt, model, stride,
    keep_states=keep_states); round(T/dt) must be a whole number of strides."""

    sys: GalerkinSystem
    y0: np.ndarray
    T: float
    dt: float
    model: ForceModel | None = None
    stride: int = 10
    keep_states: bool = True


def check_mass_matrix_positivity(s: _Setup):
    results = []
    for (m, n) in [(1, 1), (4, 4), (12, 8)]:
        if (m, n) == (s.cfg.modes.m, s.cfg.modes.n):
            sysmn = s.sys_free                  # the set-up's own basis; the others via its cache
        else:
            sysmn = assemble(build_modal_basis(s.grid, m, n, s.cache_dir), s.nu)
        sym = float(np.max(np.abs(sysmn.M - sysmn.M.T)))
        min_eig = float(np.min(np.linalg.eigvalsh(sysmn.M)))
        results.append({"m": m, "n": n, "symmetry_error": sym, "min_eigenvalue": min_eig,
                        "pass": sym <= 1e-12 and min_eig > 0})
    return {"cases": results, "pass": all(r["pass"] for r in results)}


def check_energy_balance(s: _Setup):
    y0 = s.random_state(0.5)
    lin, nl1, nl2 = yield [_Run(s.sys_forced, y0, T=2.0, dt=1e-3),
                           _Run(s.sys_forced, y0, T=2.0, dt=1e-3, model=s.berger),
                           _Run(s.sys_forced, y0, T=2.0, dt=5e-4, model=s.berger, stride=20)]
    res_lin = energy_balance_residual(lin)
    res1, res2 = energy_balance_residual(nl1), energy_balance_residual(nl2)
    ratio = res1 / max(res2, 1e-300)
    ok = res_lin <= BALANCE_TOL and res1 <= BALANCE_TOL and 3.4 <= ratio <= 4.6
    return {"linear_residual": res_lin, "berger_residual_dt": res1,
            "berger_residual_half_dt": res2, "halving_ratio": ratio, "pass": ok}


def check_exponential_stability(s: _Setup):
    members = []
    ok = True
    y0 = np.column_stack([s.random_state() for _ in range(10)])
    (tr,) = yield [_Run(s.sys_free, y0, T=4.0, dt=1e-3, stride=1, keep_states=False)]
    for E0 in tr.E0.T:
        mono = bool(np.all(np.diff(E0) <= 1e-12))
        gam, fit_res = fit_decay_rate(tr.t, E0)
        rate = 0.5 * gam
        rel = abs(rate - abs(s.abscissa)) / abs(s.abscissa)
        members.append({"monotone": mono, "rate": rate, "fit_residual": fit_res,
                        "abscissa_rel_error": rel})
        ok = ok and mono and gam > 0 and rel <= 0.10
    return {"abscissa": s.abscissa, "members": members, "pass": ok}


def check_lyapunov(s: _Setup):
    table, eps_star = lyapunov_eps_scan(s.sys_free, n_states=100,
                                        rng=np.random.default_rng(s.cfg.probes.seed + 1))
    if eps_star is None:
        return {"eps_star": None, "pass": False}
    y0 = np.column_stack([s.random_state() for _ in range(10)])
    (tr,) = yield [_Run(s.sys_free, y0, T=3.0, dt=1e-3)]
    V = per_sample(lambda y: lyapunov_V(s.sys_free, y, eps_star), tr.states)
    mono_ok = bool(np.all(np.diff(V, axis=0) <= 1e-12))
    row = next(r for r in table if r[0] == eps_star)
    # eps_star is the scan's pick because its ratio range lies in [0.5, 1.5]
    return {"eps_star": eps_star, "a0": row[1], "a1": row[2],
            "v_monotone": mono_ok, "pass": mono_ok}


def check_mean_preservation(s: _Setup):
    g = s.grid
    y0 = s.random_state()
    worst_drift = 0.0
    worst_trace = 0.0
    trajs = yield [_Run(s.sys_forced, y0, T=2.0, dt=1e-3, model=model, stride=50)
                   for model in (None, s.berger)]
    for tr in trajs:
        means = []
        for y in tr.states:
            rec = reconstruct(s.sys_forced, y)
            means.append(plate_mean(rec.u, g))
            worst_trace = max(worst_trace, float(np.max(np.abs(rec.v.w[:, -1] - rec.u_t))))
        worst_drift = max(worst_drift, float(np.max(np.abs(np.array(means) - means[0]))))
    ok = worst_drift <= 1e-10 and worst_trace == 0.0
    return {"mean_drift": worst_drift, "trace_mismatch": worst_trace, "pass": ok}


def check_force_models(s: _Setup):
    g = s.grid
    rng = np.random.default_rng(s.cfg.probes.seed + 2)
    u = 0.3 * rng.standard_normal(g.n_plate)
    kirch = KirchhoffForce(g, kappa=1.0, q=2.0, r=0.0, mu=0.5)
    berger = s.berger
    g2 = PlateGrid2D(n=32)
    vk = VonKarmanForce(g2)
    xx, yy = g2.interior_coords()
    u2 = 0.2 * np.sin(np.pi * xx) * np.sin(np.pi * yy)

    grad_errs = {
        "kirchhoff": verify_gradient(kirch, u, g.h_x, rng),
        "berger": verify_gradient(berger, u, g.h_x, rng),
        "von_karman": verify_gradient(vk, u2, g2.h ** 2, rng),
    }
    norms = SurrogateNorms(kappa=s.basis.kappa, shapes=s.basis.xi,
                           weight=g.h_x)
    coerc = {
        "kirchhoff": verify_coercivity(kirch, norms, g, rng=rng),
        "berger": verify_coercivity(berger, norms, g, rng=rng),
    }
    lips = {
        "berger_R1": verify_lipschitz(berger, norms, 1.0, rng=rng),
        "berger_R2": verify_lipschitz(berger, norms, 2.0, rng=rng),
    }
    airy_res = vk.airy_residual(u2)
    br1 = vk_bracket((xx ** 2).ravel(), (yy ** 2).ravel(), g2)
    br2 = vk_bracket((xx * yy).ravel(), (xx * yy).ravel(), g2)
    interior = np.s_[2:-2, 2:-2]
    bracket_err = max(float(np.max(np.abs(br1[interior] - 4.0))),
                      float(np.max(np.abs(br2[interior] + 2.0))))
    ok = (max(grad_errs.values()) <= 1e-4
          and all(c[1] for c in coerc.values())
          and airy_res <= 1e-8
          and bracket_err <= 1e-9)
    return {"gradient_errors": grad_errs, "coercivity": coerc, "lipschitz": lips,
            "airy_residual": airy_res, "bracket_identity_error": bracket_err, "pass": ok}


def check_gradient_structure(s: _Setup):
    sysf = s.sys_forced
    # duality route vs direct stationary pressure trace
    _, ptrace = solve_stationary_stokes(s.gf, s.grid, nu=s.nu)
    pstar_err = float(np.max(np.abs(sysf.pstar - sysf.hXi @ ptrace)))

    (tr,) = yield [_Run(sysf, s.random_state(0.5), T=15.0, dt=1e-3, model=s.berger, stride=50)]
    # Estar is shifted by the stationary flow and by p* plus the plate load, so
    # it is the Lyapunov functional of the forced problem
    dist, eq = distance_to_equilibrium(sysf, tr.states, s.berger)
    estar_mono = estar_monotone(tr.Estar)
    ok = estar_mono and dist[-1] <= DISTANCE_TOL and eq.residual <= 1e-8 and pstar_err <= 1e-8
    return {"estar_monotone": estar_mono, "tail_distance": dist[-1],
            "stationary_residual": eq.residual, "pstar_identity_error": pstar_err, "pass": ok}


def check_quasi_stability(s: _Setup):
    y_rate = s.random_state()
    pairs = [(s.random_state(s.cfg.probes.radius), s.random_state(s.cfg.probes.radius))
             for _ in range(10)]
    ya, yb = (np.column_stack(side) for side in zip(*pairs))
    lin_a, lin_b = s.random_state(), s.random_state()
    rate, berger, linear = yield [
        _Run(s.sys_free, y_rate, T=4.0, dt=1e-3),
        _Run(s.sys_free, np.column_stack([ya, yb]), T=6.0, dt=1e-3, model=s.berger),
        _Run(s.sys_free, np.column_stack([lin_a, lin_b]), T=6.0, dt=1e-3)]
    # half the decay rate of the unforced linear flow's state norm, which is
    # itself half the fitted rate of E0
    gamma_star = 0.25 * fit_decay_rate(rate.t, rate.E0)[0]
    passed, Ms = quasi_stability_probe(s.sys_free, berger, gamma_star, s.cfg.probes.m_cap)
    passed_lin, M_lin = quasi_stability_probe(s.sys_free, linear, gamma_star,
                                              s.cfg.probes.m_cap)
    ok = bool(np.all(passed) and passed_lin[0])
    return {"gamma_star": gamma_star, "berger_M": Ms.tolist(), "linear_M": float(M_lin[0]),
            "pass": ok}


def check_trace_operator_identities(s: _Setup):
    y0 = s.random_state()
    # 20 sample intervals on [0, 1] at each dt
    trs = yield [_Run(s.sys_free, y0, T=1.0, dt=dt, stride=int(round(1.0 / dt)) // 20)
                 for dt in (1e-3, 5e-4)]
    dev1, dev2 = (semigroup_consistency(s.sys_free, tr) for tr in trs)
    ratio = dev1 / max(dev2, 1e-300)
    gc = gamma_operator_checks(s.basis)
    contr = max(contraction_norm(s.sys_free, T) for T in (0.5, 1.0, 2.0))
    ok = (gc["symmetry_error"] <= 1e-12
          and gc["min_eigenvalue"] >= -1e-9
          and gc["gram_identity_error"] <= 1e-7
          and 3.0 <= ratio <= 5.0
          and contr <= 1.0 + CONTRACTION_TOL)
    return {"gamma_symmetry": gc["symmetry_error"],
            "gamma_min_eigenvalue": gc["min_eigenvalue"],
            "gamma_gram_error": gc["gram_identity_error"],
            "expm_deviation_ratio": ratio, "contraction_norm": contr, "pass": ok}


def check_attractor_regularity(s: _Setup):
    (tr,) = yield [_Run(s.sys_forced, s.random_state(0.5), T=20.0, dt=1e-3, model=s.berger,
                        stride=20)]
    probe = attractor_regularity_probe(tr, s.sys_forced)
    return {**{k: v for k, v in probe.items() if k != "pass"}, "pass": probe["pass"]}


_CHECKS = {
    "mass_matrix_positivity": check_mass_matrix_positivity,
    "energy_balance": check_energy_balance,
    "exponential_stability": check_exponential_stability,
    "lyapunov_construction": check_lyapunov,
    "mean_preservation": check_mean_preservation,
    "force_model_contracts": check_force_models,
    "gradient_structure_equilibria": check_gradient_structure,
    "quasi_stability": check_quasi_stability,
    "trace_operator_identities": check_trace_operator_identities,
    "attractor_regularity": check_attractor_regularity,
}

CRITERIA = list(_CHECKS)


def _groups(runs: list[_Run]) -> list[list[int]]:
    """Indices of the runs that share system, force model, dt and keep_states,
    group by group in order of first appearance."""
    groups = {}
    for i, run in enumerate(runs):
        groups.setdefault((id(run.sys), id(run.model), run.dt, run.keep_states), []).append(i)
    return list(groups.values())


_REPORTS = ("E0", "E", "Estar", "dissipation_integral", "balance_residual")


def _simulate_group(runs: list[_Run]) -> list[Trajectory]:
    """Step runs of one group as one ensemble: one simulate to the longest T at
    the gcd of the strides.  Each run gets its own columns, every
    (stride / gcd)-th sample up to its T, copied when the group has other runs
    so that the group's arrays can be dropped.  Raises IntegratorError for a
    run whose round(T/dt) is not a whole number of its strides."""
    steps = [int(round(run.T / run.dt)) for run in runs]
    for run, n in zip(runs, steps):
        if n % run.stride:
            raise IntegratorError(f"a run of {n} steps is not a whole number of "
                                  f"strides {run.stride}")
    gcd = math.gcd(*(run.stride for run in runs))
    first = runs[0]
    tr = simulate(first.sys, np.column_stack([run.y0 for run in runs]),
                  max(run.T for run in runs), first.dt, first.model, stride=gcd,
                  keep_states=first.keep_states)

    def cut(a, *index):
        return a[index].copy() if len(runs) > 1 else a[index]

    out, col = [], 0
    for run, n in zip(runs, steps):
        if run.y0.ndim == 1:
            cols, col = col, col + 1
        else:
            cols, col = slice(col, col + run.y0.shape[1]), col + run.y0.shape[1]
        rows = slice(0, n // gcd + 1, run.stride // gcd)
        states = None if tr.states is None else cut(tr.states, rows, slice(None), cols)
        out.append(Trajectory(t=cut(tr.t, rows), states=states,
                              **{k: cut(getattr(tr, k), rows, cols) for k in _REPORTS}))
    return out


def _run_checks(s: _Setup, names: list[str], report=None) -> dict:
    """Run the named checks on one set-up as one schedule; returns their results
    in the order of names.

    Each check is started, and advanced to its run requests, before the next one
    starts.  Each group of requests is then one simulate; its arrays are dropped
    once handed out, and a check resumes as soon as all its runs are served.
    report gets one line per check, in the order of names, once that check and
    every one before it are done.
    """
    results, waiting, requests = {}, {}, []
    unreported = list(names)

    def report_done():
        while unreported and unreported[0] in results:
            name = unreported.pop(0)
            if report is not None:
                report(f"{name}: {'PASS' if results[name]['pass'] else 'FAIL'}")

    for name in names:
        check = _CHECKS[name](s)
        if not isinstance(check, Generator):
            results[name] = check
        else:
            try:
                runs = next(check)
            except StopIteration as stop:
                results[name] = stop.value
            else:
                waiting[name] = (check, [None] * len(runs))
                requests += [(name, i, run) for i, run in enumerate(runs)]
        report_done()

    for group in _groups([run for _, _, run in requests]):
        ready = []
        for k, tr in zip(group, _simulate_group([requests[k][2] for k in group])):
            name, i, _ = requests[k]
            served = waiting[name][1]
            served[i] = tr
            if all(t is not None for t in served):
                ready.append(name)
        # the group's trajectories are now held by their checks alone, so each
        # is freed once its check returns
        for name in ready:
            check, served = waiting.pop(name)
            try:
                check.send(served)
            except StopIteration as stop:
                results[name] = stop.value
        report_done()
    return {name: results[name] for name in names}


def run_criterion(name: str, cfg: ExperimentConfig, cache_dir=None):
    """Run one criterion of the battery on its own set-up; returns its result dict."""
    return _run_checks(_Setup(cfg, cache_dir), [name])[name]


def run_all(cfg: ExperimentConfig, cache_dir=None, report=print):
    """Run the whole battery; returns (summary dict, all passed)."""
    summary = _run_checks(_Setup(cfg, cache_dir), CRITERIA, report)
    return summary, all(result["pass"] for result in summary.values())
