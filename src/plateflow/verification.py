"""The full property-verification battery at desk scale.

Each check returns its result dict and its measured values; judge holds them
against BOUNDS, the one table of the bounds, which encode the claims being
verified and are not configurable, and sets the result's boolean "pass".  The
CLI prints one line per criterion, with the tightest row and, on a FAIL, how
many members fail, and the tests assert on the same data.

The battery runs as one schedule on one assembled system, the forced one; a run
of the unforced problem is a run of it at load 0.  A check that integrates
trajectories is a generator: it draws its random states, yields its run
requests (_Run, each with its own load, stride and keep_states) and receives
their trajectories.  The scheduler makes three passes.  It starts the checks in
CRITERIA order, each up to its request, so every random draw keeps its place.
It steps each group of requests that share force model and dt as one ensemble
of simulate, in which each run leaves the batch after its own last step and
keeps its states only if it asks to, and after each group finishes every check
whose runs are now all served.  Last it judges the checks in CRITERIA order.  A
batch member is its solo run up to rounding, so the verdicts are those of the
checks run one after another.  The schedule's simulate is the battery's only
integration: the probes it feeds (quasi-stability, semigroup consistency,
attractor regularity, distance to equilibrium) and the shifted energy read the
trajectories they are served.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig
from .dynamics import (
    energy_balance_residual,
    fit_decay_rate,
    lyapunov_V,
    lyapunov_eps_scan,
    per_sample,
    quasi_stability_probe,
    attractor_regularity_probe,
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
from .galerkin import assemble, fluid_forcing_field, plate_forcing_profile, reconstruct
from .mesh import build_grid, plate_mean
from .modal import build_modal_basis
from .plate2d import PlateGrid2D, VonKarmanForce, vk_bracket
from .spectrum import (
    contraction_norm,
    gamma_operator_checks,
    semigroup_consistency,
    spectral_abscissa,
)
from .steady import distance_to_equilibrium, solve_stationary_stokes


class _Setup:
    """Shared grid/basis/system for the battery (built once).  The one system is
    the forced one; a run of the unforced problem is a run of it at load 0, since
    the loads enter only c, the stationary state and the forcing power."""

    def __init__(self, cfg: ExperimentConfig, cache_dir):
        self.cfg, self.cache_dir = cfg, cache_dir
        self.grid = build_grid(cfg.geometry)
        self.basis = build_modal_basis(self.grid, cfg.modes.m, cfg.modes.n, cache_dir)[0]
        self.nu = cfg.physics.nu
        self.gf = fluid_forcing_field("shear", 1.0, self.grid)
        self.sys = assemble(self.basis, self.nu, self.gf,
                            plate_forcing_profile("sine", 0.5, self.grid))
        self.berger = BergerForce(self.grid, kappa=5.0, gamma=0.0)
        self.rng = np.random.default_rng(cfg.probes.seed)
        self.abscissa = spectral_abscissa(self.sys)

    def random_state(self, scale=1.0):
        return self.sys.random_state(self.rng, scale)


class _Run(NamedTuple):
    """One trajectory a check requests of the set-up's system:
    simulate(sys, y0, T, dt, model, stride=stride, keep_states=keep_states, load=load).
    Runs that share dt and model step as one ensemble; the other fields are per run."""

    y0: np.ndarray
    T: float
    dt: float
    model: ForceModel | None = None
    stride: int = 10
    keep_states: bool = True
    load: float = 1.0


def check_mass_matrix_positivity(s: _Setup):
    cases = []
    for (m, n) in [(1, 1), (4, 4), (12, 8)]:
        if (m, n) == (s.cfg.modes.m, s.cfg.modes.n):
            sysmn = s.sys                       # the set-up's own basis; the others via its cache
        else:
            sysmn = assemble(build_modal_basis(s.grid, m, n, s.cache_dir)[0], s.nu)
        cases.append({"m": m, "n": n, "symmetry_error": float(np.max(np.abs(sysmn.M - sysmn.M.T))),
                      "min_eigenvalue": float(sysmn.M_eigenvalues[0])})
    return {"cases": cases}, {q: {("cases", i, "pass"): c[q] for i, c in enumerate(cases)}
                              for q in ("symmetry_error", "min_eigenvalue")}


def check_energy_balance(s: _Setup):
    y0 = s.random_state(0.5)
    lin, nl1, nl2 = yield [_Run(y0, T=2.0, dt=1e-3),
                           _Run(y0, T=2.0, dt=1e-3, model=s.berger),
                           _Run(y0, T=2.0, dt=5e-4, model=s.berger, stride=20)]
    res_lin = energy_balance_residual(lin)
    res1, res2 = energy_balance_residual(nl1), energy_balance_residual(nl2)
    return ({"linear_residual": res_lin, "berger_residual_dt": res1,
             "berger_residual_half_dt": res2, "halving_ratio": res1 / max(res2, 1e-300)},
            {"balance_residual": {"linear_residual": res_lin, "berger_residual_dt": res1}})


def check_exponential_stability(s: _Setup):
    members = []
    y0 = np.column_stack([s.random_state() for _ in range(10)])
    (tr,) = yield [_Run(y0, T=4.0, dt=1e-3, stride=1, keep_states=False, load=0.0)]
    for E0 in tr.E0.T:
        gam, fit_res = fit_decay_rate(tr.t, E0)
        rate = 0.5 * gam
        members.append({"rate": rate, "fit_residual": fit_res,
                        "abscissa_rel_error": abs(rate - abs(s.abscissa)) / abs(s.abscissa)})
    rise = np.max(np.diff(tr.E0, axis=0), axis=0).tolist()
    return ({"abscissa": s.abscissa, "members": members},
            {"E0_rise": {("members", i, "monotone"): r for i, r in enumerate(rise)},
             **{q: [m[q] for m in members] for q in ("rate", "abscissa_rel_error")}})


def check_lyapunov(s: _Setup):
    table = lyapunov_eps_scan(s.sys, n_states=100,
                              rng=np.random.default_rng(s.cfg.probes.seed + 1))
    # eps_star is the largest eps whose ratio range [a0, a1] meets the bounds;
    # with none, the range at the smallest eps, which fails them, is measured
    eps_star, a0, a1 = next((row for row in table if holds("lyapunov_construction", "a0", row[1])
                             and holds("lyapunov_construction", "a1", row[2])),
                            (None, *table[-1][1:]))
    if eps_star is None:                        # no V to measure; an a0 or a1 row fails
        return {"eps_star": None}, {"a0": a0, "a1": a1, "V_rise": {}}
    y0 = np.column_stack([s.random_state() for _ in range(10)])
    (tr,) = yield [_Run(y0, T=3.0, dt=1e-3, load=0.0)]
    V = per_sample(lambda y: lyapunov_V(s.sys, y, eps_star), tr.states)
    return ({"eps_star": eps_star, "a0": a0, "a1": a1},
            {"V_rise": {("v_monotone",): float(np.max(np.diff(V, axis=0)))}})


def check_mean_preservation(s: _Setup):
    g = s.grid
    y0 = s.random_state()
    worst_drift = 0.0
    worst_trace = 0.0
    trajs = yield [_Run(y0, T=2.0, dt=1e-3, model=model, stride=50) for model in (None, s.berger)]
    for tr in trajs:
        means = []
        for y in tr.states:
            rec = reconstruct(s.sys, y)
            means.append(plate_mean(rec.u, g))
            worst_trace = max(worst_trace, float(np.max(np.abs(rec.v.trace - rec.u_t))))
        worst_drift = max(worst_drift, float(np.max(np.abs(np.array(means) - means[0]))))
    return {"mean_drift": worst_drift, "trace_mismatch": worst_trace}, {}


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
    norms = SurrogateNorms.of(s.sys)
    coerc = {
        "kirchhoff": verify_coercivity(kirch, norms, g, rng=rng),
        "berger": verify_coercivity(berger, norms, g, rng=rng),
    }
    lips = {
        "berger_R1": verify_lipschitz(berger, norms, 1.0, rng=rng),
        "berger_R2": verify_lipschitz(berger, norms, 2.0, rng=rng),
    }
    br1 = vk_bracket((xx ** 2).ravel(), (yy ** 2).ravel(), g2)
    br2 = vk_bracket((xx * yy).ravel(), (xx * yy).ravel(), g2)
    interior = np.s_[2:-2, 2:-2]
    bracket_err = max(float(np.max(np.abs(br1[interior] - 4.0))),
                      float(np.max(np.abs(br2[interior] + 2.0))))
    # each coercivity entry is [worst value, verdict on the drop]
    return ({"gradient_errors": grad_errs,
             "coercivity": {k: [worst, None] for k, (worst, _) in coerc.items()},
             "lipschitz": lips, "airy_residual": vk.airy_residual(u2),
             "bracket_identity_error": bracket_err},
            {"coercivity_drop": {("coercivity", k, 1): drop for k, (_, drop) in coerc.items()}})


def check_gradient_structure(s: _Setup):
    # duality route vs direct stationary pressure trace
    _, ptrace = solve_stationary_stokes(s.gf, s.grid, nu=s.nu)
    pstar_err = float(np.max(np.abs(s.sys.pstar - s.sys.hXi @ ptrace)))

    (tr,) = yield [_Run(s.random_state(0.5), T=15.0, dt=1e-3, model=s.berger, stride=50)]
    # Estar is shifted by the stationary flow and by p* plus the plate load, so
    # it is the Lyapunov functional of the forced problem
    dist, eq = distance_to_equilibrium(s.sys, tr.states, s.berger)
    return ({"tail_distance": dist[-1], "stationary_residual": eq.residual,
             "pstar_identity_error": pstar_err},
            {"Estar_rise": {("estar_monotone",): _estar_rise(tr.Estar)}})


def check_quasi_stability(s: _Setup):
    y_rate = s.random_state()
    # the pairs start at unit energy norm, as every state the set-up draws by default
    pairs = [(s.random_state(), s.random_state()) for _ in range(10)]
    ya, yb = (np.column_stack(side) for side in zip(*pairs))
    lin_a, lin_b = s.random_state(), s.random_state()
    rate, berger, linear = yield [
        _Run(y_rate, T=4.0, dt=1e-3, load=0.0),
        _Run(np.column_stack([ya, yb]), T=6.0, dt=1e-3, model=s.berger, load=0.0),
        _Run(np.column_stack([lin_a, lin_b]), T=6.0, dt=1e-3, load=0.0)]
    # half the decay rate of the unforced linear flow's state norm, which is
    # itself half the fitted rate of E0
    gamma_star = 0.25 * fit_decay_rate(rate.t, rate.E0)[0]
    Ms = quasi_stability_probe(s.sys, berger, gamma_star).tolist()
    M_lin = float(quasi_stability_probe(s.sys, linear, gamma_star)[0])
    return ({"gamma_star": gamma_star, "berger_M": Ms, "linear_M": M_lin},
            {"M": {**{f"berger_M.{i}": M for i, M in enumerate(Ms)}, "linear_M": M_lin}})


def check_trace_operator_identities(s: _Setup):
    y0 = s.random_state()
    # 20 sample intervals on [0, 1] at each dt
    trs = yield [_Run(y0, T=1.0, dt=dt, stride=int(round(1.0 / dt)) // 20, load=0.0)
                 for dt in (1e-3, 5e-4)]
    dev1, dev2 = (semigroup_consistency(s.sys, tr) for tr in trs)
    return ({**gamma_operator_checks(s.sys),
             "expm_deviation_ratio": dev1 / max(dev2, 1e-300),
             "contraction_norm": max(contraction_norm(s.sys, T) for T in (0.5, 1.0, 2.0))},
            {})


def check_attractor_regularity(s: _Setup):
    (tr,) = yield [_Run(s.random_state(0.5), T=20.0, dt=1e-3, model=s.berger, stride=20)]
    probe = attractor_regularity_probe(tr, s.sys)
    return probe, {"sup_second": {(k, "non_growing"): (p["sup_second"], p["sup_first"])
                                  for k, p in probe.items()}}


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

# Every bound a verdict reads: (criterion, measured quantity, comparison, bound).
# A row holds when each member (case, trajectory, pair, force model) of its
# quantity meets the bound.  A *_rise is the largest increase from one sample
# to the next; a bound (relative, absolute) judges a (value, reference) pair.
BOUNDS = (
    ("mass_matrix_positivity", "symmetry_error", "<=", 1e-12),
    ("mass_matrix_positivity", "min_eigenvalue", ">", 0.0),
    ("energy_balance", "balance_residual", "<=", 1e-5),
    ("energy_balance", "halving_ratio", ">=", 3.4),
    ("energy_balance", "halving_ratio", "<=", 4.6),
    ("exponential_stability", "E0_rise", "<=", 1e-12),
    ("exponential_stability", "rate", ">", 0.0),
    ("exponential_stability", "abscissa_rel_error", "<=", 0.10),
    ("exponential_stability", "abscissa", "<", 0.0),
    ("lyapunov_construction", "a0", ">=", 0.5),
    ("lyapunov_construction", "a1", "<=", 1.5),
    ("lyapunov_construction", "V_rise", "<=", 1e-12),
    ("mean_preservation", "mean_drift", "<=", 1e-10),
    ("mean_preservation", "trace_mismatch", "<=", 0.0),
    ("force_model_contracts", "gradient_errors", "<=", 1e-4),
    ("force_model_contracts", "coercivity_drop", "<=", 1.0),
    ("force_model_contracts", "airy_residual", "<=", 1e-8),
    ("force_model_contracts", "bracket_identity_error", "<=", 1e-9),
    ("gradient_structure_equilibria", "Estar_rise", "<=", (1e-10, 0.0)),
    ("gradient_structure_equilibria", "tail_distance", "<=", 1e-4),
    ("gradient_structure_equilibria", "stationary_residual", "<=", 1e-8),
    ("gradient_structure_equilibria", "pstar_identity_error", "<=", 1e-8),
    ("quasi_stability", "M", "<=", 1e4),
    ("trace_operator_identities", "gamma_symmetry", "<=", 1e-12),
    ("trace_operator_identities", "gamma_min_eigenvalue", ">=", -1e-9),
    ("trace_operator_identities", "gamma_gram_error", "<=", 1e-7),
    ("trace_operator_identities", "expm_deviation_ratio", ">=", 3.0),
    ("trace_operator_identities", "expm_deviation_ratio", "<=", 5.0),
    ("trace_operator_identities", "contraction_norm", "<=", 1.0 + 1e-10),
    ("attractor_regularity", "sup_second", "<=", (1.05, 1e-12)),
)


def _margin(op: str, bound, value):
    """(value, bound, margin) of one value against one row's bound, relative *
    reference + absolute for a pair.  The margin is >= 0 exactly when the value
    meets the bound: a strict comparison measures it from the float past the bound."""
    if isinstance(bound, tuple):
        value, reference = value
        bound = bound[0] * reference + bound[1]
    edge = bound if op[-1] == "=" else math.nextafter(bound, math.inf if op == ">" else -math.inf)
    return value, bound, edge - value if op[0] == "<" else value - edge


def holds(criterion: str, quantity: str, value) -> bool:
    """Whether one measured value of quantity meets every row of criterion that bounds it."""
    margins = [_margin(op, bound, value)[2]
               for crit, q, op, bound in BOUNDS if (crit, q) == (criterion, quantity)]
    if not margins:
        raise KeyError(f"no bound on {criterion} {quantity}")
    return all(m >= 0 for m in margins)


def judge(criterion: str, result: dict, measured: dict) -> tuple[str, int, int]:
    """Judge a check's measured values against the rows of criterion and set
    the result's "pass"; returns the tightest row as verify-all prints it, the
    number of failing members and the number judged, a member counted once per
    row that bounds it.

    A row reads its quantity from measured, else from the result's own key: a
    value, or a list or dict of members.  A member keyed by a path (a tuple of
    keys into the result) sets the boolean there, true when it meets every row.
    The tightest row is the member furthest past its bound, else the nearest to
    it relative to the larger of bound and value.
    """
    rows, flags = [], {}
    for crit, quantity, op, bound in BOUNDS:
        if crit != criterion:
            continue
        value = measured.get(quantity, result.get(quantity))
        members = (value.items() if isinstance(value, dict)
                   else enumerate(value) if isinstance(value, list) else [(None, value)])
        for key, v in members:
            v, shown, margin = _margin(op, bound, v)
            ok = bool(margin >= 0)
            if isinstance(key, tuple):                  # labelled by the flag's owner
                flags[key] = flags.get(key, True) and ok
                key = ".".join(map(str, key[:-1])) or None
            label = quantity if key is None else f"{quantity}[{key}]"
            scale = max(abs(shown), abs(v))
            rows.append((ok, margin / scale if scale else margin,
                         f"{label} {v:.6g} {op} {shown:.6g}, margin {margin:.3g}"))
    for (*parents, last), ok in flags.items():
        node = result
        for k in parents:
            node = node[k]
        node[last] = ok
    failing = sum(not row[0] for row in rows)
    result["pass"] = not failing
    return min(rows, key=lambda row: row[:2])[2], failing, len(rows)


def _estar_rise(Estar: np.ndarray):
    """The largest rise of the shifted energy Estar, with its reference 1 + |Estar at t = 0|."""
    return float(np.max(np.diff(Estar), initial=-np.inf)), 1.0 + abs(Estar[0])


def estar_monotone(Estar: np.ndarray) -> bool:
    """Whether the shifted energy Estar of a trajectory is nonincreasing to criterion 7's bound."""
    return holds("gradient_structure_equilibria", "Estar_rise", _estar_rise(Estar))


def _groups(runs: list[_Run]) -> list[list[int]]:
    """Indices of the runs that share force model and dt, group by group in
    order of first appearance: each group is one ensemble of simulate."""
    groups = {}
    for i, run in enumerate(runs):
        groups.setdefault((id(run.model), run.dt), []).append(i)
    return list(groups.values())


def _run_checks(s: _Setup, names: list[str], report=None) -> dict:
    """Run the named checks on one set-up as one schedule; returns their results
    in the order of names.

    First each check starts, in the order of names, up to its run requests; one
    that requests none has its result.  Then each group of requests is one
    simulate, after which every check whose runs are now all served gets their
    trajectories; no reference to them is kept here, so they are freed when the
    check returns.  Last each check is judged, in the order of names, and report
    gets its line: name, PASS or FAIL, and the tightest row, and on a FAIL how
    many of the judged members fail.
    """
    results, pending, runs = {}, {}, []     # pending: name -> (check, indices of its runs)
    for name in names:
        check = _CHECKS[name](s)
        if isinstance(check, Generator):
            try:
                asked = next(check)
            except StopIteration as stop:
                check = stop.value
            else:
                pending[name] = (check, range(len(runs), len(runs) + len(asked)))
                runs += asked
                continue
        results[name] = check
    served = {}
    for group in _groups(runs):
        # the group's runs field by field; they share dt and model
        y0, T, dt, model, stride, keep_states, load = zip(*(runs[k] for k in group))
        served.update(zip(group, simulate(s.sys, y0, T, dt[0], model[0], stride=stride,
                                          keep_states=keep_states, load=load)))
        for name, (check, mine) in list(pending.items()):
            if all(k in served for k in mine):
                del pending[name]
                try:
                    check.send([served.pop(k) for k in mine])
                except StopIteration as stop:
                    results[name] = stop.value
    summary = {}
    for name in names:
        summary[name], measured = results[name]
        tightest, failing, judged = judge(name, summary[name], measured)
        if report is not None:
            report(f"{name}: PASS  {tightest}" if not failing else
                   f"{name}: FAIL  {tightest}; {failing} of {judged} members fail")
    return summary


def run_criterion(name: str, cfg: ExperimentConfig, cache_dir):
    """Run one criterion of the battery on its own set-up; returns its result dict."""
    return _run_checks(_Setup(cfg, cache_dir), [name])[name]


def run_all(cfg: ExperimentConfig, cache_dir, report):
    """Run the whole battery; returns (summary dict, all passed)."""
    summary = _run_checks(_Setup(cfg, cache_dir), CRITERIA, report)
    return summary, all(result["pass"] for result in summary.values())
