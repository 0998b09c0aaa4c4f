"""The full property-verification battery at desk scale.

Each check returns a dict with a boolean "pass" plus the measured numbers, so
the CLI can print one line per criterion and the test suite can assert on the
same data.  All tolerances are fixed here, not configurable: they encode the
claims being verified.
"""

from __future__ import annotations

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
    KirchhoffForce,
    SurrogateNorms,
    verify_coercivity,
    verify_gradient,
    verify_lipschitz,
)
from .galerkin import ForcingConfig, assemble, fluid_forcing_field, reconstruct
from .mesh import build_grid, plate_mean
from .modal import build_modal_basis
from .plate2d import PlateGrid2D, VonKarmanForce, vk_bracket
from .spectrum import (
    contraction_norm,
    gamma_operator_checks,
    semigroup_consistency,
    spectral_abscissa,
)
from .steady import converge_to_equilibrium, pstar_mode_coeffs, solve_stationary_stokes


class _Setup:
    """Shared grid/basis/system for the battery (built once)."""

    def __init__(self, cfg: ExperimentConfig, cache_dir=None):
        self.cfg = cfg
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
        self._linear_rate = None

    def random_state(self, scale=1.0):
        y = self.rng.standard_normal(self.sys_free.m + 2 * self.sys_free.n)
        return scale * y / self.sys_free.state_norm(y)

    def linear_rate(self):
        """Fitted decay rate of the state norm for the unforced linear flow."""
        if self._linear_rate is None:
            y0 = self.random_state()
            tr = simulate(self.sys_free, y0, T=4.0, dt=1e-3, stride=10)
            gam, _ = fit_decay_rate(tr.t, tr.E0)
            self._linear_rate = 0.5 * gam
        return self._linear_rate


def check_mass_matrix_positivity(s: _Setup):
    results = []
    for (m, n) in [(1, 1), (4, 4), (12, 8)]:
        basis = build_modal_basis(s.grid, m, n)
        sysmn = assemble(basis, s.nu)
        sym = float(np.max(np.abs(sysmn.M - sysmn.M.T)))
        min_eig = float(np.min(np.linalg.eigvalsh(sysmn.M)))
        results.append({"m": m, "n": n, "symmetry_error": sym, "min_eigenvalue": min_eig,
                        "pass": sym <= 1e-12 and min_eig > 0})
    return {"cases": results, "pass": all(r["pass"] for r in results)}


def check_energy_balance(s: _Setup):
    y0 = s.random_state(0.5)
    lin = simulate(s.sys_forced, y0, T=2.0, dt=1e-3, stride=10)
    res_lin = energy_balance_residual(lin)
    nl1 = simulate(s.sys_forced, y0, T=2.0, dt=1e-3, model=s.berger, stride=10)
    nl2 = simulate(s.sys_forced, y0, T=2.0, dt=5e-4, model=s.berger, stride=20)
    res1, res2 = energy_balance_residual(nl1), energy_balance_residual(nl2)
    ratio = res1 / max(res2, 1e-300)
    ok = res_lin <= 1e-5 and res1 <= 1e-5 and 3.4 <= ratio <= 4.6
    return {"linear_residual": res_lin, "berger_residual_dt": res1,
            "berger_residual_half_dt": res2, "halving_ratio": ratio, "pass": ok}


def check_exponential_stability(s: _Setup):
    members = []
    ok = True
    y0 = np.column_stack([s.random_state() for _ in range(10)])
    tr = simulate(s.sys_free, y0, T=4.0, dt=1e-3, stride=1, keep_states=False)
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
    tr = simulate(s.sys_free, y0, T=3.0, dt=1e-3, stride=10)
    V = per_sample(lambda y: lyapunov_V(s.sys_free, y, eps_star), tr.states)
    mono_ok = bool(np.all(np.diff(V, axis=0) <= 1e-12))
    row = next(r for r in table if r[0] == eps_star)
    return {"eps_star": eps_star, "a0": row[1], "a1": row[2],
            "v_monotone": mono_ok, "pass": mono_ok and row[1] >= 0.5 and row[2] <= 1.5}


def check_mean_preservation(s: _Setup):
    g = s.grid
    y0 = s.random_state()
    worst_drift = 0.0
    worst_trace = 0.0
    for model in (None, s.berger):
        tr = simulate(s.sys_forced, y0, T=2.0, dt=1e-3, model=model, stride=50)
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
        "kirchhoff": verify_gradient(kirch, u, g, rng=rng),
        "berger": verify_gradient(berger, u, g, rng=rng),
        "von_karman": verify_gradient(vk, u2, None, rng=rng, weight=g2.h ** 2),
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
    pstar = pstar_mode_coeffs(sysf, s.gf)
    # duality route vs direct stationary pressure trace
    _, ptrace = solve_stationary_stokes(s.gf, s.grid, nu=s.nu)
    pstar_direct = sysf.hXi @ ptrace
    pstar_err = float(np.max(np.abs(pstar - pstar_direct)))

    dist, eq, tr = converge_to_equilibrium(sysf, s.random_state(0.5), s.gf, T=15.0, dt=1e-3,
                                           model=s.berger, stride=50)
    tol_E = 1e-10 * (1.0 + abs(tr.Estar[0]))
    estar_mono = bool(np.all(np.diff(tr.Estar) <= tol_E))
    ok = estar_mono and dist[-1] <= 1e-4 and eq.residual <= 1e-8 and pstar_err <= 1e-8
    return {"estar_monotone": estar_mono, "tail_distance": dist[-1],
            "stationary_residual": eq.residual, "pstar_identity_error": pstar_err, "pass": ok}


def check_quasi_stability(s: _Setup):
    gamma_star = 0.5 * s.linear_rate()
    pairs = [(s.random_state(s.cfg.probes.radius), s.random_state(s.cfg.probes.radius))
             for _ in range(10)]
    ya, yb = (np.column_stack(side) for side in zip(*pairs))
    passed, Ms = quasi_stability_probe(s.sys_free, ya, yb, T=6.0, dt=1e-3,
                                       gamma_star=gamma_star, model=s.berger,
                                       M_cap=s.cfg.probes.m_cap, stride=10)
    passed_lin, M_lin = quasi_stability_probe(
        s.sys_free, s.random_state(), s.random_state(), T=6.0, dt=1e-3,
        gamma_star=gamma_star, model=None, M_cap=s.cfg.probes.m_cap, stride=10)
    ok = bool(np.all(passed)) and passed_lin
    return {"gamma_star": gamma_star, "berger_M": Ms.tolist(), "linear_M": M_lin, "pass": ok}


def check_trace_operator_identities(s: _Setup):
    gc = gamma_operator_checks(s.basis)
    y0 = s.random_state()
    dev1 = semigroup_consistency(s.sys_free, T=1.0, dt=1e-3, y0=y0)
    dev2 = semigroup_consistency(s.sys_free, T=1.0, dt=5e-4, y0=y0)
    ratio = dev1 / max(dev2, 1e-300)
    contr = max(contraction_norm(s.sys_free, T) for T in (0.5, 1.0, 2.0))
    ok = (gc["symmetry_error"] <= 1e-12
          and gc["min_eigenvalue"] >= -1e-9
          and gc["gram_identity_error"] <= 1e-7
          and 3.0 <= ratio <= 5.0
          and contr <= 1.0 + 1e-10)
    return {"gamma_symmetry": gc["symmetry_error"],
            "gamma_min_eigenvalue": gc["min_eigenvalue"],
            "gamma_gram_error": gc["gram_identity_error"],
            "expm_deviation_ratio": ratio, "contraction_norm": contr, "pass": ok}


def check_attractor_regularity(s: _Setup):
    y0 = s.random_state(0.5)
    tr = simulate(s.sys_forced, y0, T=20.0, dt=1e-3, model=s.berger, stride=20)
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


def run_criterion(name: str, cfg: ExperimentConfig, cache_dir=None):
    """Run one criterion of the battery on its own set-up; returns its result dict."""
    return _CHECKS[name](_Setup(cfg, cache_dir))


def run_all(cfg: ExperimentConfig, cache_dir=None, report=print):
    """Run the whole battery; returns (summary dict, all passed)."""
    setup = _Setup(cfg, cache_dir)
    summary = {}
    all_ok = True
    for name in CRITERIA:
        result = _CHECKS[name](setup)
        summary[name] = result
        all_ok = all_ok and result["pass"]
        if report is not None:
            report(f"{name}: {'PASS' if result['pass'] else 'FAIL'}")
    return summary, all_ok
