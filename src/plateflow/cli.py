"""Command-line experiment runner.

Artifacts are deterministic for a fixed config and seed: JSON is emitted with
sorted keys and a fixed 17-significant-digit float format, CSV with a header
row, comma separators, LF line endings, and UTF-8 encoding.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import scipy.linalg as la

from . import verification
from .config import ConfigError, ExperimentConfig, parse_config, validate
from .dynamics import IntegratorError, energy_balance_residual, fit_decay_rate, simulate
from .forces import BergerForce, ForceModelError, KirchhoffForce
from .galerkin import AssemblyError, assemble, fluid_forcing_field, plate_forcing_profile
from .mesh import GridError, build_grid, grad_inner, plate_mean
from .modal import build_modal_basis
from .spectrum import contraction_norm, generator_eigenvalues, semigroup_consistency
from .steady import StationaryError, distance_to_equilibrium, find_equilibria
from .stokes import StokesSolveError


# ---------------------------------------------------------------------------
# deterministic serialization

# every float of every artifact, JSON and CSV alike
FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _dumps(obj) -> str:
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        # json.dumps spells the non-finite floats as json.loads reads them
        return _fmt(obj) if np.isfinite(obj) else json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + _dumps(v) for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(obj) + "\n")


def write_csv(path: str, header, rows) -> None:
    def cell(x):
        if isinstance(x, str):
            return x
        if isinstance(x, (bool, np.bool_)):
            return str(bool(x)).lower()
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return _fmt(x)

    floats = ",".join([FLOAT_FORMAT] * len(header)) + "\n"    # a whole row of Python floats
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if all(type(x) is float for x in row):
                fh.write(floats % tuple(row))
            else:
                fh.write(",".join(cell(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# shared setup

def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.out:
        cfg.output.dir = args.out
    if args.seed is not None:
        cfg.probes.seed = args.seed
        validate(cfg)
    try:
        os.makedirs(cfg.output.dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {cfg.output.dir}: {exc.strerror}")
    return cfg


def _cache_dir(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.output.dir, "modes_cache")


def _basis(cfg: ExperimentConfig):
    g = build_grid(cfg.geometry)
    return build_modal_basis(g, cfg.modes.m, cfg.modes.n, cache_dir=_cache_dir(cfg))[0]


def _assembled(cfg: ExperimentConfig):
    """The system of cfg on its basis, with its [physics] body force and plate load."""
    basis, p = _basis(cfg), cfg.physics
    g = basis.grid
    return assemble(basis, p.nu, fluid_forcing_field(p.gf_kind, p.gf_amp, g),
                    plate_forcing_profile(p.gpl_kind, p.gpl_amp, g))


def _force_model(cfg: ExperimentConfig, g):
    p = cfg.physics
    if p.force == "none":
        return None
    if p.force == "kirchhoff":
        return KirchhoffForce(g, kappa=p.force_kappa, q=p.force_q, r=p.force_r,
                              mu=p.force_mu)
    return BergerForce(g, kappa=p.force_kappa, gamma=p.force_gamma)


def _system(cfg: ExperimentConfig):
    """The system of cfg, assembled with its loads on its basis, and its force model."""
    sys_ = _assembled(cfg)
    return sys_, _force_model(cfg, sys_.basis.grid)


# ---------------------------------------------------------------------------
# subcommands

def cmd_modes(cfg: ExperimentConfig) -> int:
    g = build_grid(cfg.geometry)
    basis, (mu, psi_res, kappa, xi_res) = build_modal_basis(g, cfg.modes.m, cfg.modes.n,
                                                            cache_dir=_cache_dir(cfg))
    rows = [("flow", k, ev, res) for k, (ev, res) in enumerate(zip(mu, psi_res))]
    rows += [("plate", k, ev, res) for k, (ev, res) in enumerate(zip(kappa, xi_res))]
    write_csv(os.path.join(cfg.output.dir, "modes.csv"),
              ("kind", "index", "eigenvalue", "residual"), rows)

    lift_norms = np.sqrt(np.diag(grad_inner(basis.lift, basis.lift, g)))
    summary = {
        "m": basis.m,
        "n": basis.n,
        "mu_min": float(mu[0]),
        "mu_max": float(mu[-1]),
        "kappa_min": float(kappa[0]),
        "kappa_max": float(kappa[-1]),
        "max_flow_residual": float(np.max(psi_res)),
        "max_lifting_gradient_norm": float(np.max(lift_norms)),
    }
    write_json(os.path.join(cfg.output.dir, "modes.json"), summary)
    return 0


def cmd_assemble(cfg: ExperimentConfig) -> int:
    sys_ = _assembled(cfg)
    eigs, m = sys_.M_eigenvalues, sys_.m
    # the viscous and bending pencils of the system's tables: any basis of the spans
    flow = la.eigvalsh(sys_.D[:m, :m] / sys_.nu, sys_.M[:m, :m])
    plate = la.eigvalsh(sys_.K, sys_.Mp)
    summary = {
        "m": m,
        "n": sys_.n,
        "nu": cfg.physics.nu,
        "mu_range": [float(flow[0]), float(flow[-1])],
        "kappa_range": [float(plate[0]), float(plate[-1])],
        "mass_min_eigenvalue": float(eigs[0]),
        "mass_max_eigenvalue": float(eigs[-1]),
        "mass_symmetry_error": float(np.max(np.abs(sys_.M - sys_.M.T))),
    }
    write_json(os.path.join(cfg.output.dir, "assemble.json"), summary)
    return 0


def _criterion(cfg: ExperimentConfig, name: str, artifact: str) -> int:
    """Run one battery criterion alone and write its result."""
    result = verification.run_criterion(name, cfg, _cache_dir(cfg))
    write_json(os.path.join(cfg.output.dir, artifact), result)
    return 0 if result["pass"] else 1


def cmd_simulate(cfg: ExperimentConfig) -> int:
    sys_, model = _system(cfg)
    y0 = sys_.random_state(np.random.default_rng(cfg.probes.seed))
    tr = simulate(sys_, y0, cfg.integration.T, cfg.integration.dt, model,
                  stride=cfg.integration.stride)

    # each column from the whole trajectory; mean_u sample by sample, as
    # plate_mean sums it
    parts = sys_.split(tr.states.T)
    mean_u = [plate_mean(sys_.plate_deflection(beta), sys_.basis.grid) for beta in parts[1].T]
    columns = [c.tolist() for c in (tr.t, tr.E0, tr.E, tr.Estar, tr.dissipation_integral,
                                    tr.balance_residual)]
    columns += [np.sqrt(np.vecdot(p, p, axis=0)).tolist() for p in parts]
    write_csv(os.path.join(cfg.output.dir, "trajectory.csv"),
              ("t", "E0", "E", "Estar", "dissipation_integral",
               "balance_residual", "norm_alpha", "norm_beta", "norm_betadot",
               "mean_u"), zip(*columns, mean_u))

    bal = energy_balance_residual(tr)
    summary = {
        "seed": cfg.probes.seed,
        "samples": len(tr.t),
        "final_E0": float(tr.E0[-1]),
        "final_E": float(tr.E[-1]),
        "balance_residual": bal,
        "balance_ok": verification.holds("energy_balance", "balance_residual", bal),
    }
    unforced = not (sys_.f_kin.any() or sys_.f_plate.any())
    if unforced and len(tr.t) >= 8:
        try:
            gam, fit_res = fit_decay_rate(tr.t, tr.E0)
            summary["decay_rate"] = 0.5 * gam
            summary["decay_fit_residual"] = fit_res
        except IntegratorError:
            pass
    write_json(os.path.join(cfg.output.dir, "simulate.json"), summary)
    return 0 if summary["balance_ok"] else 1


def cmd_stationary(cfg: ExperimentConfig) -> int:
    sys_, model = _system(cfg)
    eqs = find_equilibria(sys_, model, seed=cfg.probes.seed)
    summary = {
        "count": len(eqs),
        "alpha_star": sys_.alpha_star,
        "pstar_coeffs": sys_.pstar,
        "equilibria": [
            {"beta_star": e.beta_star, "residual": e.residual, "energy": e.energy}
            for e in eqs
        ],
    }
    write_json(os.path.join(cfg.output.dir, "stationary.json"), summary)
    return 0 if eqs else 1


def cmd_attract(cfg: ExperimentConfig) -> int:
    sys_, model = _system(cfg)
    y0 = sys_.random_state(np.random.default_rng(cfg.probes.seed))
    traj = simulate(sys_, y0, cfg.integration.T, cfg.integration.dt, model,
                    stride=cfg.integration.stride)
    dist, eq = distance_to_equilibrium(sys_, traj.states, model)
    write_csv(os.path.join(cfg.output.dir, "attract.csv"), ("t", "distance"),
              zip(traj.t.tolist(), dist.tolist()))
    summary = {
        "final_distance": float(dist[-1]),
        "equilibrium_residual": eq.residual,
        "equilibrium_energy": eq.energy,
        "converged": verification.holds("gradient_structure_equilibria", "tail_distance",
                                        dist[-1]),
    }
    write_json(os.path.join(cfg.output.dir, "attract.json"), summary)
    return 0 if summary["converged"] else 1


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    sys_ = assemble(_basis(cfg), cfg.physics.nu)
    ev = generator_eigenvalues(sys_)
    write_csv(os.path.join(cfg.output.dir, "spectrum.csv"), ("re", "im"),
              zip(ev.real.tolist(), ev.imag.tolist()))
    y0 = sys_.random_state(np.random.default_rng(cfg.probes.seed))
    abscissa = float(ev[0].real)
    contr = contraction_norm(sys_, 1.0)
    # the whole number of steps dt nearest to t = 1, sampled 20 times
    dt = cfg.integration.dt
    n = max(1, round(1.0 / dt))
    dev = semigroup_consistency(sys_, simulate(sys_, y0, n * dt, dt, stride=max(n // 20, 1)))
    summary = {
        "abscissa": abscissa,
        "stable": verification.holds("exponential_stability", "abscissa", abscissa),
        "contraction_norm_T1": contr,
        "contractive": verification.holds("trace_operator_identities", "contraction_norm", contr),
        "semigroup_deviation": dev,
    }
    write_json(os.path.join(cfg.output.dir, "spectrum.json"), summary)
    return 0 if summary["stable"] and summary["contractive"] else 1


def cmd_verify_all(cfg: ExperimentConfig) -> int:
    summary, ok = verification.run_all(cfg, cache_dir=_cache_dir(cfg), report=print)
    write_json(os.path.join(cfg.output.dir, "verify_all.json"), summary)
    return 0 if ok else 1


_COMMANDS = {
    "modes": cmd_modes,
    "assemble": cmd_assemble,
    "simulate": cmd_simulate,
    "stationary": cmd_stationary,
    "attract": cmd_attract,
    "spectrum": cmd_spectrum,
    "quasistability": lambda cfg: _criterion(cfg, "quasi_stability", "quasistability.json"),
    "verify-all": cmd_verify_all,
}


def _add_common(p):
    p.add_argument("--config", metavar="PATH", default=None,
                   help="experiment config file (INI sections); defaults apply if omitted")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory (overrides config)")
    p.add_argument("--seed", metavar="N", type=int, default=None,
                   help="random seed (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plateflow",
        description="Coupled cavity-flow / elastic-plate spectral simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(sub.add_parser(name))
    forces = sub.add_parser("forces")
    fsub = forces.add_subparsers(dest="subcommand", required=True)
    _add_common(fsub.add_parser("verify"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "forces":
            return _criterion(cfg, "force_model_contracts", "forces_verify.json")
        return _COMMANDS[args.command](cfg)
    # a config value or a cached basis the models reject, a time step the integrator
    # cannot take, or a stationary problem the descent cannot solve
    except (GridError, ForceModelError, AssemblyError, StokesSolveError, IntegratorError,
            StationaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
