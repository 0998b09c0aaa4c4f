"""The three workloads: their set-up, their timed call, and the checks on it.

Each workload drives plateflow only through public entry points
(``verification.run_all``, ``cli.main``, ``modal.build_modal_basis``).  The
workload seed reaches the program only as the config's probe seed or the
CLI's ``--seed``.

``setup(pf, work)`` does the set-up a user pays before the timed call (config
and, where the workload says so, a warm mode cache) in a fresh directory;
``timed(pf, work)`` runs the call that is timed and returns its raw outputs;
``check(out, checks)`` judges those outputs outside the timed region;
``host_kernel`` names the ``hostspeed`` kernel whose time scales the timed
call's times to reference host speed.  An exception from the timed call is
counted as a failed check by the harness.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time

from layers import CRITERIA, cache_state

GRID_64 = """\
[geometry]
n_x = 64
n_z = 64

[modes]
m = 12
n = 8

[physics]
gf_kind = shear
gf_amp = 2.0
gpl_kind = sine
gpl_amp = 0.5
"""

KIRCHHOFF_16 = """\
[geometry]
n_x = 16
n_z = 16

[modes]
m = 12
n = 8

[physics]
force = kirchhoff
force_kappa = 1.0
force_q = 2.0
force_mu = 0.5
gf_kind = shear
gf_amp = 2.0
gpl_kind = sine
gpl_amp = 0.5

[integration]
dt = 1e-3
T = 20.0
stride = 10
"""

KIRCHHOFF_SAMPLES = 2001


class Checks:
    """Counts checks attempted and failed; remembers what failed and why."""

    def __init__(self, rtol: float):
        self.rtol = rtol
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail != "" else name)

    def close(self, name: str, got, want) -> None:
        ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
              and math.isfinite(got)
              and abs(got - want) <= self.rtol * max(abs(want), abs(got)))
        self.expect(name, ok, f"got {got!r}, want {want!r} (rtol {self.rtol:g})")


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _lookup(tree, dotted: str):
    for key in dotted.split("."):
        if isinstance(tree, (list, tuple)):
            key = int(key)
            if not 0 <= key < len(tree):
                return None
            tree = tree[key]
        elif isinstance(tree, dict) and key in tree:
            tree = tree[key]
        else:
            return None
    return tree


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class Battery:
    """``verification.run_all`` on the default config, the mode cache warm."""

    name = "battery"
    host_kernel = "small"

    def __init__(self, seed: int, reference: dict, reference_seed: int):
        self.seed = seed
        self.reference = reference if seed == reference_seed else {}

    def setup(self, pf, work):
        cfg = pf.config.ExperimentConfig()
        cfg.probes.seed = self.seed
        cfg.output.dir = work
        self.cfg = cfg
        # verify-all keeps its cache under --out; warm it the way it is used
        self.cache = os.path.join(work, "modes_cache")
        pf.modal.build_modal_basis(pf.mesh.build_grid(cfg.geometry), cfg.modes.m,
                                   cfg.modes.n, cache_dir=self.cache)

    def timed(self, pf, work):
        marks = []
        summary, _ = pf.verification.run_all(
            self.cfg, cache_dir=self.cache,
            report=lambda line: marks.append(time.perf_counter()))
        return {"summary": summary, "marks": marks}

    def check(self, out, ck: Checks):
        summary = out["summary"]
        for c in CRITERIA:
            ck.expect(f"battery.{c}.verdict", _lookup(summary, f"{c}.pass") is True)
        for path, want in self.reference.items():
            ck.close(f"battery.{path}", _lookup(summary, path), want)


class Basis64:
    """``plateflow modes`` into an empty --out on 64x64, then ``assemble``."""

    name = "basis-64"
    host_kernel = "dense"

    def __init__(self, seed: int, reference: dict, reference_seed: int):
        self.seed = seed
        self.reference = reference

    def setup(self, pf, work):
        self.config = _write(os.path.join(work, "basis64.ini"), GRID_64)
        pf.config.parse_config(self.config)

    def _args(self, cmd, out):
        return [cmd, "--config", self.config, "--out", out, "--seed", str(self.seed)]

    def timed(self, pf, work):
        out = os.path.join(work, "out")
        cache = os.path.join(out, "modes_cache")
        rc_modes = pf.cli.main(self._args("modes", out))
        before = cache_state(cache)
        rc_assemble = pf.cli.main(self._args("assemble", out))
        after = cache_state(cache)
        return {"rc_modes": rc_modes, "rc_assemble": rc_assemble, "out": out,
                "cache_hit": bool(before) and before == after, "eig_tol": pf.modal.EIG_TOL}

    def check(self, out, ck: Checks):
        modes = _read_json(os.path.join(out["out"], "modes.json"))
        assembled = _read_json(os.path.join(out["out"], "assemble.json"))
        ck.expect("basis-64.modes.exit_code", out["rc_modes"] == 0, out["rc_modes"])
        ck.expect("basis-64.assemble.exit_code", out["rc_assemble"] == 0, out["rc_assemble"])
        ck.close("basis-64.mu_min", modes.get("mu_min"), self.reference["mu_min"])
        res = modes.get("max_flow_residual")
        ck.expect("basis-64.max_flow_residual", res is not None and res <= out["eig_tol"], res)
        mass = assembled.get("mass_min_eigenvalue")
        ck.expect("basis-64.mass_min_eigenvalue", mass is not None and mass > 0, mass)
        ck.expect("basis-64.assemble_cache_hit", out["cache_hit"])


class SimulateKirchhoff:
    """``plateflow simulate``: one long Kirchhoff trajectory, mode cache warm."""

    name = "simulate-kirchhoff"
    host_kernel = "small"

    def __init__(self, seed: int, reference: dict, reference_seed: int):
        self.seed = seed
        self.reference = reference if seed == reference_seed else {}

    def setup(self, pf, work):
        self.config = _write(os.path.join(work, "kirchhoff.ini"), KIRCHHOFF_16)
        cfg = pf.config.parse_config(self.config)
        self.out = os.path.join(work, "out")
        pf.modal.build_modal_basis(pf.mesh.build_grid(cfg.geometry), cfg.modes.m,
                                   cfg.modes.n,
                                   cache_dir=os.path.join(self.out, "modes_cache"))

    def timed(self, pf, work):
        for name in ("simulate.json", "trajectory.csv"):
            if os.path.exists(os.path.join(self.out, name)):
                os.remove(os.path.join(self.out, name))
        return {"rc": pf.cli.main(["simulate", "--config", self.config, "--out", self.out,
                                   "--seed", str(self.seed)])}

    def check(self, out, ck: Checks):
        s = _read_json(os.path.join(self.out, "simulate.json"))
        try:
            with open(os.path.join(self.out, "trajectory.csv"), newline="") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1
        except OSError:
            rows = None
        ck.expect("simulate.exit_code", out["rc"] == 0, out["rc"])
        ck.expect("simulate.balance_ok", s.get("balance_ok") is True, s.get("balance_residual"))
        ck.expect("simulate.samples", s.get("samples") == KIRCHHOFF_SAMPLES, s.get("samples"))
        ck.expect("simulate.csv_rows", rows == KIRCHHOFF_SAMPLES, rows)
        for key, want in self.reference.items():
            ck.close(f"simulate.{key}", s.get(key), want)


WORKLOADS = {w.name: w for w in (Battery, Basis64, SimulateKirchhoff)}
