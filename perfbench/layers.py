"""Which plateflow calls are traced, and the per-layer metrics made from them.

Layer names are the ``src/plateflow`` modules.  Each metric is computed from
the spans of one traced iteration of a workload; a metric whose calls did not
happen on that workload reads 0.  Percentiles are given only where a span has
at least ``MIN_PERCENTILE_SAMPLES`` samples (so that p99 has ten beyond it)
and read 0 otherwise.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Target, Tracer, self_times

MIN_PERCENTILE_SAMPLES = 1000

CRITERIA = (
    "mass_matrix_positivity",
    "energy_balance",
    "exponential_stability",
    "lyapunov_construction",
    "mean_preservation",
    "force_model_contracts",
    "gradient_structure_equilibria",
    "quasi_stability",
    "trace_operator_identities",
    "attractor_regularity",
)

MODELS = ("linear", "berger", "kirchhoff")
_MODEL_OF_CLASS = {"NoneType": "linear", "BergerForce": "berger",
                   "KirchhoffForce": "kirchhoff"}

STEP = "dynamics.Stepper.step"
FORCE_SPANS = {"berger": "forces.BergerForce.force",
               "kirchhoff": "forces.KirchhoffForce.force"}
CRITERIA_SETUP = "verification._Setup.__init__"


def _step_model(args, kwargs):
    name = type(args[0].model).__name__
    return _MODEL_OF_CLASS.get(name, name.lower())


def _stokes_dim(args, kwargs):
    g = args[0] if args else kwargs["g"]
    return (g.n_x - 1) * (g.n_z - 1)


def _cache_dir(args, kwargs):
    return args[3] if len(args) > 3 else kwargs.get("cache_dir")


def cache_state(path):
    """Names, sizes and modification times of the files in a cache directory."""
    if path is None or not os.path.isdir(path):
        return None
    return sorted((e.name, e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(path))


def _cache_before(args, kwargs):
    return cache_state(_cache_dir(args, kwargs))


def _cache_after(before, args, kwargs):
    """hit: the cache already held files and the call wrote none; miss:
    the call wrote to the cache; None: no cache directory was given."""
    if _cache_dir(args, kwargs) is None:
        return None
    if before and cache_state(_cache_dir(args, kwargs)) == before:
        return "hit"
    return "miss"


def _written_bytes(token, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _t(span, where, before=None, after=None):
    return Target(span=span, where=f"plateflow.{where}", before=before, after=after)


TARGETS = (
    _t("mesh.grad_inner", "mesh:grad_inner"),
    _t("mesh.inner_fluid", "mesh:inner_fluid"),
    _t("stokes.velocity_blocks", "stokes:velocity_blocks"),
    _t("stokes.StokesSolver.__init__", "stokes:StokesSolver.__init__"),
    _t("stokes.StokesSolver.lift", "stokes:StokesSolver.lift"),
    _t("stokes.HarmonicLifter.__init__", "stokes:HarmonicLifter.__init__"),
    _t("stokes.HarmonicLifter.lift", "stokes:HarmonicLifter.lift"),
    _t("modal.solve_stokes_eigenmodes", "modal:solve_stokes_eigenmodes", before=_stokes_dim),
    _t("modal.solve_plate_eigenmodes", "modal:solve_plate_eigenmodes"),
    _t("modal.build_modal_basis", "modal:build_modal_basis",
       before=_cache_before, after=_cache_after),
    _t("galerkin.assemble", "galerkin:assemble"),
    _t("galerkin.GalerkinSystem.linear_parts", "galerkin:GalerkinSystem.linear_parts"),
    _t("galerkin.reconstruct", "galerkin:reconstruct"),
    _t(FORCE_SPANS["berger"], "forces:BergerForce.force"),
    _t(FORCE_SPANS["kirchhoff"], "forces:KirchhoffForce.force"),
    _t("plate2d.VonKarmanForce.force", "plate2d:VonKarmanForce.force"),
    _t(STEP, "dynamics:Stepper.step", before=_step_model),
    _t("dynamics.Stepper.__init__", "dynamics:Stepper.__init__"),
    _t("dynamics.simulate", "dynamics:simulate"),
    _t("dynamics.quasi_stability_probe", "dynamics:quasi_stability_probe"),
    _t("dynamics.attractor_regularity_probe", "dynamics:attractor_regularity_probe"),
    _t("steady.minimize_stationary", "steady:minimize_stationary"),
    _t("steady.solve_stationary_stokes", "steady:solve_stationary_stokes"),
    _t("spectrum.assemble_generator", "spectrum:assemble_generator"),
    _t("spectrum.spectral_abscissa", "spectrum:spectral_abscissa"),
    _t("spectrum.contraction_norm", "spectrum:contraction_norm"),
    _t("spectrum.semigroup_consistency", "spectrum:semigroup_consistency"),
    _t("spectrum.gamma_operator_checks", "spectrum:gamma_operator_checks"),
    _t(CRITERIA_SETUP, "verification:_Setup.__init__"),
    _t("cli.write_json", "cli:write_json", after=_written_bytes),
    _t("cli.write_csv", "cli:write_csv", after=_written_bytes),
)

# metric name -> (unit, statistic, spans it is made from)
SPAN_METRICS = {
    "mesh.grad_inner.calls": ("count", "calls", ["mesh.grad_inner"]),
    "mesh.grad_inner.self_s": ("s", "self_s", ["mesh.grad_inner"]),
    "mesh.inner_fluid.calls": ("count", "calls", ["mesh.inner_fluid"]),
    "stokes.velocity_blocks.self_s": ("s", "self_s", ["stokes.velocity_blocks"]),
    "stokes.StokesSolver.init.self_s": ("s", "self_s", ["stokes.StokesSolver.__init__"]),
    "stokes.lift.calls": ("count", "calls", ["stokes.StokesSolver.lift"]),
    "stokes.lift.self_s": ("s", "self_s", ["stokes.StokesSolver.lift"]),
    "stokes.HarmonicLifter.self_s": ("s", "self_s", ["stokes.HarmonicLifter.__init__",
                                                     "stokes.HarmonicLifter.lift"]),
    "modal.stokes_eig.self_s": ("s", "self_s", ["modal.solve_stokes_eigenmodes"]),
    "modal.plate_eig.self_s": ("s", "self_s", ["modal.solve_plate_eigenmodes"]),
    "modal.build_basis.calls": ("count", "calls", ["modal.build_modal_basis"]),
    "modal.build_basis.self_s": ("s", "self_s", ["modal.build_modal_basis"]),
    "galerkin.assemble.calls": ("count", "calls", ["galerkin.assemble"]),
    "galerkin.assemble.self_s": ("s", "self_s", ["galerkin.assemble"]),
    "galerkin.linear_parts.calls": ("count", "calls", ["galerkin.GalerkinSystem.linear_parts"]),
    "galerkin.linear_parts.self_s": ("s", "self_s", ["galerkin.GalerkinSystem.linear_parts"]),
    "galerkin.reconstruct.calls": ("count", "calls", ["galerkin.reconstruct"]),
    "galerkin.reconstruct.self_s": ("s", "self_s", ["galerkin.reconstruct"]),
    "forces.berger.calls": ("count", "calls", [FORCE_SPANS["berger"]]),
    "forces.berger.p50_us": ("us", "p50_us", [FORCE_SPANS["berger"]]),
    "forces.berger.p99_us": ("us", "p99_us", [FORCE_SPANS["berger"]]),
    "forces.kirchhoff.calls": ("count", "calls", [FORCE_SPANS["kirchhoff"]]),
    "forces.kirchhoff.p50_us": ("us", "p50_us", [FORCE_SPANS["kirchhoff"]]),
    "forces.kirchhoff.p99_us": ("us", "p99_us", [FORCE_SPANS["kirchhoff"]]),
    "plate2d.von_karman.calls": ("count", "calls", ["plate2d.VonKarmanForce.force"]),
    "plate2d.von_karman.self_s": ("s", "self_s", ["plate2d.VonKarmanForce.force"]),
    "dynamics.Stepper.init.calls": ("count", "calls", ["dynamics.Stepper.__init__"]),
    "dynamics.Stepper.init.self_s": ("s", "self_s", ["dynamics.Stepper.__init__"]),
    "dynamics.simulate.self_s": ("s", "self_s", ["dynamics.simulate"]),
    "dynamics.quasi_stability_probe.self_s": ("s", "self_s", ["dynamics.quasi_stability_probe"]),
    "dynamics.attractor_regularity_probe.self_s": (
        "s", "self_s", ["dynamics.attractor_regularity_probe"]),
    "steady.minimize_stationary.calls": ("count", "calls", ["steady.minimize_stationary"]),
    "steady.minimize_stationary.self_s": ("s", "self_s", ["steady.minimize_stationary"]),
    "steady.solve_stationary_stokes.self_s": ("s", "self_s", ["steady.solve_stationary_stokes"]),
    "spectrum.assemble_generator.self_s": ("s", "self_s", ["spectrum.assemble_generator"]),
    "spectrum.spectral_abscissa.self_s": ("s", "self_s", ["spectrum.spectral_abscissa"]),
    "spectrum.contraction_norm.self_s": ("s", "self_s", ["spectrum.contraction_norm"]),
    "spectrum.semigroup_consistency.self_s": ("s", "self_s", ["spectrum.semigroup_consistency"]),
    "spectrum.gamma_operator_checks.self_s": ("s", "self_s", ["spectrum.gamma_operator_checks"]),
    "cli.write.calls": ("count", "calls", ["cli.write_json", "cli.write_csv"]),
    "cli.write.self_s": ("s", "self_s", ["cli.write_json", "cli.write_csv"]),
}

# metrics computed from span notes, criterion boundaries or the traced wall time
OTHER_METRICS = {
    "modal.stokes_eig.dim": "count",
    "modal.stokes_eig.dense_bytes": "bytes",
    "modal.cache_hit": "count",
    "modal.cache_miss": "count",
    "cli.bytes_written": "bytes",
    **{f"dynamics.steps.{m}": "count" for m in MODELS},
    **{f"dynamics.step.{m}.{q}": "us" for m in MODELS for q in ("p50_us", "p99_us")},
    **{f"forces.evals_per_step.{m}": "ratio" for m in ("berger", "kirchhoff")},
    **{f"verification.{c}.wall_s": "s" for c in CRITERIA},
    "trace.wall_s": "s",
}

UNITS = {**{k: v[0] for k, v in SPAN_METRICS.items()}, **OTHER_METRICS}


def _percentiles(durations: np.ndarray):
    """(p50, p99) in microseconds, or zeros below the sample floor."""
    if len(durations) < MIN_PERCENTILE_SAMPLES:
        return 0.0, 0.0
    p50, p99 = np.percentile(durations, [50, 99])
    return float(p50 * 1e6), float(p99 * 1e6)


def layer_metrics(tr: Tracer, wall_s: float, criteria_marks=None):
    """Every per-layer metric, as {name: (value, samples)}.

    ``criteria_marks`` is the list of perf_counter times at which run_all
    reported each criterion; the first criterion starts when the battery's
    shared set-up span ends.
    """
    selfs = self_times(tr.start, tr.end, tr.parent)
    durs = tr.durations()
    out = {}
    for name, (_, stat, spans) in SPAN_METRICS.items():
        idx = np.concatenate([tr.spans_named(s) for s in spans])
        if stat == "calls":
            out[name] = (int(len(idx)), int(len(idx)))
        elif stat == "self_s":
            out[name] = (float(selfs[idx].sum()), int(len(idx)))
        else:
            p50, p99 = _percentiles(durs[idx])
            out[name] = (p50 if stat == "p50_us" else p99, int(len(idx)))

    eig = tr.spans_named("modal.solve_stokes_eigenmodes")
    dim = max((tr.notes[i] for i in eig), default=0)
    out["modal.stokes_eig.dim"] = (dim, len(eig))
    # the dense symmetric pencil (A, M), float64, as modal.py builds it
    out["modal.stokes_eig.dense_bytes"] = (2 * dim * dim * 8, len(eig))

    basis = [tr.notes[i] for i in tr.spans_named("modal.build_modal_basis")]
    out["modal.cache_hit"] = (basis.count("hit"), len(basis))
    out["modal.cache_miss"] = (basis.count("miss"), len(basis))

    writes = np.concatenate([tr.spans_named("cli.write_json"), tr.spans_named("cli.write_csv")])
    out["cli.bytes_written"] = (int(sum(tr.notes[i] for i in writes)), len(writes))

    steps = tr.spans_named(STEP)
    step_model = np.array([tr.notes[i] for i in steps], dtype=object)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    for m in MODELS:
        mine = steps[step_model == m] if len(steps) else steps
        out[f"dynamics.steps.{m}"] = (int(len(mine)), int(len(mine)))
        p50, p99 = _percentiles(durs[mine])
        out[f"dynamics.step.{m}.p50_us"] = (p50, int(len(mine)))
        out[f"dynamics.step.{m}.p99_us"] = (p99, int(len(mine)))
        if m in FORCE_SPANS:
            model_steps = set(mine.tolist())
            forces = tr.spans_named(FORCE_SPANS[m])
            in_step = sum(1 for p in parent[forces] if int(p) in model_steps)
            ratio = in_step / len(mine) if len(mine) else 0.0
            out[f"forces.evals_per_step.{m}"] = (ratio, int(len(mine)))

    marks = list(criteria_marks or [])
    setup = tr.spans_named(CRITERIA_SETUP)
    for k, c in enumerate(CRITERIA):
        if k < len(marks) and (k > 0 or len(setup)):
            begin = marks[k - 1] if k > 0 else tr.end[int(setup[0])]
            out[f"verification.{c}.wall_s"] = (marks[k] - begin, 1)
        else:
            out[f"verification.{c}.wall_s"] = (0.0, 0)

    out["trace.wall_s"] = (wall_s, 1)
    return out
