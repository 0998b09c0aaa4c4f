"""Runs one workload in this process and reports its metrics.

The run: ``SETUP_REPS`` set-ups (each re-imports plateflow and sets the
workload up in a fresh directory; the last one is kept), then the timed call
repeated while the next repetition, at the median time of those before it,
would end within ``seconds`` (at least once), each repetition checked after
it.  Every set-up and repetition starts after a full garbage collection, so
that each starts from the same heap.  A host-speed sampler (``hostspeed``)
runs on the same core throughout; ``wall_s`` and ``setup_s`` are median times
scaled to reference host speed: each repetition by the samples taken during
it with the workload's kernel, the set-ups by those taken during the set-up
phase with the small kernel.  The raw medians go into the run record.  A
traced run times exactly one repetition with the tracer installed, without
the sampler, and reports per-layer metrics instead.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from hostspeed import HostSpeed
from layers import TARGETS, UNITS, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, Checks

SETUP_REPS = 15
PACKAGE = "plateflow"
MODULES = ("config", "mesh", "modal", "verification", "cli")


def import_plateflow():
    """Import plateflow afresh, so that each set-up pays the package's import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def git_rev(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines(src: Path) -> int:
    total = 0
    for path in sorted((src / PACKAGE).rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def blas_info():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    ref_all = json.loads((Path(__file__).parent / "reference.json").read_text())
    w = WORKLOADS[workload](seed, ref_all[workload], ref_all["reference_seed"])
    checks = Checks(ref_all["rtol"])
    out_dir = root / "perfbench" / "out"
    work = out_dir / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sampler = HostSpeed(work / "hostspeed.txt")
    try:
        # no sampler while tracing: its CPU time would fall inside spans
        with contextlib.nullcontext() if trace else sampler:
            setup_windows = []
            for k in range(SETUP_REPS):
                rep = work / f"setup-{k}"
                rep.mkdir()
                gc.collect()
                t0 = time.perf_counter()
                pf = import_plateflow()
                w.setup(pf, str(rep))
                setup_windows.append((t0, time.perf_counter()))

            tracer = Tracer() if trace else None
            windows, marks, skipped = [], None, []
            begin = time.perf_counter()
            k = 0
            while True:
                it = work / f"iter-{k}"
                it.mkdir()
                if tracer is not None:
                    skipped = tracer.install(TARGETS, PACKAGE)
                gc.collect()
                t0 = time.perf_counter()
                out, error = None, ""
                try:
                    out = w.timed(pf, str(it))
                except Exception:  # the program failed: count it, keep the run going
                    error = traceback.format_exc(limit=3).strip().splitlines()[-1]
                finally:
                    windows.append((t0, time.perf_counter()))
                    if tracer is not None:
                        tracer.uninstall()
                checks.expect(f"{workload}.no_exception", out is not None, error)
                if out is not None:
                    w.check(out, checks)
                    marks = out.get("marks")
                shutil.rmtree(it, ignore_errors=True)
                k += 1
                # stop before a repetition that would run past the budget
                expected_end = (time.perf_counter() - begin
                                + statistics.median(t1 - t0 for t0, t1 in windows))
                if tracer is not None or expected_end > seconds:
                    break
        wall_times = [sampler.elapsed(*win) for win in windows]
        setup_times = [sampler.elapsed(*win) for win in setup_windows]
        host = {}
        if not trace:
            # set-up is imports and small numpy work: always the small kernel
            host = {"host_kernel": w.host_kernel,
                    "host_factor_timed": [sampler.factor(w.host_kernel, *win)
                                          for win in windows],
                    "host_factor_setup": sampler.factor("small", setup_windows[0][0],
                                                        setup_windows[-1][1]),
                    "host_kernel_samples": [row[2:] for row in sampler.samples()]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checks.failures)
    if tracer is not None:
        values = layer_metrics(tracer, wall_times[0], marks)
        metrics = {name: (values[name][0], UNITS[name], values[name][1]) for name in UNITS}
    else:
        metrics = {
            "wall_s": (statistics.median(t / f for t, f in zip(wall_times,
                                                               host["host_factor_timed"])),
                       "s", len(wall_times)),
            "setup_s": (statistics.median(setup_times) / host["host_factor_setup"], "s",
                        len(setup_times)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1),
            "pass_rate": ((checks.attempted - failed) / checks.attempted, "ratio",
                          checks.attempted),
        }

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_rev": git_rev(root), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_info(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "src_lines": src_lines(root / "src"),
        "wall_raw_s": statistics.median(wall_times),
        "setup_raw_s": statistics.median(setup_times),
        "wall_samples": wall_times, "setup_samples": setup_times,
        "fail_rate": failed / checks.attempted, "failures": checks.failures, **host,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.save(str(out_dir / f"spans-{stem}.npz"))
        record["spans"] = len(tracer.start)
        record["targets_not_found"] = skipped
    (out_dir / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
            "metrics": metrics, "record": record}


def print_result(res: dict, stream=sys.stdout) -> None:
    """Human-readable lines, then the result as the last line, one JSON object."""
    rec = res["record"]
    print("record " + json.dumps({k: v for k, v in rec.items()
                                  if k not in ("wall_samples", "setup_samples",
                                               "host_kernel_samples")}),
          file=stream)
    for failure in rec["failures"]:
        print(f"FAILED {failure}", file=stream)
    print(f"{'metric':<46} {'value':>16} {'unit':<6} samples", file=stream)
    for name, (value, unit, n) in res["metrics"].items():
        print(f"{name:<46} {value:>16.6g} {unit:<6} {n}", file=stream)
    print(f"checks: {res['attempted'] - res['failed']}/{res['attempted']} passed, "
          f"fail_rate {rec['fail_rate']:.6g}", file=stream)
    final = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
             "metrics": {name: {"value": value, "unit": unit}
                         for name, (value, unit, _) in res["metrics"].items()}}
    print(json.dumps(final), file=stream, flush=True)
