"""Tests of the benchmark itself: span arithmetic, the host-speed sampler,
wrapper removal, and that the correctness oracle can fail, on a wrong
reference or on an exception.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layers import CRITERIA, TARGETS, layer_metrics  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def test_self_time_subtracts_union_of_children():
    #   0 root [0, 10]
    #   1   child [1, 4]  } overlap: together they cover [1, 6]
    #   2   child [3, 6]  }
    #   3     grandchild [3.5, 4.5]
    #   4   child [8, 12] runs past its parent: only [8, 10] counts
    #   5 second root [20, 21]
    start = [0.0, 1.0, 3.0, 3.5, 8.0, 20.0]
    end = [10.0, 4.0, 6.0, 4.5, 12.0, 21.0]
    parent = [-1, 0, 0, 2, 0, -1]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10 - 5 - 2, 3, 3 - 1, 1, 4, 1])


def test_self_time_of_nested_identical_intervals_is_zero():
    got = self_times([0.0, 0.0, 0.0], [2.0, 2.0, 2.0], [-1, 0, 0])
    assert got == pytest.approx([0.0, 2.0, 2.0])


def test_host_speed_sampler_is_left_out_of_a_region_and_stops(tmp_path):
    with HostSpeed(tmp_path / "samples.txt") as hs:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.0:  # busy, as in a timed call
            pass
        t1 = time.perf_counter()
    assert hs.proc.returncode is not None
    rows = hs.samples(t0, t1)
    assert len(rows) >= 2
    assert hs.elapsed(t0, t1) == pytest.approx(t1 - t0 - sum(r[2] + r[3] for r in rows))
    assert hs.factor("small", t0, t1) > 0 and hs.factor("dense", t0, t1) > 0
    time.sleep(0.5)  # a stopped sampler writes no more samples
    assert len(hs.samples()) == len(hs.samples(t1=t1 + 0.05))


@pytest.fixture(scope="module")
def kirchhoff(tmp_path_factory):
    """The simulate-kirchhoff workload at the reference seed, set up."""
    work = tmp_path_factory.mktemp("kirchhoff")
    w = WORKLOADS["simulate-kirchhoff"](0, REFERENCE["simulate-kirchhoff"], 0)
    pf = harness.import_plateflow()
    w.setup(pf, str(work))
    return w, pf, work


def test_traced_run_counts_and_restores_every_binding(kirchhoff):
    w, pf, work = kirchhoff
    dynamics = sys.modules["plateflow.dynamics"]
    verification = sys.modules["plateflow.verification"]
    step = dynamics.Stepper.step
    simulate = dynamics.simulate
    assert verification.simulate is simulate and pf.cli.simulate is simulate

    tr = Tracer()
    assert tr.install(TARGETS, "plateflow") == []
    try:
        assert dynamics.Stepper.step is not step
        # every binding of simulate is wrapped, by the same wrapper
        assert verification.simulate is pf.cli.simulate is dynamics.simulate
        assert dynamics.simulate is not simulate
        out = w.timed(pf, str(work))
    finally:
        tr.uninstall()

    assert dynamics.Stepper.step is step
    assert verification.simulate is simulate
    assert pf.cli.simulate is simulate and dynamics.simulate is simulate
    assert out["rc"] == 0

    metrics = layer_metrics(tr, wall_s=1.0)
    assert metrics["dynamics.steps.kirchhoff"][0] == 20000
    assert metrics["forces.kirchhoff.calls"][0] == 43297
    assert metrics["modal.cache_hit"][0] == 1 and metrics["modal.cache_miss"][0] == 0
    assert metrics["cli.write.calls"][0] == 2 and metrics["cli.bytes_written"][0] > 0


def test_oracle_fails_on_a_wrong_reference(kirchhoff):
    w, pf, work = kirchhoff
    out = w.timed(pf, str(work))

    right = Checks(REFERENCE["rtol"])
    w.check(out, right)
    assert right.attempted > 0 and right.failures == []

    wrong_w = copy.copy(w)
    wrong_w.reference = {**w.reference, "final_E": w.reference["final_E"] * (1 + 1e-5)}
    wrong = Checks(REFERENCE["rtol"])
    wrong_w.check(out, wrong)
    assert wrong.attempted == right.attempted
    assert len(wrong.failures) / wrong.attempted > 0
    assert wrong.failures[0].startswith("simulate.final_E:")


def _nested(paths: dict) -> dict:
    """A summary tree holding ``paths`` ({"a.0.b": v}), digit keys as dict keys."""
    root: dict = {}
    for dotted, value in paths.items():
        *keys, last = dotted.split(".")
        node = root
        for key in keys:
            node = node.setdefault(key, {})
        node[last] = value
    return root


def _battery_checks(summary):
    w = WORKLOADS["battery"](0, REFERENCE["battery"], REFERENCE["reference_seed"])
    ck = Checks(REFERENCE["rtol"])
    w.check({"summary": summary, "marks": []}, ck)
    return ck


def _battery_summary():
    summary = _nested(REFERENCE["battery"])
    for c in CRITERIA:
        summary.setdefault(c, {})["pass"] = True
    return summary


def test_battery_oracle_fails_on_a_verdict_a_value_or_a_missing_quantity():
    right = _battery_checks(_battery_summary())
    assert right.attempted == len(CRITERIA) + len(REFERENCE["battery"])
    assert right.failures == []

    summary = _battery_summary()
    summary["quasi_stability"]["pass"] = False
    assert _battery_checks(summary).failures == ["battery.quasi_stability.verdict"]

    summary = _battery_summary()
    summary["exponential_stability"]["abscissa"] *= 1 + 1e-5
    failures = _battery_checks(summary).failures
    assert len(failures) == 1 and failures[0].startswith("battery.exponential_stability.abscissa:")

    summary = _battery_summary()
    del summary["trace_operator_identities"]["contraction_norm"]
    failures = _battery_checks(summary).failures
    assert len(failures) == 1
    assert failures[0].startswith("battery.trace_operator_identities.contraction_norm:")


def _basis64_checks(tmp_path, mu_min, cache_hit=True):
    (tmp_path / "modes.json").write_text(json.dumps({"mu_min": mu_min,
                                                     "max_flow_residual": 1e-12}))
    (tmp_path / "assemble.json").write_text(json.dumps({"mass_min_eigenvalue": 0.5}))
    w = WORKLOADS["basis-64"](0, REFERENCE["basis-64"], REFERENCE["reference_seed"])
    ck = Checks(REFERENCE["rtol"])
    w.check({"rc_modes": 0, "rc_assemble": 0, "out": str(tmp_path), "cache_hit": cache_hit,
             "eig_tol": 1e-8}, ck)
    return ck


def test_basis64_oracle_fails_on_a_wrong_eigenvalue_or_a_cache_miss(tmp_path):
    mu = REFERENCE["basis-64"]["mu_min"]
    assert _basis64_checks(tmp_path, mu).failures == []
    failures = _basis64_checks(tmp_path, mu * (1 + 1e-5)).failures
    assert len(failures) == 1 and failures[0].startswith("basis-64.mu_min:")
    assert _basis64_checks(tmp_path, mu, cache_hit=False).failures == [
        "basis-64.assemble_cache_hit"]


class _Raising:
    name = "battery"
    host_kernel = "small"

    def __init__(self, seed, reference, reference_seed):
        pass

    def setup(self, pf, work):
        pass

    def timed(self, pf, work):
        raise RuntimeError("reduce the time step")


def test_exception_in_timed_call_is_a_failed_check(monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, "battery", _Raising)
    res = harness.run("battery", seed=0, seconds=0, trace=False, root=BENCH.parent)
    assert res["correct"] is False
    assert res["attempted"] == 1 and res["failed"] == 1
    assert res["metrics"]["pass_rate"][0] == 0.0
    assert "reduce the time step" in res["record"]["failures"][0]
