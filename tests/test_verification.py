"""The battery's schedule: grouped runs equal their solo runs, and the
scheduled battery equals its checks run one after another; and its bound
table: each row decides its own criterion's verdict."""

import copy
import gc
import math
import re
import weakref
from collections.abc import Generator

import numpy as np
import pytest

from plateflow import verification
from plateflow.config import ExperimentConfig
from plateflow.dynamics import simulate
from plateflow.forces import BergerForce
from plateflow.verification import (
    BOUNDS,
    CRITERIA,
    _CHECKS,
    _groups,
    _Run,
    _Setup,
    judge,
    run_criterion,
)

REPORTS = ("E0", "E", "Estar", "dissipation_integral", "balance_residual")


def _solo(sys, run):
    return simulate(sys, run.y0, run.T, run.dt, run.model, stride=run.stride,
                    keep_states=run.keep_states, load=run.load)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_group_members_match_their_solo_runs(sys_forced, grid):
    berger = BergerForce(grid, kappa=5.0, gamma=0.0)
    rng = np.random.default_rng(5)
    N = sys_forced.m + 2 * sys_forced.n

    def y0(*cols):
        y = rng.standard_normal((N, *cols))
        return 0.5 * y / sys_forced.state_norm(y)

    # loads 0 and 1, and runs that keep their states and runs that keep none,
    # share a group; every member of a group but its longest leaves the
    # ensemble early, one of them off its stride and one at once
    runs = [
        _Run(y0(), T=0.3, dt=1e-3, model=berger, stride=10),
        _Run(y0(3), T=0.5, dt=1e-3, model=berger, stride=25, load=0.0),
        _Run(y0(), T=0.45, dt=1e-3, model=berger, stride=15),
        _Run(y0(2), T=0.12, dt=1e-3, model=berger, stride=3, keep_states=False),
        _Run(y0(), T=0.1, dt=1e-3, model=berger, stride=2, keep_states=False, load=0.0),
        _Run(y0(), T=0.1, dt=5e-4, model=berger, stride=10),
        _Run(y0(), T=0.1, dt=1e-3, stride=10),
        _Run(y0(2), T=0.255, dt=1e-3, stride=10, load=0.0),
        _Run(y0(), T=0.0, dt=1e-3, stride=10, load=0.0),
    ]
    groups = _groups(runs)
    assert groups == [[0, 1, 2, 3, 4], [5], [6, 7, 8]]
    for group in groups:
        members = [runs[k] for k in group]
        y0s, T, dt, model, stride, keep_states, load = zip(*members)
        for run, got in zip(members, simulate(sys_forced, y0s, T, dt[0], model[0], stride=stride,
                                              keep_states=keep_states, load=load)):
            want = _solo(sys_forced, run)
            assert np.array_equal(got.t, want.t)
            if run.keep_states:
                _assert_close(got.states, want.states)
            else:
                assert got.states is None
            for name in REPORTS:
                _assert_close(getattr(got, name), getattr(want, name))


def _run_in_sequence(s):
    """Every check run to completion, and judged, before the next starts, its
    runs solo."""
    out = {}
    for name in CRITERIA:
        check = _CHECKS[name](s)
        if isinstance(check, Generator):
            try:
                check.send([_solo(s.sys, run) for run in next(check)])
            except StopIteration as stop:
                check = stop.value
        out[name], measured = check
        judge(name, out[name], measured)
    return out


def _assert_same(got, want, where=""):
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{where}.{k}")
    elif isinstance(want, (bool, np.bool_)) or want is None:
        assert got == want and type(got) is type(want), where
    else:
        d = abs(got - want)
        assert d <= 1e-12 or d <= 1e-6 * abs(want), f"{where}: {got!r} vs {want!r}"


def test_schedule_equals_the_checks_run_in_sequence(battery_run):
    # run_all at seed 0, the default config's seed
    summary, lines, cache, _, _ = battery_run
    # one line per criterion, in order: its verdict, then its tightest row as
    # measured value, comparison, bound and margin, which is >= 0 on a pass
    line = re.compile(r"(\w+): (PASS|FAIL)  (\S+) (\S+) (<=|>=|>) (\S+), margin (\S+)")
    parsed = [line.fullmatch(text).groups() for text in lines]
    assert [(name, verdict) for name, verdict, *_ in parsed] == \
        [(name, "PASS" if summary[name]["pass"] else "FAIL") for name in CRITERIA]
    assert all(float(margin) >= 0 for *_, margin in parsed)
    _assert_same(summary, _run_in_sequence(_Setup(ExperimentConfig(), cache)))


def test_battery_schedule_steps(battery_run):
    # at seed 0 the battery builds 4 steppers on its one system, one per force
    # model and dt, and takes 24,000 Berger and 8,000 linear steps (a batched
    # step counts once).  A run leaves its ensemble after its own last step:
    # the linear runs at dt = 1e-3 end at T = 1, 2 (two), 3 (the 10 Lyapunov
    # columns), 4 (the 10 exponential-stability columns, which keep no states,
    # and one more) and 6, and the Berger runs at dt = 1e-3 at T = 2 (two), 6
    # (the 20 quasi-stability columns), 15 and 20
    summary, _, _, steppers, _ = battery_run
    sys = steppers[0]["sys"]
    N = sys.A.shape[0]
    assert np.any(sys.c) and all(st["sys"] is sys for st in steppers)
    assert [(st["model"] is None, st["dt"], st["steps"]) for st in steppers] == [
        (True, 1e-3, {(N, 26): 1000, (N, 25): 1000, (N, 23): 1000, (N, 13): 1000, (N, 2): 2000}),
        (False, 1e-3, {(N, 24): 2000, (N, 22): 4000, (N, 2): 9000, (N, 1): 5000}),
        (False, 5e-4, {(N, 1): 4000}),
        (True, 5e-4, {(N, 1): 2000})]
    assert type(summary["quasi_stability"]["linear_M"]) is float


def test_a_check_s_trajectories_are_freed_once_it_returns(battery_run, monkeypatch):
    # exponential_stability (the one run that keeps no states) and
    # lyapunov_construction (the one run to T = 3) get all their runs in the
    # first group, the linear one at dt = 1e-3; by the second group's call both
    # have returned, and the schedule holds no trajectory it has sent, so theirs
    # are freed; the group's other runs wait for their checks' Berger runs
    class SecondGroup(Exception):
        pass

    returned, alive = [], []

    def recorded(sys, y0, T, dt, model, *, stride, keep_states, load):
        if returned:
            gc.collect()
            alive.extend(sorted((T_r, keep) for T_r, keep, ref in returned if ref() is not None))
            raise SecondGroup
        trajs = simulate(sys, y0, T, dt, model, stride=stride, keep_states=keep_states, load=load)
        returned.extend((T_r, keep, weakref.ref(tr))
                        for T_r, keep, tr in zip(T, keep_states, trajs))
        return trajs

    monkeypatch.setattr(verification, "simulate", recorded)
    with pytest.raises(SecondGroup):
        verification.run_all(ExperimentConfig(), cache_dir=battery_run[2], report=None)
    assert sorted((T_r, keep) for T_r, keep, _ in returned) == \
        [(1.0, True), (2.0, True), (2.0, True), (3.0, True), (4.0, False), (4.0, True), (6.0, True)]
    assert alive == [(1.0, True), (2.0, True), (2.0, True), (4.0, True), (6.0, True)]


def test_a_fail_line_counts_the_failing_members(monkeypatch):
    # fabricated exponential-stability members: 10 trajectories judged on three
    # rows, and the abscissa on one, 31 members; members 2 and 6 miss the
    # abscissa and member 6 also rises, so 3 of 31 fail; a PASS line has no count
    def line(rel_error, rise):
        members = [{"rate": 0.5, "fit_residual": 0.0, "abscissa_rel_error": e}
                   for e in rel_error]
        check = ({"abscissa": -1.0, "members": members},
                 {"E0_rise": {("members", i, "monotone"): r for i, r in enumerate(rise)},
                  **{q: [m[q] for m in members] for q in ("rate", "abscissa_rel_error")}})
        monkeypatch.setitem(_CHECKS, "exponential_stability", lambda s: check)
        lines = []
        verification._run_checks(None, ["exponential_stability"], lines.append)
        return lines

    rel_error, rise = [0.01] * 10, [-1e-3] * 10
    assert line(rel_error, rise) == [
        "exponential_stability: PASS  abscissa_rel_error[0] 0.01 <= 0.1, margin 0.09"]
    rel_error[2], rel_error[6], rise[6] = 0.2, 0.15, 1e-9
    assert line(rel_error, rise) == [
        "exponential_stability: FAIL  E0_rise[members.6] 1e-09 <= 1e-12, margin -9.99e-10; "
        "3 of 31 members fail"]


def test_mass_matrix_positivity_reads_its_bases_through_the_cache(tmp_path, forbid_eigensolve):
    # criterion 1 builds its (1, 1) and (4, 4) bases through the set-up's mode
    # cache: a second run solves no eigenproblem, and its cases equal those of
    # a run with no cache
    cfg = ExperimentConfig()
    uncached = run_criterion("mass_matrix_positivity", cfg, None)
    assert run_criterion("mass_matrix_positivity", cfg, str(tmp_path)) == uncached
    forbid_eigensolve()
    assert run_criterion("mass_matrix_positivity", cfg, str(tmp_path)) == uncached
    assert [(c["m"], c["n"]) for c in uncached["cases"]] == [(1, 1), (4, 4), (12, 8)]


@pytest.mark.parametrize("row", BOUNDS, ids=[f"{c}-{q}-{op}" for c, q, op, _ in BOUNDS])
def test_a_bound_moved_past_its_seed_0_value_fails_its_criterion_alone(battery_run, monkeypatch,
                                                                       row):
    # every criterion passes at seed 0; a row's bound moved just past its worst
    # member's value (the value itself for a strict comparison) fails that
    # criterion, with a negative margin on that row, and no other
    summary, _, _, _, judged = battery_run
    criterion, quantity, op, bound = row
    result, measured = judged[criterion]
    value = measured.get(quantity, result.get(quantity))
    members = list(value.values()) if isinstance(value, dict) else \
        value if isinstance(value, list) else [value]
    if isinstance(bound, tuple):    # judged as (value, reference): moved to (0, past)
        members = [v for v, _ in members]
    worst = max(members) if op[0] == "<" else min(members)
    past = worst if op in ("<", ">") else \
        math.nextafter(worst, -math.inf if op[0] == "<" else math.inf)
    moved = (criterion, quantity, op, (0.0, past) if isinstance(bound, tuple) else past)
    monkeypatch.setattr(verification, "BOUNDS", tuple(moved if r == row else r for r in BOUNDS))
    for name, (result, measured) in judged.items():
        result = copy.deepcopy(result)
        label, *_, margin = judge(name, result, measured)[0].split()
        assert summary[name]["pass"] is True
        assert result["pass"] is (name != criterion), name
        if name == criterion:
            assert label.split("[")[0] == quantity and float(margin) < 0
