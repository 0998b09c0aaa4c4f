"""Outside-in span tracer.

Spans are recorded by wrappers installed around functions and methods of an
already imported package; the package's source is never touched.  A module
function is wrapped at every place its name is bound (``from .x import f``
copies the binding into the importing module), a method once on its class.
Every wrapper is removed again by ``uninstall``.

Each span has a name, a start, an end and a parent span (-1 for none); every
span of one tracer shares its ``run_id``.  Spans are kept in flat arrays in
memory and written out once, by ``save``, after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import uuid
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """A function or method to trace.

    ``where`` is ``module:qualname`` (``plateflow.dynamics:Stepper.step``).
    ``before(args, kwargs)`` runs ahead of the call and ``after(token, args,
    kwargs)`` after it; the value of the last of them that is given becomes
    the span's note.
    """

    span: str
    where: str
    before: Callable | None = None
    after: Callable | None = None


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, target: Target):
        nid = self._nid(target.span)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, notes, clock = self._stack, self.notes, time.perf_counter
        before, after = target.before, target.after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if after is not None:
                    notes[idx] = after(token, args, kwargs)
                elif before is not None:
                    notes[idx] = token

        return traced

    # -- installing and removing wrappers ------------------------------------

    def install(self, targets, package: str) -> list[str]:
        """Wrap every target that exists; returns the spans that were skipped."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        skipped = []
        for t in targets:
            mod_name, qual = t.where.split(":")
            owner = sys.modules.get(mod_name)
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None:
                skipped.append(t.span)
                continue
            if inspect.isclass(owner):
                orig = owner.__dict__.get(attr)
                if not inspect.isfunction(orig):
                    skipped.append(t.span)
                    continue
                self._patch(owner, attr, orig, self._wrap(orig, t))
                continue
            orig = getattr(owner, attr, None)
            if not inspect.isfunction(orig):
                skipped.append(t.span)
                continue
            wrapped = self._wrap(orig, t)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapped)
        return skipped

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------------

    def spans_named(self, name: str) -> np.ndarray:
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.frombuffer(self.name_id, dtype=np.int32) == nid)

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end) - np.frombuffer(self.start)

    def save(self, path: str) -> None:
        note_idx = np.array(sorted(self.notes), dtype=np.int64)
        np.savez(path, run_id=self.run_id, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 note_index=note_idx,
                 note=np.array([str(self.notes[i]) for i in note_idx], dtype=str))


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once (their union is subtracted, not their sum).
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = defaultdict(list)
    for child, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(child)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out
