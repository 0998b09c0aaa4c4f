"""Host-speed sampler: a second process that times a fixed kernel on the benchmark's core.

On a shared host one core flips between a fast and a slow state within
seconds, and the share of time it spends slow drifts over minutes, so a raw
time tells as much about the neighbours as about the program.  While a
``HostSpeed`` is entered, a child process pinned to the benchmark's core runs
two short fixed kernels every ``INTERVAL_S`` seconds and writes the sample's
start and end and each kernel's CPU time to a file.  A kernel's CPU time
measures the core's speed, not the scheduler, and the kernels also run while
the program is inside a long LAPACK call.

A region ``[t0, t1]`` of ``time.perf_counter()`` (the system's monotonic
clock, the same in both processes) took ``elapsed(t0, t1)``: its length less
the CPU time of the samples started in it.  Its ``factor(kernel, t0, t1)`` is
the mean CPU time of that kernel in those samples over the kernel's
reference time; the region's time divided by its factor is its time at
reference host speed.  The mean, not the median: a region's time grows with
the share of it the core spent slow, and so does the mean, while the median
of a two-state sample jumps from one state to the other.  The kernels never
call plateflow, so a change to the program moves the region's time and not
the factor.

The two kernels, each slowed by the host about as much as the work it
scales: ``small`` (1,500 explicit steps of a 20-dimensional system, many
small numpy calls, like time stepping) and ``dense`` (a generalized
symmetric eigenproblem of order 220, like the Stokes eigensolve).

Run as a script, this file is the sampler:
``hostspeed.py CPU PATH PARENT_PID``; it stops when its parent does.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

INTERVAL_S = 0.25
KERNELS = ("small", "dense")  # the column order of a sample's CPU times
# About the kernels' CPU times on a 2-core Xeon (Sapphire Rapids) KVM guest,
# one BLAS thread; they only set the unit of the scaled times.
REFERENCE_S = {"small": 0.0075, "dense": 0.0100}


def make_kernels():
    import numpy as np
    import scipy.linalg as la

    rng = np.random.default_rng(0)
    v = rng.standard_normal((20, 20)) / 20
    n = 220
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a, m = a + a.T, b @ b.T / n + np.eye(n)

    def small():
        x = np.ones(20)
        for _ in range(1500):
            x = x + 1e-3 * (v @ x - 0.1 * np.tanh(x))

    def dense():
        la.eigh(a, m)

    return small, dense


def sample(path: str, parent: int) -> None:
    kernels = make_kernels()
    with open(path, "w", encoding="utf-8") as fh:
        while os.getppid() == parent:
            t0, cpu = time.perf_counter(), []
            for kernel in kernels:
                c0 = time.thread_time()
                kernel()
                cpu.append(time.thread_time() - c0)
            fh.write(" ".join(map(repr, [t0, time.perf_counter(), *cpu])) + "\n")
            fh.flush()
            time.sleep(INTERVAL_S)


class HostSpeed:
    def __init__(self, path: Path):
        self.path = path
        self.proc = None

    def __enter__(self):
        cpu = max(os.sched_getaffinity(0))
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(cpu), str(self.path), str(os.getpid())],
            stdin=subprocess.DEVNULL, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        try:
            deadline = time.perf_counter() + 60
            while not self.samples():
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("the host-speed sampler did not start")
                time.sleep(0.05)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.wait()
        return False

    def samples(self, t0=float("-inf"), t1=float("inf")) -> list[tuple[float, ...]]:
        """(start, end, CPU time of each kernel) of each sample started in [t0, t1]."""
        try:
            lines = self.path.read_text(encoding="utf-8").split("\n")[:-1]  # whole lines
        except FileNotFoundError:
            return []
        rows = [tuple(map(float, line.split())) for line in lines]
        return [r for r in rows if t0 <= r[0] <= t1]

    def elapsed(self, t0: float, t1: float) -> float:
        return (t1 - t0) - sum(sum(row[2:]) for row in self.samples(t0, t1))

    def factor(self, kernel: str, t0: float, t1: float) -> float:
        rows = self.samples(t0, t1)
        if not rows:  # a region shorter than the interval: the nearest sample
            rows = sorted(self.samples(), key=lambda r: abs(r[0] - t0))[:1]
        col = 2 + KERNELS.index(kernel)
        return statistics.fmean(row[col] for row in rows) / REFERENCE_S[kernel]


if __name__ == "__main__":
    cpu_index, out_path, parent_pid = sys.argv[1:]
    os.sched_setaffinity(0, {int(cpu_index)})
    sample(out_path, int(parent_pid))
