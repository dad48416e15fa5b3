"""The host's speed, read from a fixed reference task timed during each pass.

The benchmark runs on a small VM that shares its host's CPUs.  The VM's
speed moves by up to 2x, in phases that last from a fraction of a second to
minutes, on both CPUs; the guest's steal counter does not show them, so CPU
time moves with wall time.  Ten runs of the same code then spread by more
than any bound a regression check could use, whatever statistic a run takes
of its own passes.

So the benchmark times a fixed task of its own (small NumPy products, float
arithmetic and row formatting, like the solves and their traces) from a
timer signal every :attr:`HostSpeed.every_s` seconds while a pass runs, and
in each set-up process right after its set-up.  A phase slows the task and
the program alike, so ``reading / REF_NOMINAL_S`` is the slowdown at that
moment, and a time divided by the pass's mean slowdown is that time at the
reference speed.
The task is the benchmark's own code and does not change with the package,
so a change to the package moves the scaled times as it moves the raw ones.
:meth:`HostSpeed.clock` stops while the task runs, so no measured time
includes it.
"""
from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from typing import List

import numpy as np

# What one reference task takes at the reference speed: about its median
# reading on a 2-core x86_64 VM (Python 3.11.7, NumPy 2.4.6).  Any fixed
# value would do; it only sets the scale of the scaled times.
REF_NOMINAL_S = 0.006


class HostSpeed:
    """Reference readings, collected until drained."""

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.readings: List[float] = []
        self.paused_s = 0.0
        self._probing = False
        self._a = np.linspace(-1.0, 1.0, 100 * 80).reshape(100, 80)
        for _ in range(3):  # the first calls pay for NumPy's lazy set-up
            self._task()

    def _task(self) -> str:
        """About half small NumPy products and float arithmetic, like a
        solver step, and half building and formatting rows, like a trace
        write.  Of the tasks tried, this one's time moved most closely with
        the passes' times on all three workloads (see README.md)."""
        a = self._a
        x = np.full(a.shape[1], 1e-2)
        acc = 0.0
        for i in range(150):
            g = a.T @ (a @ x)
            acc += math.sqrt(float(g @ g)) * 1e-3
            x = x - 1e-4 * g
            for j in range(40):
                acc = acc * 0.999 + (i ^ j) * 1e-6
        rows = [(i, acc * 1.0001, i * 0.5, "ev" if i % 3 else None) for i in range(1500)]
        return "\n".join(f"{i},{v!r},{h!r},{e or ''}" for i, v, h, e in rows)

    def probe(self, times: int = 1) -> None:
        """Time the reference task ``times`` times, keeping each reading."""
        for _ in range(times):
            t0 = time.perf_counter()
            self._task()
            t1 = time.perf_counter()
            self.readings.append(t1 - t0)
            self.paused_s += t1 - t0

    def drain(self) -> List[float]:
        readings, self.readings = self.readings, []
        return readings

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in the reference task."""
        while True:
            paused = self.paused_s
            now = time.perf_counter()
            if paused == self.paused_s:  # no probe ran in between
                return now - paused

    @contextlib.contextmanager
    def sampling(self):
        """Probe every :attr:`every_s` seconds, from ``SIGALRM``, inside the
        block.  The handler runs between bytecodes of the main thread, so the
        program is paused, not contended, while the task runs."""
        def handler(signum, frame):
            if not self._probing:  # a reading that outlasts every_s is not nested
                self._probing = True
                try:
                    self.probe()
                finally:
                    self._probing = False

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def slowdown(readings: List[float]) -> float:
    """How much slower than the reference speed the host ran while these
    readings were taken: their mean over :data:`REF_NOMINAL_S`.  The mean,
    not the median, because a phase can slow some readings and not others,
    and the program's time between them pays for each one."""
    return statistics.fmean(readings) / REF_NOMINAL_S
