"""The host's speed, sampled while the benchmark measures, to scale times.

On a shared host a core runs Python at speeds up to twice apart, for
spans from under a second to tens of seconds, and two cores differ at
the same moment.  The process's CPU time changes with the speed just as
wall time does, so neither repeats from one run to the next.

The benchmark therefore pins itself, and so the children it starts, to
one core.  While it measures, a timer signal runs a fixed reference task
every ``INTERVAL_S`` and times it.  The task is the benchmark's own
brute-force scan from ``oracle.py``; it never touches ``weightmagic``,
so a change to the package cannot move it.  Each measured interval is
scaled by ``REFERENCE_S`` over the mean time of the task in and around
the interval: times are reported as they would be on a core where the
task takes ``REFERENCE_S``.  Intervals are read on a clock that stops
while the signal handler runs, so they leave the task out.  While a child
process runs, the handler runs on the child's core and holds the child
up for that long, so this holds for the child's time too; only set-up
times, which the child reads itself, keep the handler's share (under 5%).

On a 2-vCPU shared cloud host (Python 3.11.7), over ten 25-second runs
of each workload, the middle half of the pass times spread by 11-39% of
their median unscaled and by 1.4-5.5% scaled.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
from time import perf_counter

import oracle

INTERVAL_S = 0.02
# Mean time of one reference task on a 2-vCPU shared cloud host (Python
# 3.11.7) at its usual speed; it only sets the scale of reported times.
REFERENCE_S = 800e-6
# Samples from this far either side of an interval also count for it, so
# that intervals shorter than ``INTERVAL_S`` have samples too.
MARGIN_S = 0.2


def reference_task():
    """The oracle's unpruned search on two small pairs.

    Of the tasks tried, its time tracked both the search and the analyze
    workloads most closely as the host's speed changed.
    """
    for _ in range(5):
        oracle.brute_force(((1, 2), 6), ((1, 2), 6))
        oracle.brute_force(((1, 3), 6), ((1, 3), 6))


def pin_to_one_core():
    """Run this process, and the children it starts, on one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Times the reference task on a timer signal while in a ``with``.

    ``clock`` is ``perf_counter`` less the time spent in the handler so
    far: intervals read on it leave out the reference task.  Samples are
    placed on that clock too.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reference_task()
        t1 = perf_counter()
        self.at.append(t0 - self.spent)
        self.took.append(t1 - t0)
        self.spent += perf_counter() - t0
        self._busy = False

    def clock(self):
        # Retry if the handler ran while the two were read.
        while True:
            spent = self.spent
            now = perf_counter()
            if self.spent == spent:
                return now - spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0, t1):
        """REFERENCE_S over the mean reference time around [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.at, t1 + MARGIN_S)
        if lo == hi:
            raise RuntimeError("no speed sample around a measured interval")
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])

    def summary(self, m):
        """A report line on the samples and on measurement ``m``."""
        took = statistics.quantiles(self.took, n=10)
        return (f"speed  {len(self.took)} samples of the reference task, "
                f"p10/p50/p90 {took[0] * 1e6:.0f}/{took[4] * 1e6:.0f}/"
                f"{took[8] * 1e6:.0f} us against {REFERENCE_S * 1e6:.0f} us; "
                f"unscaled pass median {statistics.median(m.unscaled):.6g} s")


class Unscaled:
    """Leaves times as measured."""

    clock = staticmethod(perf_counter)

    def scale(self, t0, t1):
        return 1.0


UNSCALED = Unscaled()
