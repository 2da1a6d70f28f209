"""The host's speed, measured during the run.

The benchmark runs on a VM that shares its host with other tenants.  The
host's speed drifts by a third over minutes, which is slower than a run, and
swings by a fifth from one second to the next.  Two runs of the same code
half an hour apart therefore differ by more than any useful bound, whatever
happens inside the run.

To take the drift out, a timer interrupts the run every ``INTERVAL_S``
seconds and times a fixed reference job: an ``appendix_tamagawa_check``
call on ``krel_frozen``, a copy of the ``krel`` source as the benchmark was
defined on.  It is never edited, so its cost is a property of the host
alone, while it spends its time in the same kind of exact group and
character arithmetic as the workloads.  The interrupts fall at even steps of
wall time, inside long ops too, so the samples cover the whole run.

The run's times are read from ``clock()``, which leaves out the time spent
in samples.  A speed factor is a mean sample time divided by ``NOMINAL_S``;
a time divided by it reads in seconds at the reference speed, since a host
half as fast doubles both the raw time and the factor.  Pass times are
divided by the factor of the whole run.  An op's or a set-up's time is
divided by the factor of the samples taken next to it, since the host's
speed swings within a second and one op's time follows its neighbours.  The
garbage
collector is off while a sample runs, so the program's heap, which
a change to ``krel`` may grow or shrink, does not slow the reference job.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

from krel_frozen.harness import MetacyclicSpec, appendix_tamagawa_check

# mean sample time, inside runs, on the reference host (2-vCPU Intel Xeon VM)
NOMINAL_S = 0.016
INTERVAL_S = 0.25
WARMUP = 5


def reference_job() -> None:
    appendix_tamagawa_check("2M", MetacyclicSpec(2, 0, 1))


class SpeedRef:
    def __init__(self):
        self.samples: list[float] = []
        self._ends: list[float] = []   # end time of each sample
        self._spent: list[float] = []  # time in samples up to that end
        self._at: list[float] = []     # each sample's time on clock()
        self._busy = False
        for _ in range(WARMUP):
            reference_job()

    def sample(self, *_) -> None:
        """Time the reference job once; also the timer's signal handler."""
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        try:
            reference_job()
        finally:
            t1 = perf_counter()
            if enabled:
                gc.enable()
            self.samples.append(t1 - t0)
            self._spent.append((self._spent[-1] if self._spent else 0.0)
                               + t1 - t0)
            self._ends.append(t1)
            self._at.append(t1 - self._spent[-1])
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """``perf_counter()`` less the time spent in samples before it.

        A sample that interrupts this method ends after ``t`` and is not
        counted, so no sample is ever half counted.
        """
        t = perf_counter()
        i = bisect.bisect_right(self._ends, t)
        return t - (self._spent[i - 1] if i else 0.0)

    def local_factor(self, t0: float, t1: float) -> float:
        """Speed factor of the samples taken within ``INTERVAL_S`` of the
        ``clock()`` span [t0, t1], or of the run when there are none."""
        lo = bisect.bisect_left(self._at, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self._at, t1 + INTERVAL_S)
        if lo == hi:
            return self.factor()
        return statistics.fmean(self.samples[lo:hi]) / NOMINAL_S

    def factor(self) -> float:
        """Mean sample time over ``NOMINAL_S``, without the top and bottom
        tenth of the samples.

        A run's time adds up the host's speed over the run, so the mean
        follows it more closely than the median; the trim keeps one sample
        stalled by a page fault from moving it.
        """
        if not self.samples:  # never started: raw times
            return 1.0
        s = sorted(self.samples)
        cut = len(s) // 10
        return statistics.fmean(s[cut:len(s) - cut]) / NOMINAL_S
