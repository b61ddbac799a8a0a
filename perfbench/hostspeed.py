"""Correct timings for the speed of a shared host.

On a shared virtual machine the same pure-Python loop can take 1.7 times
longer for stretches that last from a fraction of a second to minutes,
while a neighbour keeps the physical core busy. CPU time moves with wall
time there (the vCPU is not descheduled, it runs slower), so neither clock
alone separates the program from the host.

A worker therefore runs a fixed probe (probe_work) every PERIOD_S seconds
from a SIGALRM interval timer, whose handler Python runs in the main thread
between bytecodes, and records when each probe started and how long it took. A stretch of the
run is converted to *reference seconds* by multiplying its wall time by
REF_S / probe duration, averaged over the probes in and around it: the
time the stretch would have taken on a host where the probe takes REF_S.
Each probe's factor is taken from the median duration of it and its four
neighbours, so one probe cut short or held up by the operating system
does not count; the factors are then averaged, which weighs fast and slow
stretches by how long they lasted. The probe's own time is subtracted
from every stretch first.

The probe hashes prebuilt tuple keys into a prebuilt dict, like the
package's hash-consing, and allocates no object the garbage collector
tracks, so it never triggers a collection of the program's heap. Over
repeated runs of one seed, an op's wall time moved with the probe with a
slope of 1.0 on a log scale.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

PERIOD_S = 0.01
REF_S = 1e-4
WINDOW_S = 0.02  # probes this far either side of a stretch also count

_KEYS = [(i % 37, i % 11, i) for i in range(1000)]
_TABLE = dict.fromkeys(_KEYS, 0)


def probe_work() -> None:
    table = _TABLE
    for key in _KEYS:
        table[key] = table[key] ^ 1


class HostSpeed:
    """Samples the probe during a run and gives the factor from wall time
    to reference time for any stretch of it."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self.spent = 0.0  # total probe time, to subtract from stretches
        self.factors: list[float] = []

    def _probe(self, signum, frame) -> None:
        clock = time.perf_counter
        t0 = clock()
        probe_work()
        t1 = clock()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        d = self.durations
        self.factors = [
            REF_S / statistics.median(d[max(0, k - 2):k + 3]) for k in range(len(d))
        ]

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second of program time in [t0, t1]:
        the mean probe factor near it. Call after stop()."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi - lo < 3:  # too few probes near a short stretch: widen to 3
            mid = (lo + hi) // 2
            lo, hi = max(0, mid - 2), min(len(self.starts), mid + 2)
        if hi <= lo:
            raise RuntimeError("no host speed probe ran during the run")
        return statistics.fmean(self.factors[lo:hi])
