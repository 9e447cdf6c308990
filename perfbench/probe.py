"""CPU-speed probe: how fast this process's CPU runs right now.

The benchmark's host lends it a share of shared cores, and the speed of that
share drifts by a factor of up to two over tens of seconds (a fixed
pure-Python loop run back to back takes 0.10 s in one stretch and 0.15-0.24 s
in the next, in user CPU time, with no steal).  A workload timed across such
stretches spreads by 15-30 % between runs of the same code.

``SpeedProbe`` samples that speed from inside the measured process: every
``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs a fixed piece of Python
work (integer arithmetic, tuple building and dict updates, like the scans'
inner loops) and records how long it took.  The samples interleave with the
measured code on the same CPU, so they see the same stretches.  A stretch's
slowdown is the 10 %-trimmed mean of its samples divided by ``REF_NS``, and a
time measured over it is reported as

    (measured time - time spent in probes) / slowdown

that is, in seconds of a CPU on which one probe takes ``REF_NS``.  A change
that makes ``gcr`` do more or slower work still raises the normalised time;
a change of the host's speed does not.  The probes cost about 2 % of the
wall time and are subtracted.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

INTERVAL_S = 0.05
REF_NS = 1_000_000
TRIM = 0.1
BURST = 10

_clock = time.perf_counter_ns


def _probe_work() -> int:
    total = 0
    for i in range(6000):
        total += i * i % 7
    table: dict = {}
    for i in range(1500):
        key = (i & 63, i % 5)
        table[key] = table.get(key, 0) + len(key)
    return total + len(table)


class SpeedProbe:
    """Samples the probe's duration every ``INTERVAL_S`` once started."""

    def __init__(self):
        self.samples = array("q")

    def _sample(self, *_) -> None:
        t0 = _clock()
        _probe_work()
        self.samples.append(_clock() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def burst(self) -> None:
        """Take ``BURST`` samples back to back, for a stretch too short to
        hold enough timed ones."""
        for _ in range(BURST):
            self._sample()

    def spent_s(self, count: int) -> float:
        """Seconds spent in the first ``count`` samples."""
        return sum(self.samples[:count]) / 1e9

    def slowdown(self) -> float:
        """Trimmed mean probe duration of all samples, over ``REF_NS``."""
        window = sorted(self.samples)
        cut = int(len(window) * TRIM)
        return statistics.fmean(window[cut:len(window) - cut]) / REF_NS
