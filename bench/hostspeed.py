"""Host-speed sampling: converts measured wall time to time at reference speed.

On a shared host, other tenants slow every kind of code by up to 1.7x, in
bursts from a second to minutes long, and process CPU time slows with wall
time.  While a `Sampler` runs, a SIGALRM every PERIOD_S interrupts the
process and times a fixed pure-Python loop; the loop depends on nothing in
autrep.  A measured interval is then corrected in two steps:

- the time spent in the sampler's handler is taken out of it;
- the rest is scaled by REF_S over the median loop time sampled in the
  interval (and at its two ends), i.e. converted to the speed at which the
  loop takes REF_S.

Python runs the handler between bytecodes of the main thread, so a long
call into numpy defers a sample until the call returns; such an interval
gets fewer samples, not wrong ones.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 20_000
# The loop's time on the unloaded reference host (its fastest 5% of samples).
REF_S = 0.0013
PERIOD_S = 0.05


def loop_seconds() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class Sampler:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent taking samples
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a signal that lands inside a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(loop_seconds())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        """Start of an interval; the last sample taken counts as its first."""
        return max(len(self.samples) - 1, 0), self.spent, time.perf_counter()

    def corrected(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(wall seconds, seconds at reference speed) since `mark`; takes the
        interval's closing sample, so call it right where the interval ends."""
        first, spent0, t0 = mark
        wall = time.perf_counter() - t0
        busy = wall - (self.spent - spent0)
        self.sample()
        return wall, busy * REF_S / statistics.median(self.samples[first:])
