"""A sampler of the host's current speed, taken while the program runs.

The machines this benchmark runs on share their cores with other tenants:
a fixed pure-Python loop ranges over +-30 % within seconds and drifts by
more over an hour, so raw times of the same code move by more than any
useful bound.  While a run is measured, an interval timer interrupts the
main thread every ``INTERVAL_S`` and a signal handler times a fixed probe:
a small piece of interpreter work of the kind homoperad does (tuples,
dicts, Fractions), independent of homoperad, so a change to the program
cannot move it.  The probe runs twice and only the second, warm run is
timed, so the program's own cache footprint moves it little.
``NOMINAL_S / probe`` is the host's speed at that moment
relative to nominal; a round's time is scaled by the mean speed sampled
during the round, which gives the time it would have taken at nominal
speed.  Time spent in the handler is excluded from the program's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# A fixed probe time near the probe's median on a 2-vCPU Xeon VM with
# Python 3.11, so scaled times read close to the raw times there.
NOMINAL_S = 0.00020
INTERVAL_S = 0.02


def probe() -> None:
    d = {}
    acc = Fraction(0)
    for i in range(500):
        k = (i % 97, i % 89, "m" if i & 1 else "a")
        d[k] = d.get(k, 0) + len(k)
        if i % 50 == 0:
            acc += Fraction(i % 7 + 1, i % 5 + 1)


class HostClock:
    """Samples (time, speed) pairs from an interval timer while started."""

    def __init__(self):
        self.times = []
        self.speeds = []
        self.spent = 0.0  # seconds spent inside the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()  # warms the caches the program has just used
        t1 = time.perf_counter()
        probe()
        t2 = time.perf_counter()
        self.times.append(t2)
        self.speeds.append(NOMINAL_S / (t2 - t1))
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        """Mean sampled speed between two perf_counter readings."""
        window = [s for t, s in zip(self.times, self.speeds) if since <= t <= until]
        return statistics.fmean(window or self.speeds)
