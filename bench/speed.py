"""A clock that rescales elapsed time to a reference host speed.

The 2-vCPU host this benchmark was written on runs interpreted code at
speeds that drift between levels up to 2x apart over seconds to minutes
(other tenants share its cores), so raw times of identical runs spread by
15-30%. While the clock runs, a SIGALRM every INTERVAL_S times a fixed
interpreted loop in the main thread (about 1% of the time); each interval of
program time is scaled by REFERENCE_S / (the loop's time right after it).
The sum is the time the program would have taken at the reference speed.
The loop's own time is excluded from both the raw and the rescaled time.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.2
REFERENCE_S = 0.002          # the loop's time at the reference speed
_LOOPS = 4000
_MASK = (1 << 320) - 1


def _step(acc, a, b):
    return ((acc[0] + ((a * b) >> 320)) & _MASK, acc[1] + 1)


def probe(repeat=1):
    """Seconds the fixed loop takes now (mean of `repeat` timings); the loop
    mimics mpmath's inner work: calls, tuples and 320-bit integer arithmetic."""
    a, b = (1 << 319) + 12345, (1 << 318) + 6789
    t = time.perf_counter()
    for _ in range(repeat):
        acc = (0, 0)
        for _ in range(_LOOPS):
            acc = _step(acc, a, b)
    return (time.perf_counter() - t) / repeat


class SpeedClock:
    """Raw and rescaled program time since start(), probe time excluded."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.probes = 0
        self._last = None
        self._busy = False

    def start(self):
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _account(self, repeat):
        self._busy = True
        dt = time.perf_counter() - self._last
        self.raw += dt
        self.scaled += dt * REFERENCE_S / probe(repeat)
        self.probes += repeat
        self._last = time.perf_counter()
        self._busy = False

    def _tick(self, signum, frame):
        # a tick that lands inside a probe is skipped; the next one covers
        # its interval, so nothing is counted twice
        if not self._busy:
            self._account(1)

    def read(self):
        """(raw, rescaled) seconds so far; probes five times, so a phase
        shorter than INTERVAL_S still gets a fair speed estimate."""
        self._account(5)
        return self.raw, self.scaled
