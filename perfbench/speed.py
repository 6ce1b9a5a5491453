"""Op times at a reference CPU speed.

The benchmark's host shares its cores with other machines' work, and the
speed one process gets changes by up to a factor of two every few
seconds.  Raw times of the same op then differ more from run to run than
any bound a change could be held to.  A ProbeClock measures that speed
while the op runs: an interval timer interrupts the timed code every
INTERVAL_S of wall time and runs a fixed probe (exact rational arithmetic
in plain Python, like liecoh's own inner loops) and records how long it
took.  The time of a span of work is

    (elapsed wall time - time spent in probes) * mean(REFERENCE_S / probe)

over the probes that ran inside it: each interval of wall time is counted
at the speed its probe saw.  A change to liecoh does not change the probe,
so it shows in full; a busy neighbour slows the probe as much as the op
and cancels out.  REFERENCE_S only sets the scale: it is about the
probe's median duration on a 2-vCPU Intel Xeon VM with Python 3.11, so
the times read as seconds on that machine at its usual speed.

The raw elapsed time is kept beside the scaled one, so both can be read
from the run's detail file.
"""

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
REFERENCE_S = 0.0007
PROBE_TERMS = 200
# a span that saw fewer probes than this borrows the latest ones before it
MIN_PROBES = 3


def probe():
    acc = Fraction(0)
    for i in range(1, PROBE_TERMS):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return acc


class ProbeClock:
    """Runs the probe on a wall-clock timer while it is entered.

    Use as `with ProbeClock() as clock:` around all timed work; then
    `clock.time(fn)` returns (raw seconds, scaled seconds, fn's result).
    """

    def __init__(self):
        self.samples = []  # (end of probe, probe seconds)
        self._old = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def __enter__(self):
        for _ in range(MIN_PROBES):
            self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self, start, end):
        """(seconds spent in probes, speed factor) for the span [start, end]."""
        inside = [s for s in self.samples if start <= s[0] - s[1] and s[0] <= end]
        probe_s = sum(d for _, d in inside)
        if len(inside) < MIN_PROBES:
            inside = [s for s in self.samples if s[0] <= end][-MIN_PROBES:]
        if not inside:
            return probe_s, 1.0
        return probe_s, sum(REFERENCE_S / d for _, d in inside) / len(inside)

    def time(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        probe_s, factor = self.scale(start, end)
        return end - start, (end - start - probe_s) * factor, result
