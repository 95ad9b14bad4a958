"""Times scaled to a reference machine speed, against a shared host's drift.

On a shared host the speed of a core drifts by about ±15% over tens of
seconds, with CPU time tracking wall time (so it is not descheduling).
Runs of identical code then differ by more than a regression bound. A
``Clock`` therefore runs a short fixed calibration between items, at
least every ``interval_s``, and scales each stretch of work between two
calibrations by ``ref_s`` over the mean of those two calibrations. A
scaled time reads as seconds on a machine where the calibration takes
``ref_s``; the calibrations themselves are not part of any time. Raw
times stay available for the run metadata.

There are two calibrations, one for each kind of work: a pure-Python
loop for work inside one interpreter, and the start of a bare
interpreter for work that is mostly process start and imports.
"""

import subprocess
import sys
from bisect import bisect_right
from time import perf_counter

CAL_LOOPS = 200_000
REF_CAL_S = 0.020
INTERVAL_S = 0.3

REF_SPAWN_S = 0.080
SPAWN_INTERVAL_S = 0.5


def calibrate():
    """Seconds this core takes for the fixed calibration loop."""
    start = perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return perf_counter() - start


def calibrate_spawn():
    """Seconds to start and end ``python -c pass`` with this environment."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


class Clock:
    """Raw clock readings plus the calibrations taken between them.

    Call ``tick()`` between items and ``stop()`` after the last; an item's
    readings must not enclose a calibration.
    """

    def __init__(self, calibrate=calibrate, ref_s=REF_CAL_S,
                 interval_s=INTERVAL_S, enabled=True):
        self.enabled = enabled
        self._probe, self._ref_s = calibrate, ref_s
        self._interval_s = interval_s
        self._starts, self._ends, self._cals = [], [], []
        self._calibrate()

    def _calibrate(self):
        start = perf_counter()
        cal = self._probe() if self.enabled else self._ref_s
        self._starts.append(start)
        self._ends.append(perf_counter())
        self._cals.append(cal)

    def tick(self):
        if self.enabled and perf_counter() - self._ends[-1] >= self._interval_s:
            self._calibrate()

    def stop(self):
        self._calibrate()

    def _factor(self, k):
        """Scale of the stretch between calibrations k and k + 1."""
        return self._ref_s / ((self._cals[k] + self._cals[k + 1]) / 2)

    def scaled(self, t0, t1):
        """Scaled length of the item read as t0..t1."""
        k = bisect_right(self._ends, t0) - 1
        return (t1 - t0) * self._factor(k)

    def raw_wall(self):
        """Seconds from the first calibration to the last, less calibrations."""
        return sum(self._starts[k + 1] - self._ends[k]
                   for k in range(len(self._cals) - 1))

    def wall(self):
        """``raw_wall`` with each stretch scaled."""
        return sum((self._starts[k + 1] - self._ends[k]) * self._factor(k)
                   for k in range(len(self._cals) - 1))

    def calibrations(self):
        return len(self._cals)
