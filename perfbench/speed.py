"""Pass wall time rescaled to a reference host speed.

The benchmark runs on shared virtual machines whose speed drifts: the same
pass, in the same process, with nothing else running in the machine, takes
anywhere from 2.0 to 3.7 s, and the drift lasts from seconds to minutes.
CPU time drifts with it (the host, not the guest's scheduler, is slower), so
neither longer runs nor CPU time remove it.

So an untraced pass is timed in segments.  A timer signal (``SIGALRM``,
``PERIOD_S`` of wall time after the last one) interrupts the pass between
two Python bytecodes, and its handler times a fixed calibration loop: pure
interpreter work, numpy calls on a small array, ``sin`` over a 1 MiB array
and a pass over a 4 MiB one, the kinds of work nozzleflow does.  The
calibration's own time is not counted.  Each segment's wall time is
multiplied by ``REF_CAL_S`` over the mean of the two calibration times that
bracket it, which rescales it to a host on which the calibration loop takes
``REF_CAL_S``.

``wall_s`` is the plain sum of the segments; ``wall_ref_s`` the rescaled sum.
Set-up time is rescaled the same way, by a calibration at the start of the
child process (once numpy is imported) and one at the end of set-up.
The calibration's arrays stay resident in every benchmark child; they come
to ``RESIDENT_MIB``, which the child takes off its peak resident set.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.3        # wall time between calibrations
REF_CAL_S = 0.026     # the calibration loop's time on the reference host
_PY_ITERS, _SMALL_ITERS, _SIN_ITERS, _STREAM_ITERS = 100_000, 1_000, 4, 16
# every array is written here, so all of it is resident from the start
_SMALL = np.linspace(0.0, 1.0, 64)
_SIN_IN = np.linspace(0.0, 1.0, 1 << 17)       # 1 MiB
_SIN_OUT = np.linspace(0.0, 1.0, 1 << 17)      # 1 MiB
_STREAM = np.linspace(0.0, 1.0, 1 << 19)       # 4 MiB
RESIDENT_MIB = (_SMALL.nbytes + _SIN_IN.nbytes + _SIN_OUT.nbytes
                + _STREAM.nbytes) / 2.0 ** 20


def calibrate() -> float:
    """Seconds the fixed calibration loop takes on the host right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_PY_ITERS):
        acc += i * i % 7
    a = _SMALL
    for _ in range(_SMALL_ITERS):
        a = np.sqrt(a * a + 1.0)
        a = a - np.floor(a)
    for _ in range(_SIN_ITERS):
        np.sin(_SIN_IN, out=_SIN_OUT)
    for _ in range(_STREAM_ITERS):
        np.multiply(_STREAM, 1.0, out=_STREAM)
    return time.perf_counter() - t0


def rescale(seconds: float, cal_a: float, cal_b: float) -> float:
    """Wall seconds between two calibrations, on the reference host."""
    return seconds * 2.0 * REF_CAL_S / (cal_a + cal_b)


class SpeedClock:
    """Context manager that times its body in calibrated segments."""

    def __init__(self):
        self.segments: list[float] = []
        self.cals: list[float] = []
        self._running = False
        self._mark = 0.0
        self._prev_handler = None

    def __enter__(self):
        self.cals.append(calibrate())
        self._prev_handler = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def _tick(self, signum, frame):
        if not self._running:
            return
        self.segments.append(time.perf_counter() - self._mark)
        self.cals.append(calibrate())
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __exit__(self, *exc):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.segments.append(time.perf_counter() - self._mark)
        self.cals.append(calibrate())
        signal.signal(signal.SIGALRM, self._prev_handler)
        return False

    @property
    def wall_s(self) -> float:
        return sum(self.segments)

    @property
    def wall_ref_s(self) -> float:
        return sum(rescale(seg, c0, c1) for seg, c0, c1
                   in zip(self.segments, self.cals, self.cals[1:]))
