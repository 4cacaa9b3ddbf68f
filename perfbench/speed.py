"""Machine-speed probe that makes run times comparable across noisy periods.

On a shared host the same single-threaded work runs in two speed regimes
about 1.8 times apart, switching every few seconds to tens of seconds. On
a 2-core x86 sandbox (Python 3.11, numpy 2.4.6, one BLAS thread) one UNGM
A-EDH run took 29 ms in one regime and 55 ms in the other, and 35-second
benchmark runs on five seeds gave raw median times up to 1.6 times apart.
Process CPU time tracks wall time there, so the slow regime is a slower
CPU, not lost time slices.

So the benchmark times a fixed probe just before and just after every
measured call and rescales the call's wall time to the speed at which the
probe takes REFERENCE_MS: normalized = wall * REFERENCE_MS / probe_ms.
Over 35-second windows of a 110-second UNGM trace, the interquartile
spread of per-window medians was 2-8% rescaled and 22-32% raw. The slow
regime hurts numpy calls on tiny arrays most and pure interpreter loops
least, so the probe is made of the kinds of work pflow does: numpy calls
on one-element arrays, 100-vector products and 100x100 BLAS/LAPACK calls.
It uses nothing from pflow, so no change to pflow moves it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The probe's time in the fast regime of the sandbox above, so normalized
# figures read as uncontended milliseconds on that machine.
REFERENCE_MS = 1.9

_PROBE_REPEATS = 3


class SpeedProbe:
    """Fixed calibration work, timed around each measured call."""

    def __init__(self, np) -> None:
        rng = np.random.default_rng(0)
        self._np = np
        self._x = np.array([0.3])
        self._a = rng.standard_normal((100, 100))
        self._v = rng.standard_normal(100)
        self._spd = self._a @ self._a.T + 100.0 * np.eye(100)

    def _once(self) -> float:
        np, x = self._np, self._x
        start = perf_counter()
        acc = 0.0
        for k in range(150):  # one-element arrays, like the UNGM callbacks
            y = np.array([0.5 * x[0] + 25.0 * x[0] / (1.0 + x[0] * x[0]) + np.cos(1.2 * k)])
            acc += float((np.atleast_2d(y) @ np.ones((1, 1)))[0, 0])
            acc += float(np.ones((5, 1)).mean(axis=0)[0])
        for _ in range(100):  # 100-vectors, like the coupled transition
            acc += float((self._a @ self._v)[0])
        for _ in range(2):  # dense 100x100 algebra, like the EKF
            acc += float((self._a @ self._a)[0, 0])
            acc += float(np.linalg.cholesky(self._spd)[0, 0])
        return (perf_counter() - start) * 1e3

    def probe_ms(self) -> float:
        """Median of a few probe timings, in ms."""
        return statistics.median(self._once() for _ in range(_PROBE_REPEATS))

    def measure(self, fn, *args, **kwargs):
        """Call fn once; return (result, wall seconds, normalized seconds)."""
        before = self.probe_ms()
        start = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - start
        return result, wall, self.normalize(wall, before, self.probe_ms())

    @staticmethod
    def normalize(wall: float, before_ms: float, after_ms: float) -> float:
        """Wall time rescaled to the speed at which the probe takes REFERENCE_MS."""
        return wall * REFERENCE_MS / (0.5 * (before_ms + after_ms))
