"""The host's speed, measured by a fixed probe between timed calls.

The benchmark's host gives its vCPUs two speeds: for spells of a second
to many minutes every pure-Python loop takes about 1.9 times as long as
in the other spells, on either vCPU, with CPU time tracking wall time
(so no clock inside the process removes it), and within a slow spell
the speed still flickers.  The probe is a fixed piece of stdlib work of
the same kind as the verifier's (Fraction row reduction, dict
polynomial products, small lists), independent of the package, so that
no change to the package moves it.  It runs between every two timed
calls; a call's time is scaled by the mean probe time over the call and
WINDOW_S on either side: ``scaled = raw * REFERENCE_MS / probe``.

The mean over a window, rather than the probe next to the call, follows
a measurement of 1560 library calls across both spells: scaling by the
best of five probe runs before and after the call over-corrected (a
residual slope of -0.29 in log time against log probe time), the mean
of five runs over +-0.5 s left -0.01 and halved the spread of the
unscaled times.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

# About the probe's time (mean of PROBE_REPEATS) on a 2-core x86 VM
# (Intel Xeon at 2.0 GHz, Python 3.11.7) in its fast spell; scaled times
# are thus close to milliseconds of that host at its fast speed.
REFERENCE_MS = 0.45
PROBE_REPEATS = 5
WINDOW_S = 0.5


def _work():
    n = 6
    A = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c] != 0), None)
        if p is None:
            continue
        A[c], A[p] = A[p], A[c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    p = {(0, 0): 1, (1, 0): 2, (0, 1): -3, (1, 1): 1}
    q = dict(p)
    for _ in range(3):
        out: dict = {}
        for (a, b), x in p.items():
            for (c, d), y in q.items():
                out[(a + c, b + d)] = out.get((a + c, b + d), 0) + x * y
        p = out
    return A, p


def probe_ms() -> float:
    """The probe's time now: the mean of a few runs, in ms."""
    clock = time.perf_counter
    t0 = clock()
    for _ in range(PROBE_REPEATS):
        _work()
    return (clock() - t0) * 1000.0 / PROBE_REPEATS


class Series:
    """Probe times taken through a run, and the scale they give a call."""

    def __init__(self):
        self.at: list[float] = []
        self.ms: list[float] = []

    def sample(self):
        self.at.append(time.perf_counter())
        self.ms.append(probe_ms())

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the mean probe time from WINDOW_S before
        start to WINDOW_S after end."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        window = self.ms[lo:hi]
        return REFERENCE_MS * len(window) / sum(window)
