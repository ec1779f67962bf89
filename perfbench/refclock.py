"""Reference clock: fixed work timed next to every op.

The effective speed of a small shared virtual machine drifts by 15-45 %
between runs made minutes apart, and by 10-20 % from second to second,
while steal time stays near zero.  Wall-clock latencies of the same ops
therefore spread more between runs than any useful regression bound.

The closed loop runs a *reference* right after each op: fixed work of
the same kind as the op, which no change to momentlab can make cheaper
or dearer.  The time of the references around an op says how fast the
machine ran then.  An op's *reference latency* is its wall-clock
latency scaled to the speed at which the reference takes its nominal
time:

    reference latency = wall latency * nominal reference time / local reference time

where the local reference time is the mean over the op's neighbours in a
window of about two seconds.  Scaling only works with a reference that
slows down together with the op, so there are two kinds:

- ``Block``: Bareiss determinants of one 6 x 6 Fraction matrix in plain
  standard-library code, for ops that run exact arithmetic in process.
  On the build machine, op time over block time for the same
  atomic_singular ops had a quartile spread of 4 % of its median over
  1.5 s passes, against 11-15 % for the op time itself.
- ``Spawn``: a fresh interpreter that imports numpy, for ops that are a
  fresh CLI process (interpreter start and extension-module imports).
  Over 10 s passes of CLI ops, op time over spawn time spread 3 %, op
  time over block time 6 % and the op time itself 7 %.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction

#: Wall-clock seconds of ops on each side of an op whose references set
#: its local speed.
HALF_WINDOW_S = 1.0

_MATRIX = tuple(tuple(Fraction(i * 7 + j * 3 + 1, (i + 2) * (j + 1) + 1) for j in range(6))
                for i in range(6))


def _det(matrix):
    """Fraction-free (Bareiss) elimination; returns the determinant."""
    m = [list(row) for row in matrix]
    n = len(m)
    prev = Fraction(1)
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return m[-1][-1]


class Block:
    """``units`` determinants in process."""

    #: Seconds one determinant takes at reference speed: about the median
    #: on the 2-vCPU machine the benchmark was built on.
    UNIT_NOMINAL_S = 0.0006

    def __init__(self, units):
        self.units = units
        self.nominal_s = units * self.UNIT_NOMINAL_S

    def __call__(self):
        """Run the reference once; return its seconds."""
        t0 = time.perf_counter()
        for _ in range(self.units):
            _det(_MATRIX)
        return time.perf_counter() - t0


class Spawn:
    """A fresh interpreter that imports numpy and exits.

    Its peak memory is below that of any CLI process that imports numpy,
    so it does not change the largest CLI process's peak_rss_mb.
    """

    #: Seconds it takes at reference speed: about the median on the
    #: 2-vCPU machine the benchmark was built on.
    nominal_s = 0.23

    def __call__(self):
        """Run the reference once; return its seconds."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=60)
        return time.perf_counter() - t0


def scale(latencies, times, nominal_s):
    """Reference latencies of ops run in this order.

    ``latencies[i]`` is op i's wall-clock seconds and ``times[i]`` the
    seconds of the reference run right after it, which takes
    ``nominal_s`` at reference speed.
    """
    if not latencies:
        return []
    typical = sorted(latencies)[len(latencies) // 2]
    half = max(1, math.ceil(HALF_WINDOW_S / max(typical, 1e-9)))
    prefix = [0.0]
    for t in times:
        prefix.append(prefix[-1] + t)
    out = []
    for i, latency in enumerate(latencies):
        lo, hi = max(0, i - half), min(len(times), i + half + 1)
        local = (prefix[hi] - prefix[lo]) / (hi - lo)
        out.append(latency * nominal_s / local)
    return out
