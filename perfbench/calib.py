"""Host-speed calibration: a fixed pure-Python loop timed next to the work.

On a shared host the speed of one vCPU drifts by tens of percent within
seconds, and runs minutes apart differ by more than any change worth
measuring.  The drift is shared by work done at nearly the same moment, so
the benchmark times this loop between operations and scales each
operation's wall time by ``REF_S / (loop time around it)``.  A scaled time
reads as the wall time on a host where the loop takes ``REF_S``; on the
reference host (README.md) scaled and wall times agree on average.

The loop uses only the standard library and none of the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 0.0070           # median loop time on the reference host


def _loop():
    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i % 97, i % 13 + 1)
        table[i % 101] = acc.numerator % 1000
    return acc, table


def measure() -> float:
    """Seconds taken by one calibration loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0

