"""A fixed piece of work that tells how fast the machine runs right now.

Other tenants of the host slow every pass by up to a factor of two, in
phases that last from seconds to minutes, so raw pass times spread more
from run to run than the bounds allow.  The worker times this loop right
before and after each pass and each set-up; summary.at_reference_speed
divides the pass by it.  It never changes and calls nothing in condpp, so
the ratio moves with the program and not with the host.  Like the
workloads, it is interpreted Python with small numpy calls.
"""

from __future__ import annotations

import time

import numpy as np

_START = np.linspace(0.0, 1.0, 8)


def reference_loop() -> float:
    table, total = {}, 0.0
    for i in range(20_000):
        total += (i * 0.5) % 7.0
        table[i & 511] = total
    a = _START.copy()
    for _ in range(300):
        a = np.abs(a - a.mean()) + 0.1
        total += float(a.sum())
    return total


def reference_time() -> float:
    """Wall time of one reference loop."""
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t
