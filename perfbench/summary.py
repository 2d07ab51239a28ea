"""The benchmark's arithmetic: host-speed scaling, medians, tails, accuracy.

Pure functions on plain numbers, so the tests can check them without
importing the library under measurement.
"""

from __future__ import annotations

import math
import statistics

# Percentiles tried, highest first, when reporting the tail of a timing.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# A tail percentile is reported only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10

# The reference loop's time (reference.py) on an idle core of the 2-vCPU
# x86-64 host the benchmark was set up on, so that scaled times read as
# seconds on that host at rest.
REFERENCE_S = 0.0043


def tail(values) -> tuple[float, float] | None:
    """(q, value) for the highest percentile with ten samples beyond it.

    Percentiles use the nearest-rank rule: the q-th percentile of n sorted
    samples is the one at rank ceil(q n / 100), and the samples beyond it are
    those ranked after it.  None when no percentile on the ladder qualifies,
    which is every sample count below 20.
    """
    xs = sorted(values)
    n = len(xs)
    for q in _TAIL_LADDER:
        rank = max(1, math.ceil(q * n / 100.0))
        if n - rank >= MIN_SAMPLES_BEYOND:
            return q, xs[rank - 1]
    return None


def at_reference_speed(seconds: float, ref: float) -> float:
    """seconds rescaled to a host on which the reference loop takes REFERENCE_S.

    ref is the reference loop's time measured next to the span timed.
    """
    if not ref > 0.0:
        raise ValueError("a reference time must be positive")
    return seconds * REFERENCE_S / ref


def passes_at_reference_speed(walls, refs) -> list[float]:
    """Each pass rescaled by the mean of the reference times on either side.

    refs holds one reference time before the first pass and one after each,
    so pass i lies between refs[i] and refs[i + 1].
    """
    if len(refs) != len(walls) + 1:
        raise ValueError("need one more reference time than passes")
    return [
        at_reference_speed(wall, (refs[i] + refs[i + 1]) / 2.0)
        for i, wall in enumerate(walls)
    ]


def timing(values) -> dict:
    """Median, tail percentile, sample count and samples of one timing."""
    if not values:
        raise ValueError("a timing needs at least one sample")
    t = tail(values)
    return {
        "median": statistics.median(values),
        "tail_percentile": None if t is None else t[0],
        "tail": None if t is None else t[1],
        "samples": len(values),
        "values": list(values),
    }


def time_to_accuracy(wall_s: float, se_targets) -> float:
    """wall_s times the mean of (se / target)^2 over (se, target) pairs.

    Standard error falls as one over the square root of the work, so this is
    the time the run would need for every result to reach its target SE.
    With no SE-carrying result there is nothing to scale and wall_s stands.
    """
    pairs = list(se_targets)
    if not pairs:
        return wall_s
    if any(not target > 0.0 for _, target in pairs):
        raise ValueError("SE targets must be positive")
    return wall_s * math.fsum((se / target) ** 2 for se, target in pairs) / len(pairs)


def failed_fraction(attempted: int, failed: int) -> float:
    """Share of gated results that failed their gate."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError("need 0 <= failed <= attempted and attempted >= 1")
    return failed / attempted
