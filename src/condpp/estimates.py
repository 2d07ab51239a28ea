"""Shared result container for Monte Carlo estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with a standard error and its provenance.

    capped counts replicas that hit an event budget and contributed a
    truncated, worst-case-inflated value; consumers decide whether the
    capped fraction is tolerable (verification requires < 1e-3).
    """

    estimate: float
    se: float
    replicas: int
    seed: int
    capped: int = 0

    @classmethod
    def from_sample(cls, values, seed: int, replicas: int | None = None, capped: int = 0):
        """Mean and standard error std(ddof=1)/sqrt(n) of a sample array of n >= 2."""
        se = values.std(ddof=1) / math.sqrt(values.size)
        return cls(float(values.mean()), float(se), replicas or values.size, seed, capped)

    @property
    def capped_fraction(self) -> float:
        return self.capped / self.replicas if self.replicas else 0.0
