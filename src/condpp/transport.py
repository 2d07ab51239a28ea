"""Exact assignment and balanced transport on small cost matrices.

scipy's Hungarian-family solver handles rectangular matrices directly: it
matches every index of the smaller side and returns the pairs ordered by
row.  It is exact; tests compare against brute-force enumeration.

This is the one module that imports scipy.optimize, and it does so at the
first solve, not at import: a process that never solves an assignment (the
chain, count estimators, d-bar-1 on the unit line, the samplers) never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Matching", "check_cost_matrix", "solve_assignment", "solve_balanced_transport"]

# Entries may overshoot [0, 1] by rounding noise only.
_ENTRY_TOL = 1e-9


@dataclass(frozen=True)
class Matching:
    """Injective matching of the smaller index set into the larger.

    pairs holds (row, col) index pairs into the original cost matrix; every
    index on the smaller side appears exactly once, in row order.  cost is
    the exact sum of the matched entries.
    """

    pairs: tuple[tuple[int, int], ...]
    cost: float
    n_rows: int
    n_cols: int

    @property
    def mean_cost(self) -> float:
        """cost averaged over matched pairs; 0 when nothing is matched."""
        return self.cost / len(self.pairs) if self.pairs else 0.0


def linear_sum_assignment(costs):
    """scipy.optimize.linear_sum_assignment, imported by the first call.

    The import rebinds this module global to scipy's function, so every
    later transport.linear_sum_assignment call goes straight to scipy.
    """
    global linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(costs)


def check_cost_matrix(costs) -> np.ndarray:
    """Validate and return an (r, c) float cost matrix with entries in [0, 1]."""
    arr = np.asarray(costs, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError("cost matrix must be 2-d and non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cost matrix entries must be finite")
    if arr.min() < -_ENTRY_TOL or arr.max() > 1.0 + _ENTRY_TOL:
        raise ValueError("cost matrix entries must lie in [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def solve_assignment(costs) -> Matching:
    """Minimum-cost injection of the smaller index set into the larger."""
    arr = check_cost_matrix(costs)
    rows, cols = linear_sum_assignment(arr)
    pairs = tuple((int(i), int(j)) for i, j in zip(rows, cols))
    cost = math.fsum(arr[i, j] for i, j in pairs)
    return Matching(pairs=pairs, cost=cost, n_rows=arr.shape[0], n_cols=arr.shape[1])


def solve_balanced_transport(costs) -> Matching:
    """Optimal transport between uniform weights on two equal-size sets.

    With uniform marginals an optimal plan is a permutation, so this is the
    square assignment problem; mean_cost of the result is the transport value.
    """
    shape = np.shape(costs)
    if len(shape) == 2 and shape[0] != shape[1]:
        raise ValueError("balanced transport requires a square cost matrix")
    return solve_assignment(costs)
