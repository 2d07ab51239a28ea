"""Configuration distances: exact d-bar-1 and empirical d-bar-2.

d1_bar(xi, eta) matches the smaller configuration injectively into the larger
at minimum ground cost, charges 1 per unmatched point, and normalizes by the
larger size; it is a metric bounded by 1 on finite configurations, and a
function of the two point multisets alone: neither point order nor operand
order moves a bit of it.  One routine per ground space computes it: the
sorted-matching DP below on the unit line (groundspace.is_unit_line), else
scipy's rectangular Hungarian solver, whose first solve loads scipy.optimize.

d2_bar is the induced Wasserstein-type distance between point process laws;
it is estimated from equal-size samples by balanced empirical transport with
ground cost d1_bar, which is an upward-biased estimator (bias decays as the
sample size grows; calibrate with matched self-distance runs).  On the unit
line d0(x, y) = |x - y|, a Monge cost, so an optimal injection is monotone
once both configurations are sorted (Aggarwal et al., FOCS 1992), and one
column DP per configuration size matches all configurations of that size
against all those at least as large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport
from .groundspace import Configuration, GroundSpace, is_unit_line
from .transport import solve_balanced_transport

__all__ = ["d1_bar", "d2_bar_empirical", "D2Estimate"]


def _d1_locs(a: np.ndarray, b: np.ndarray, space: GroundSpace) -> float:
    """d1_bar from two location arrays, each in lexicographic point order (_lex).

    Size puts the smaller side first, and equal sizes break on the raw bytes,
    so every order of the same two multisets runs one computation, bit for bit.
    """
    if a.shape[0] > b.shape[0] or (a.shape[0] == b.shape[0] and a.tobytes() > b.tobytes()):
        a, b = b, a
    m, n = a.shape[0], b.shape[0]
    if n == 0:
        return 0.0
    if m == 0:
        return 1.0
    if is_unit_line(space):
        return float(_line_rows(a.T, b.T, np.array([n]))[0, 0])
    costs = space.pairwise(a, b)
    # Looked up on transport at each call: its first solve imports
    # scipy.optimize and rebinds the name to scipy's solver.
    rows, cols = transport.linear_sum_assignment(costs)
    w = float(costs[rows, cols].sum())
    return (w + (n - m)) / n


def _lex(x: np.ndarray) -> np.ndarray:
    return x[np.lexsort(x.T[::-1])]


def d1_bar(xi: Configuration, eta: Configuration, space: GroundSpace) -> float:
    """Normalized minimum-cost matching distance between two configurations
    of the space; a point off the space, or NaN, is refused."""
    space.check(xi, "configuration")
    space.check(eta, "configuration")
    return _d1_locs(_lex(xi.locations), _lex(eta.locations), space)


@dataclass(frozen=True)
class D2Estimate:
    """Empirical d-bar-2 value with its provenance and bias flag."""

    estimate: float
    n_samples: int
    seed: int | None = None
    note: str = "empirical-transport upper-biased"


def _rows_block(space: GroundSpace, p_locs: list, q_locs: list) -> np.ndarray:
    out = np.empty((len(p_locs), len(q_locs)))
    q_locs = [_lex(b) for b in q_locs]  # each configuration sorted once, not once a pair
    for i, a in enumerate(map(_lex, p_locs)):
        for j, b in enumerate(q_locs):
            out[i, j] = _d1_locs(a, b, space)
    return out


def _padded_by_size(locs: list) -> tuple:
    """(order, sizes, rows) by size; rows are sorted coordinates padded with +inf.
    Refuses another dimension, and a coordinate off [0, 1] or NaN, before any DP."""
    if any(a.shape[1] != 1 for a in locs):
        raise ValueError("configuration dimension does not match the ground space")
    sizes = np.array([a.shape[0] for a in locs], dtype=np.intp)
    order = np.argsort(sizes, kind="stable")
    rows = np.full((len(locs), sizes.max(initial=0)), np.inf)
    coords = np.concatenate([*(locs[i][:, 0] for i in order), np.empty(0)])
    if not ((coords >= 0.0) & (coords <= 1.0)).all():
        raise ValueError("configuration points must lie in the space")
    rows[np.arange(rows.shape[1]) < sizes[order, None]] = coords
    return order, sizes[order], np.sort(rows, axis=1)


def _line_rows(small: np.ndarray, large: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """d1_bar on the unit line for every (row of small, row of large) pair.

    small holds sorted rows of m points, large sorted rows of ascending sizes
    >= m padded with +inf.  The optimal injection is monotone, so d[i] after
    column j is the least cost of the first i small points within the first
    j + 1 large points.  Column j updates only the rows i that can still
    reach m and the large rows with a point there.  An empty pair is 0 / 1.
    """
    m, n_cols = small.shape[1], large.shape[1]
    if len(small) > 1 and len(small) * len(large) * (m + 1) > 1 << 21:  # d stays below 16 MB
        return np.vstack([_line_rows(half, large, sizes) for half in np.array_split(small, 2)])
    d = np.full((m + 1, len(small), len(large)), np.inf)
    d[0] = 0.0
    for j, a in enumerate(np.searchsorted(sizes, np.arange(n_cols if m else 0), "right")):
        lo, hi = max(0, m - (n_cols - j)), min(j + 1, m)
        step = np.abs(small.T[lo:hi, :, None] - large[a:, j])
        live = d[lo + 1 : hi + 1, :, a:]
        np.minimum(live, d[lo:hi, :, a:] + step, out=live)
    return (d[m] + (sizes - m)) / np.maximum(sizes, 1)


def _line_matrix(p: tuple, q: tuple) -> np.ndarray:
    """d1_bar on the unit line between the (order, sizes, rows) triples of
    _padded_by_size, in the operands' order; one DP per configuration size.

    Each pair runs with its smaller side as the small rows (p's at equal
    sizes, where |a - b| = |b - a|), so swapping p and q transposes; blocks
    with q as the small side are written through the view out.T.
    """
    out = np.empty((len(p[0]), len(q[0])))
    pairs = ((p, q, out, "left"), (q, p, out.T, "right"))
    for (_, sizes, rows), (_, big_sizes, big_rows), view, side in pairs:
        for m in dict.fromkeys(sizes.tolist()):  # np.unique would load numpy.ma
            small = slice(*np.searchsorted(sizes, [m, m + 1]))
            at = np.searchsorted(big_sizes, m, side)
            if at < len(big_sizes):
                view[small, at:] = _line_rows(rows[small, :m], big_rows[at:], big_sizes[at:])
    return out[np.ix_(np.argsort(p[0]), np.argsort(q[0]))]


def pairwise_d1_matrix(
    ps: list[Configuration],
    qs: list[Configuration],
    space: GroundSpace,
    workers: int = 1,
) -> np.ndarray:
    """Cost matrix costs[i, j] = d1_bar(ps[i], qs[j]).

    On the unit line (groundspace.is_unit_line) the whole matrix comes from
    one sorted-matching DP per configuration size in this process, within
    rounding of the Hungarian solves.  In any other space each pair is a
    Hungarian solve, and only then do rows fan out to `workers` processes.
    Either way the matrix does not depend on `workers`, and a point off the
    space, or NaN, is refused before any solve.
    """
    p_locs = [p.locations for p in ps]
    q_locs = [q.locations for q in qs]
    if is_unit_line(space):
        return _line_matrix(_padded_by_size(p_locs), _padded_by_size(q_locs))
    for cfg in (*ps, *qs):
        space.check(cfg, "configuration")
    if workers <= 1 or len(ps) < 2 * workers:
        return _rows_block(space, p_locs, q_locs)
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    blocks = np.array_split(np.arange(len(ps)), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futs = [
            pool.submit(_rows_block, space, [p_locs[i] for i in idx], q_locs)
            for idx in blocks
            if len(idx)
        ]
        parts = [f.result() for f in futs]
    # Blocks are combined in submission order, so the matrix is identical
    # for any worker count.
    return np.vstack(parts)


def d2_bar_empirical(
    ps: list[Configuration],
    qs: list[Configuration],
    space: GroundSpace,
    workers: int = 1,
    seed: int | None = None,
) -> D2Estimate:
    """Balanced empirical transport between two equal-size config samples.

    seed is provenance only (the master seed that generated the samples, when
    known); the computation itself is deterministic in the inputs.
    """
    if len(ps) == 0 or len(ps) != len(qs):
        raise ValueError("need two non-empty samples of equal size")
    costs = pairwise_d1_matrix(ps, qs, space, workers=workers)
    plan = solve_balanced_transport(costs)
    return D2Estimate(estimate=plan.mean_cost, n_samples=len(ps), seed=seed)
