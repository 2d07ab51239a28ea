"""Synchronized couplings of conditional immigration-death chains.

One union-race engine drives every estimator: K chains share a single event
clock whose rate is Lambda plus the number of identities alive in at least
one chain.  Immigrations are shared (one fresh identity, one location, added
to every chain); each live identity carries one unit-rate death clock, and
when it fires the identity is removed from every chain that holds it and is
not pinned at its floor.  Identities retained only by floored chains simply
keep their memoryless clock.  Each chain in isolation is then an exact
conditional immigration-death chain, coalescence (identical identity sets)
is absorbing, and chains ordered by inclusion stay ordered.  The tests check
these pathwise properties on a scalar union race that runs one event at a
time (tests/oracles.coupled_chain_events), which the engine matches bit for
bit.

The engine runs all replicas of a battery as one numpy batch, one event a
step.  Each replica reads its own RandomStream, derived from its estimate's
seed and its replica number and seeded together with the rest of its batch,
in a fixed order (event type, then a location or a victim), places an
immigrant with GroundSpace.points from its `dimension` uniforms, and draws
victims from its own live list of chain-membership bitmasks, kept in
swap-remove order, so its path does not depend on the batch it runs in.
Each replica integrates a contrast of a test function:
  delta_h      -mean int f(Z_{xi+a}) - f(Z_xi) dt            (2 chains)
  delta2_h     -mean int f(Z_{xi+a+b}) - f(Z_{xi+a}) - ...   (4 chains)
  h            -mean int f(Z_xi) - f(Z_W) dt, W stationary   (2 chains)
over the jump chain: a state left at event rate q adds its contrast times
1/q, the mean of its holding time given the jump chain, in place of the
contrast times a drawn holding time.  This discrete-time conversion keeps
the mean, does not raise the variance and draws no holding times.
run_coupled_chains is a batch of one that reads on from the caller's
stream and draws a holding time before each event, so its elapsed and
coalescence times are those of the path.  Runs stop at coalescence, where
the contrast vanishes identically, or run to a horizon when given one.
Every estimator honours max_events: replicas hitting the event cap are
flagged and inflated conservatively, and an estimate is refused when every
replica hits it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_lam, _check_m, _upper_tail_sum, poisson_tail_ratio
from .estimates import MCEstimate
from .groundspace import (
    Configuration, GroundSpace, RandomStream, derive_stream, derive_streams, is_unit_line,
)
from .metrics import _d1_locs, _lex, _line_matrix, _padded_by_size
from .simulate import conditional_count_pmf, sample_conditional_poisson

__all__ = [
    "TestFunction",
    "ConstantTestFunction",
    "CountTestFunction",
    "MatchingDistanceTestFunction",
    "reference_test_functions",
    "CoupledRun",
    "run_coupled_chains",
    "estimate_coalescence_time",
    "estimate_delta_h",
    "estimate_delta2_h",
    "estimate_h",
    "estimate_pi_f",
    "stein_residual",
    "stein_residuals",
    "p_survival_analytic",
    "estimate_p_survival",
]

DEFAULT_EVENT_CAP = 10_000
_BATCH_ROWS = 4096
# Uniforms a replica's stream is read ahead by at a time, at the least.
_READ_AHEAD = 64

# Count-based test functions are Lipschitz-checked on this prefix.
_COUNT_CHECK_UPTO = 1000


class TestFunction:
    """Functional on configurations, 1-Lipschitz for the matching distance.

    Subclasses set needs_locations and implement from_count or from_locations;
    calling the object on a Configuration dispatches appropriately.  The
    coupled engine calls from_rows on blocks of chains whose points come in
    no fixed order, so a value must depend on the point multiset alone, bit
    for bit, as d1_bar does.
    """

    needs_locations: bool = True
    label: str = "abstract"

    def from_count(self, count: int) -> float:
        raise NotImplementedError

    def from_locations(self, locations: np.ndarray) -> float:
        raise NotImplementedError

    def from_rows(self, locations: np.ndarray, member: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """f of each row's points locations[r][member[r]], sizes[r] of them; an
        override must equal this loop over from_locations bit for bit."""
        return np.array([self.from_locations(a[m]) for a, m in zip(locations, member)], float)

    def __call__(self, config: Configuration) -> float:
        if self.needs_locations:
            return self.from_locations(config.locations)
        return self.from_count(config.size)


class ConstantTestFunction(TestFunction):
    needs_locations = False

    def __init__(self, value: float = 0.0):
        self.value = float(value)
        self.label = f"constant({self.value})"

    def from_count(self, count: int) -> float:
        return self.value


class CountTestFunction(TestFunction):
    """g(|xi|) for a count rule g with |g(j+1) - g(j)| <= 1/(j+1).

    The increment condition is what 1-Lipschitz continuity for the matching
    distance demands of a count functional; it is checked on construction
    for counts up to 1000, where a value that is not finite fails it.
    """

    needs_locations = False

    def __init__(self, rule, label: str = "count"):
        self.rule = rule
        self.label = label
        values = [rule(j) for j in range(_COUNT_CHECK_UPTO + 1)]
        for j, (a, b) in enumerate(zip(values, values[1:])):
            if not abs(b - a) <= 1.0 / (j + 1) + 1e-12:  # NaN fails too
                raise ValueError(
                    f"count rule violates the Lipschitz increment at j={j}: {a!r} to {b!r}"
                )

    def from_count(self, count: int) -> float:
        return float(self.rule(count))


class MatchingDistanceTestFunction(TestFunction):
    """f(xi) = d1_bar(xi, reference); 1-Lipschitz by the triangle inequality."""

    needs_locations = True

    def __init__(self, reference: Configuration, space: GroundSpace):
        space.check(reference, "reference")
        self.reference = reference
        self._sorted = _lex(reference.locations)
        self._padded = _padded_by_size([reference.locations]) if is_unit_line(space) else None
        self.space = space
        self.label = f"d1_to_reference[{reference.size}]"

    def from_locations(self, locations: np.ndarray) -> float:
        return _d1_locs(_lex(locations), self._sorted, self.space)

    def from_rows(self, locations: np.ndarray, member: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        if self._padded is None:
            return super().from_rows(locations, member, sizes)
        order = np.argsort(sizes, kind="stable")  # one DP call on the unit line
        rows = np.sort(np.where(member, locations[..., 0], np.inf), axis=1)
        block = order, sizes[order], rows[order, : sizes.max(initial=0)]
        return _line_matrix(block, self._padded)[:, 0]


def _default_count_rule(j: int) -> float:
    return min(1.0, j / 10.0)


@functools.cache
def _default_count_function() -> CountTestFunction:
    """The stock count functional, Lipschitz-checked once per process."""
    return CountTestFunction(_default_count_rule, label="count_min(1,j/10)")


def reference_test_functions(space: GroundSpace) -> tuple[TestFunction, ...]:
    """The stock family used by verification batteries and tests.

    References live on the diagonal of the cube so the family is defined for
    any dimension: the empty configuration, a center singleton, and a
    five-point spread, plus a saturating count functional.
    """
    diag = lambda xs: np.array([[x] * space.dimension for x in xs], dtype=float)
    empty = Configuration(np.zeros((0, space.dimension)))
    single = Configuration(diag([0.5]))
    spread = Configuration(diag([0.1, 0.3, 0.5, 0.7, 0.9]))
    return (
        MatchingDistanceTestFunction(empty, space),
        MatchingDistanceTestFunction(single, space),
        MatchingDistanceTestFunction(spread, space),
        _default_count_function(),
    )


@dataclass(frozen=True)
class CoupledRun:
    """Outcome of one coupled simulation."""

    integral: float
    elapsed: float
    events: int
    coalescence_time: float | None
    capped: bool
    final_counts: tuple[int, ...]


def _start(initial, floors, space: GroundSpace) -> tuple[np.ndarray, np.ndarray]:
    """The start row of a list of chains, each checked on the space: chain
    masks (bit c for chain c) and (n, dim) locations.  A point is keyed by
    its coordinates and its copy number among that location's copies in its
    chain, so chains share points by multiset intersection; first seen first."""
    masks = {}
    for c, cfg in enumerate(initial):
        space.check(cfg, f"chain {c}", floors[c])
        copies = {}
        for loc in map(tuple, cfg.locations.tolist()):
            key = loc, copies.setdefault(loc, 0)
            copies[loc] += 1
            masks[key] = masks.get(key, 0) | 1 << c
    return (
        np.array(list(masks.values()), dtype=np.int64),
        np.reshape([loc for loc, _ in masks], (-1, space.dimension)),
    )


def _row(parts) -> tuple[np.ndarray, np.ndarray]:
    """The start row of (locations, chain mask) parts, in the form _start
    gives: the parts' points in part order, each with its part's chain mask.
    Each part's locations are an (n, dim) array."""
    masks = np.repeat([mask for _, mask in parts], [len(locs) for locs, _ in parts])
    return masks, np.concatenate([locs for locs, _ in parts])


def _run_batch(
    starts, streams, floors, space, coefficients, f, *, horizon=None, timed=False, max_events,
):
    """The engine: row r runs from starts[r] on streams[r], all rows in step.

    A start is a row's (chain masks, locations) as _start or _row give them;
    consecutive rows that share one start object are filled together.  Rows
    stop at coalescence, or with a horizon run to it.  An event at rate q
    reads a type uniform, then `dimension` uniforms for a location or one
    for a victim.  Untimed, it adds phi/q to the integral and 1/q to the
    elapsed time, the mean holding time given the jump chain; timed (which
    a horizon needs), it first draws its holding time from one uniform and
    integrates phi over it.  Each row's stream is read ahead in
    blocks, a first block of _READ_AHEAD and then refills as wide as the
    block already held; a batch of one steps its stream back over the unread
    rest, so the stream stands after the run's last draw.  Locations are
    kept only for a location functional (one from_rows call per chain that
    changed), which sees points in live-list order.  Returns per-row integral,
    elapsed, events, coalescence time (NaN if none), capped and final counts.
    """
    k, rows, dim, lam = len(floors), len(starts), space.dimension, space.total_mass
    full, bits = (1 << k) - 1, np.left_shift(1, np.arange(k, dtype=np.int64))
    floor = np.asarray(floors)[:, None]
    coef = np.zeros((k, 1)) if coefficients is None else np.asarray(coefficients, float)[:, None]
    use_f = f is not None and bool(coef.any())
    by_count, keep_locs = use_f and not f.needs_locations, use_f and f.needs_locations
    firsts = [i for i in range(rows) if not i or starts[i] is not starts[i - 1]]
    # A row per quantity, so stopped rows leave by one take per array.  Floats:
    # t, integral, phi, tau, f of each chain.  Ints: stream position, live
    # points, row number, row in the wide arrays U, mask and loc (which shed
    # stopped rows only when they widen), count of each chain.
    F, I = np.zeros((4 + k, rows)), np.zeros((4 + k, rows), dtype=np.int64)
    views = lambda: (*F[:4], F[4:], *I[:4], I[4:])
    t, integral, phi, tau, fvals, pos, nlive, row_id, here, counts = views()
    tau[:] = np.nan
    U = np.stack([s.uniforms(_READ_AHEAD) for s in streams])
    row_id[:] = here[:] = range(rows)
    mask = np.zeros((rows, max(len(starts[i][0]) for i in firsts) + 8), dtype=np.int64)
    loc = np.zeros(mask.shape + (dim,)) if keep_locs else None
    for at, end in zip(firsts, firsts[1:] + [rows]):
        masks, locs = starts[at]
        mask[at:end, : len(masks)], nlive[at:end] = masks, len(masks)
        if keep_locs:
            loc[at:end, : len(masks)] = locs
    counts[:] = ((mask & bits[:, None, None]) != 0).sum(axis=2)
    coalesced = lambda: counts.min(axis=0) == nlive
    lead = int(timed)  # a timed event's holding-time uniform comes first
    table, reads = np.empty(0), np.arange(lead + 2)[:, None]

    def refresh(changed: np.ndarray) -> None:  # location functionals, one call per chain
        for c in range(k):
            rows_c = np.flatnonzero(changed >> c & 1)
            if rows_c.size:
                row, width = here[rows_c], nlive[rows_c].max()
                member = (mask[row, :width] & bits[c]) != 0
                fvals[c, rows_c] = f.from_rows(loc[row, :width], member, counts[c, rows_c])
        rows_changed = changed.nonzero()[0]
        phi[rows_changed] = (coef * fvals[:, rows_changed]).sum(axis=0)

    if keep_locs:
        refresh(np.full(rows, full))
    out_F, out_I = np.zeros_like(F), np.zeros_like(I)
    out_events, out_capped = np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=bool)
    for step in itertools.count():
        if horizon is not None:
            np.copyto(tau, t, where=coalesced() & np.isnan(tau))
        if by_count:  # counts never exceed the mask width
            if table.size <= mask.shape[1]:
                table = np.array([f.from_count(j) for j in range(mask.shape[1] + 1)], dtype=float)
            np.sum(coef * table[counts], axis=0, out=phi)
        done = hold = coalesced() & (horizon is None)
        if step >= max_events:
            out_capped[row_id] = ~hold
            done = np.ones_like(hold)
        else:
            if pos.max() + lead + 1 + max(dim, 1) > U.shape[1] or nlive.max() >= mask.shape[1]:
                wider = lambda a: np.concatenate([a[here], np.zeros_like(a[here])], axis=1)
                U, mask, loc = (a if a is None else wider(a) for a in (U, mask, loc))
                half = U.shape[1] // 2
                U[:, half:] = [streams[r].uniforms(half) for r in row_id.tolist()]
                here[:] = range(here.size)
            u = U[here, pos + reads]
            rate = lam + nlive
            dt = -np.log1p(-u[0]) / rate if timed else 1.0 / rate  # untimed: mean hold 1/q
            if horizon is not None:
                over = ~hold & (t + dt >= horizon)
                integral[over] += (horizon - t[over]) * phi[over]
                t[over] = horizon
                pos += over
                done = hold | over
        if done.any():
            np.copyto(tau, t, where=hold)
            stopped = np.flatnonzero(done)
            rid = row_id[stopped]
            out_F[:, rid], out_I[:, rid], out_events[rid] = F[:, stopped], I[:, stopped], step
            if stopped.size == done.size:
                break
            keep = np.flatnonzero(~done)
            F, I, u, rate, dt = (a.take(keep, -1) for a in (F, I, u, rate, dt))
            t, integral, phi, tau, fvals, pos, nlive, row_id, here, counts = views()
        integral += dt * phi
        t += dt
        imm = u[lead] * rate < lam
        slot = np.where(imm, nlive, np.minimum(u[lead + 1] * nlive, nlive - 1).astype(np.int64))
        old = mask[here, slot]
        drop = old & (bits @ (counts > floor))
        new = np.where(imm, full, old ^ drop)
        mask[here, slot] = new
        counts += imm
        counts -= (drop & bits[:, None]) != 0
        if keep_locs and imm.any():
            into = np.flatnonzero(imm)
            drawn = U[here[into, None], pos[into, None] + lead + 1 + np.arange(dim)]
            loc[here[into], nlive[into]] = space.points(drawn)
        gone = np.flatnonzero(new == 0)
        if gone.size:
            row, last = here[gone], nlive[gone] - 1
            for a in (mask, loc) if keep_locs else (mask,):
                a[row, slot[gone]] = a[row, last]
            mask[row, last], nlive[gone] = 0, last
        nlive += imm
        pos += np.where(imm, lead + 1 + dim, lead + 2)
        if keep_locs:
            refresh(np.where(imm, full, drop))
    if rows == 1:
        streams[0]._unread(U.shape[1] - pos[0])
    return *out_F[[1, 0]], out_events, out_F[3], out_capped, out_I[4:].T


def run_coupled_chains(
    initial: list[Configuration],
    floors: list[int],
    space: GroundSpace,
    stream: RandomStream,
    coefficients: tuple[float, ...] | None = None,
    test_function: TestFunction | None = None,
    horizon: float | None = None,
    max_events: int = DEFAULT_EVENT_CAP,
) -> CoupledRun:
    """Drive K chains through the shared union-race event stream, drawing
    each event's holding time.

    Chains are given as configurations and share points by multiset
    intersection: the k-th copy of a location in one chain is the k-th copy
    in every chain that holds k or more, and the run lists its points first
    seen first over chains 0..K-1.  floors[c] is the floor m
    of chain c; every initial configuration must lie in the space and sit at
    or above its floor, which is checked before any draw.
    The integral accumulated is int sum_c coefficients[c] f(chain c) dt,
    piecewise constant between events, over drawn holding times: an event
    reads a holding-time uniform, then the estimators' draws.  Without a
    horizon the run stops at coalescence; with one it runs to the horizon,
    and the coalescence time is the first time the chains agree.
    """
    if not initial or len(floors) != len(initial):
        raise ValueError("need one floor per chain")
    if horizon is not None:
        horizon = _check_lam(horizon, "horizon")
    if coefficients is not None and len(coefficients) != len(initial):
        raise ValueError("need one coefficient per chain")
    run = _run_batch(
        [_start(initial, floors, space)], [stream], floors, space, coefficients,
        test_function, horizon=horizon, timed=True, max_events=max_events,
    )
    integral, elapsed, events, tau, capped, counts = (a[0] for a in run)
    return CoupledRun(
        float(integral), float(elapsed), int(events), None if np.isnan(tau) else float(tau),
        bool(capped), tuple(counts.tolist()),
    )


def _run_replicas(
    jobs, floors: list[int], coefficients: tuple[float, ...] | None,
    f: TestFunction | None, space: GroundSpace, *, max_events: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every replica of a list of estimates through the engine; the one replica driver.

    Each job is an (initial, seed, replicas) triple, and all jobs share the
    floors, coefficients, f and event cap.  Replica r of a job reads the
    derived stream (seed, r); derive_streams seeds a job's streams of a
    batch together.  initial(r, stream) returns replica r's start row, as
    _row builds it, and may draw from the stream before the run reads it; a
    job whose replicas share one start returns that one row object for each,
    which the engine fills once.  The jobs' rows run end to end in batches
    of at most _BATCH_ROWS rows, which bounds the engine's per-row arrays
    (read-ahead uniforms, chain masks, locations); every row reads only its
    own stream, so its results do not depend on the batch it runs in.
    Returns, per job, per-replica arrays of the contrast integral, the
    capped flag and the coalescence time (NaN for capped replicas, which
    never coalesce).
    """
    if any(replicas < 2 for _, _, replicas in jobs):
        raise ValueError("need at least 2 replicas")
    bounds = list(itertools.accumulate((replicas for _, _, replicas in jobs), initial=0))
    spans = list(zip(bounds, bounds[1:]))
    parts = []
    for lo in range(0, bounds[-1], _BATCH_ROWS):
        starts, streams = [], []
        for (initial, seed, _), (first, end) in zip(jobs, spans):
            keys = range(max(lo, first) - first, min(lo + _BATCH_ROWS, end) - first)
            batch = derive_streams(seed, keys)
            streams += batch
            starts += [initial(r, stream) for r, stream in zip(keys, batch)]
        run = _run_batch(starts, streams, floors, space, coefficients, f, max_events=max_events)
        parts.append((run[0], run[4], run[3]))
    whole = [np.concatenate(a) for a in zip(*parts)]
    return [tuple(a[first:end] for a in whole) for first, end in spans]


def _contrast_estimate(
    runs: tuple[np.ndarray, np.ndarray, np.ndarray], span: float, seed: int
) -> MCEstimate:
    """-mean of the coupled contrast integrals, capped replicas inflated.

    The contrast is bounded by span, so the unobserved tail of a capped run
    is at most span times the residual coalescence time; capped replicas are
    pushed away from zero by span times the mean completed coalescence time,
    which keeps downstream domination checks conservative.  With no completed
    replica there is nothing to inflate by, so the estimate is refused.
    """
    integrals, capped, taus = runs
    if capped.all():
        raise RuntimeError("every replica hit the event cap")
    if capped.any():
        bump = span * float(np.mean(taus[~capped]))
        integrals = integrals.copy()
        integrals[capped] += np.where(integrals[capped] >= 0.0, bump, -bump)
    return MCEstimate.from_sample(-integrals, seed, capped=int(capped.sum()))


def estimate_delta_h(
    f: TestFunction,
    xi: Configuration,
    alpha_location,
    m: int,
    space: GroundSpace,
    replicas: int,
    seed: int,
    max_events: int = DEFAULT_EVENT_CAP,
) -> MCEstimate:
    """Monte Carlo h(xi + delta_alpha) - h(xi) via the coupled pair."""
    space.check(xi, "xi", m)
    alpha = space.point(alpha_location, "alpha_location")
    row = _row([(xi.locations, 0b11), (alpha[None], 0b01)])
    (runs,) = _run_replicas(
        [(lambda r, stream: row, seed, replicas)], [m, m], (1.0, -1.0), f, space,
        max_events=max_events,
    )
    return _contrast_estimate(runs, span=1.0, seed=seed)


def estimate_delta2_h(
    f: TestFunction,
    xi: Configuration,
    alpha_location,
    beta_location,
    m: int,
    space: GroundSpace,
    replicas: int,
    seed: int,
    max_events: int = DEFAULT_EVENT_CAP,
) -> MCEstimate:
    """Monte Carlo second difference of h via four coupled chains."""
    space.check(xi, "xi", m)
    alpha = space.point(alpha_location, "alpha_location")
    beta = space.point(beta_location, "beta_location")
    # Chains [xi + alpha + beta, xi + alpha, xi + beta, xi].
    row = _row([(xi.locations, 0b1111), (alpha[None], 0b0011), (beta[None], 0b0101)])
    (runs,) = _run_replicas(
        [(lambda r, stream: row, seed, replicas)], [m, m, m, m], (1.0, -1.0, -1.0, 1.0), f,
        space, max_events=max_events,
    )
    return _contrast_estimate(runs, span=2.0, seed=seed)


def estimate_h(
    f: TestFunction,
    xi: Configuration,
    m: int,
    space: GroundSpace,
    replicas: int,
    seed: int,
    max_events: int = DEFAULT_EVENT_CAP,
) -> MCEstimate:
    """Monte Carlo h(xi) against a stationary partner chain.

    The partner starts from a fresh Po^(m) draw each replica, so its f value
    integrates to pi(f) and the coupled contrast integrates to h(xi) without
    any additive constant; runs stop once the two identity sets merge.
    """
    space.check(xi, "xi", m)

    def with_partner(r: int, stream: RandomStream):
        partner = sample_conditional_poisson(space, m, stream)
        return _row([(xi.locations, 0b01), (partner.locations, 0b10)])

    (runs,) = _run_replicas(
        [(with_partner, seed, replicas)], [m, m], (1.0, -1.0), f, space,
        max_events=max_events,
    )
    return _contrast_estimate(runs, span=1.0, seed=seed)


def estimate_coalescence_time(
    xi: Configuration,
    alpha_location,
    m: int,
    space: GroundSpace,
    replicas: int,
    seed: int,
    max_events: int = DEFAULT_EVENT_CAP,
) -> MCEstimate:
    """Mean coalescence time of the coupled pair.

    A replica's sample is sum 1/q over the events of its jump chain up to
    coalescence, q each state's event rate: the mean of its coalescence time
    given the jump chain, so an unbiased estimate of E tau with lower
    variance than the time itself.  Replicas that hit the event cap are
    excluded from the mean and counted in the capped field instead of being
    inflated.
    """
    space.check(xi, "xi", m)
    alpha = space.point(alpha_location, "alpha_location")
    row = _row([(xi.locations, 0b11), (alpha[None], 0b01)])
    ((_, capped, taus),) = _run_replicas(
        [(lambda r, stream: row, seed, replicas)], [m, m], None, None, space,
        max_events=max_events,
    )
    times = taus[~capped]
    if times.size < 2:
        raise RuntimeError("too few completed replicas for a mean")
    return MCEstimate.from_sample(times, seed, replicas=replicas, capped=int(capped.sum()))


def estimate_pi_f(
    f: TestFunction,
    m: int,
    space: GroundSpace,
    replicas: int,
    seed: int,
    stream_offset: int = 0,
) -> MCEstimate:
    """Plain Monte Carlo of pi(f) = E f(Po^(m)) from exact draws.

    Replica r draws from stream (seed, stream_offset + r); derive_streams
    seeds the streams of every _BATCH_ROWS replicas together.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    vals = np.empty(replicas)
    for lo in range(0, replicas, _BATCH_ROWS):
        hi = min(lo + _BATCH_ROWS, replicas)
        streams = derive_streams(seed, range(stream_offset + lo, stream_offset + hi))
        for i, stream in enumerate(streams, lo):
            vals[i] = f(sample_conditional_poisson(space, m, stream))
    return MCEstimate.from_sample(vals, seed)


def stein_residual(
    f: TestFunction,
    xi: Configuration,
    m: int,
    space: GroundSpace,
    replicas: int,
    seed: int,
    max_events: int = DEFAULT_EVENT_CAP,
) -> MCEstimate:
    """Monte Carlo check of the generator identity A h_f(xi) = f(xi) - pi(f).

    stein_residuals of the one configuration xi.
    """
    return stein_residuals(f, [xi], m, space, replicas, [seed], max_events=max_events)[0]


def _stein_job(xi: Configuration, m: int, space: GroundSpace, replicas: int, seed: int):
    """The generator's coupled components at xi, as one replica-driver job.

    Component 0 is the immigration average, alpha drawn fresh each replica;
    components 1..n are one death term per point of xi, active above the
    floor.  Component i reads streams i * replicas onwards.  The start rows
    are _row's of [xi + alpha, xi] and [xi, xi - x]: xi's points in both
    chains and alpha, or x, alone in chain 0.  The immigration row's masks
    are built once; a replica draws only alpha.
    """
    at = xi.locations
    with_alpha, _ = _row([(at, 0b11), (np.empty((1, space.dimension)), 0b01)])
    dying = [
        _row([(at[:i], 0b11), (at[i : i + 1], 0b01), (at[i + 1 :], 0b11)])
        for i in range(xi.size if xi.size > m else 0)
    ]

    def component(r: int, stream: RandomStream):
        i = r // replicas
        if i:
            return dying[i - 1]
        return with_alpha, np.concatenate([at, space.sample(stream, 1)])

    return component, seed, replicas * (1 + len(dying))


def stein_residuals(
    f: TestFunction,
    xis,
    m: int,
    space: GroundSpace,
    replicas: int,
    seeds,
    max_events: int = DEFAULT_EVENT_CAP,
) -> list[MCEstimate]:
    """Monte Carlo checks of A h_f(xi) = f(xi) - pi(f), one per xi in xis.

    The generator applied to the Stein solution is estimated term by term:
    Lambda times the intensity-average of delta_h(xi; alpha) (alpha drawn
    fresh per replica), minus the sum over points x of delta_h(xi - x; x)
    when xi sits above the floor.  The residual subtracts f(xi) - pi(f).
    For a count functional pi(f) is exact, read from the truncated count
    law; a location functional estimates it with estimate_pi_f from streams
    (|xi| + 1) * replicas onwards.  The standard error combines the errors
    of the estimated terms in quadrature, and the estimate should vanish
    within Monte Carlo error.  xis[i] is estimated at seeds[i]; the coupled
    components of every xi run through the engine together, and each
    estimate equals the one its xi would get alone.
    """
    xis, seeds = list(xis), list(seeds)
    if len(xis) != len(seeds):
        raise ValueError("need one seed per configuration")
    for xi in xis:
        space.check(xi, "xi", m)
    if replicas < 2:  # a job's rows are replicas times its component count
        raise ValueError("need at least 2 replicas")
    runs = _run_replicas(
        [_stein_job(xi, m, space, replicas, seed) for xi, seed in zip(xis, seeds)],
        [m, m], (1.0, -1.0), f, space, max_events=max_events,
    )
    lam = space.total_mass
    if not f.needs_locations:
        pi_f, pi_var = conditional_count_pmf(lam, m).expectation(f.from_count), 0.0
    estimates = []
    for xi, seed, job in zip(xis, seeds, runs):
        imm, *deaths = [
            _contrast_estimate(part, span=1.0, seed=seed)
            for part in zip(*(a.reshape(-1, replicas) for a in job))
        ]
        death_mean = sum(est.estimate for est in deaths)
        death_var = sum(est.se**2 for est in deaths)
        if f.needs_locations:
            pi_est = estimate_pi_f(
                f, m, space, replicas, seed, stream_offset=(xi.size + 1) * replicas
            )
            pi_f, pi_var = pi_est.estimate, pi_est.se**2
        residual = lam * imm.estimate - death_mean - (f(xi) - pi_f)
        se = math.sqrt((lam * imm.se) ** 2 + death_var + pi_var)
        # A replica is capped when any of its component runs is.
        capped = int(job[1].reshape(-1, replicas).any(axis=0).sum())
        estimates.append(
            MCEstimate(estimate=residual, se=se, replicas=replicas, seed=seed, capped=capped)
        )
    return estimates


def p_survival_analytic(lam: float, k: int) -> float:
    """Survival probability of a distinguished extra point over an excursion.

    Start the chain with k+1 points, one distinguished; run until the count
    first returns to k.  The probability the distinguished point is still
    alive then is 1 - (F(k-1)/F(k) - k/lam) for F the Poisson upper tail;
    it is bounded by min(k/lam, k/(k+1)) and vanishes at k = 0.  Past the
    mode, and at k = 1 for lam <= 1 where k/lam is large, it is computed as
    k T/(1 + lam T), T as in bounds, free of that cancellation.
    """
    lam, k = _check_lam(lam), _check_m(k, "k")
    if k > math.ceil(lam) or (k == 1 and lam <= 1.0):
        t = _upper_tail_sum(lam, k)
        return k * t / (1.0 + lam * t)
    return 1.0 - (poisson_tail_ratio(lam, k) - k / lam)


def _check_survival(lam: float, k: int, m: int, replicas: int) -> None:
    """Refuse what estimate_p_survival cannot run: fewer than 100 replicas,
    lam, k or m off the bounds rules, or m above k."""
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    if _check_m(m) > _check_m(k, "k"):
        raise ValueError("need 0 <= m <= k")
    _check_lam(lam)


def estimate_p_survival(
    lam: float, k: int, m: int, replicas: int, seed: int
) -> MCEstimate:
    """Monte Carlo of the excursion survival probability, vectorized.

    The survival event depends only on the embedded count jump chain and the
    distinguished point's fate, so holding times and locations are never
    drawn.  During the excursion the count stays above k >= m and the floor
    never binds, hence m enters only through validation.  A replica stops
    once decided: when its distinguished point dies (a failure, also in the
    step that returns the count to k) or when its count returns to k with
    the point alive.  Per step and per active replica exactly two uniforms
    are consumed (transition type, then victim), keeping the draw pattern
    deterministic.
    """
    _check_survival(lam, k, m, replicas)
    stream = derive_stream(seed, 0)
    counts = np.full(replicas, k + 1, dtype=np.int64)
    survived = np.zeros(replicas, dtype=bool)
    index = np.arange(replicas)
    max_steps = 20_000_000
    steps = 0
    while index.size:
        steps += 1
        if steps > max_steps:
            raise RuntimeError("survival excursions failed to absorb in budget")
        n = index.size
        u_type = stream.uniforms(n)
        u_victim = stream.uniforms(n)
        imm = u_type * (lam + counts) < lam
        dies = ~imm & (u_victim * counts < 1.0)
        counts += np.where(imm, 1, -1)
        back = counts == k
        survived[index[back & ~dies]] = True
        keep = ~(back | dies)
        counts, index = counts[keep], index[keep]
    p_hat = float(survived.mean())
    se = math.sqrt(p_hat * (1.0 - p_hat) / replicas)
    return MCEstimate(estimate=p_hat, se=se, replicas=replicas, seed=seed)
