"""Exact samplers and the conditional immigration-death chain.

The target law Po^(m) is a Poisson process on a ground space conditioned on
carrying at least m points.  Its count distribution is the Poisson law
truncated below m; given the count, locations are iid from the normalized
intensity.  The immigration-death chain with immigration rate Lambda, unit
per-capita death rate, and deaths suppressed at the floor (population equal
to m) leaves Po^(m) invariant and is the engine behind every estimator here.

Draw discipline is fixed so runs are reproducible from the stream alone:
each chain event consumes a holding-time uniform, then a type uniform, then
either the location draws (immigration) or one victim-index uniform (death).
The type uniform is consumed even when the floor forces immigration.  The
chain reads its uniforms through one iterator over blocks of the stream,
steps the stream back over what it did not use, and places all its
immigrants with one GroundSpace.points call after the run, so the stream
and the locations are those of reading one event at a time.  A trajectory
keeps its events as columns (times, one code per event, the immigrants'
places) and builds the event tuples only when they are read.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _check_lam, _check_m, _upper_tail_sum, binomial_tail, poisson_pmf, poisson_tail,
    poisson_tail_ratio,
)
from .groundspace import Configuration, GroundSpace, RandomStream

__all__ = [
    "BudgetError",
    "CountPMF",
    "conditional_count_pmf",
    "count_tv_distance",
    "sample_poisson_process",
    "sample_conditional_poisson",
    "sample_bernoulli_process",
    "sample_binomial_process",
    "bernoulli_site_configuration",
    "Trajectory",
    "simulate_cid_chain",
]

# Refuse rejection sampling below this acceptance probability.
_MIN_ACCEPTANCE = 1e-6

# Poisson count inversion walks at most this far past the mean.
_COUNT_WALK_SLACK = 60.0

# Chain blocks start small and double: a short run reads a few dozen
# uniforms, so a first block of _BLOCK would be mostly waste.
_FIRST_BLOCK = 64
_BLOCK = 4096


class BudgetError(RuntimeError):
    """A sampler or simulation refused to run within its stated budget."""


@dataclass(frozen=True)
class CountPMF:
    """Count law of Po^(m): Poisson(lam) truncated to {m, m+1, ...}.  Past the
    mode it divides by 1 + lam T(m), T as in bounds, not by the upper tail
    F(m) = pmf(m) (1 + lam T(m)), which may underflow."""

    lam: float
    m: int

    def __post_init__(self):
        _check_lam(self.lam)
        _check_m(self.m)

    def pmf(self, j: int) -> float:
        lam, m = self.lam, self.m
        if j < m:
            return 0.0
        if m > math.ceil(lam):  # pmf(j)/pmf(m) = lam^(j-m) m!/j!
            log_ratio = (j - m) * math.log(lam) + math.lgamma(m + 1) - math.lgamma(j + 1)
            return math.exp(log_ratio) / (1.0 + lam * _upper_tail_sum(lam, m))
        return poisson_pmf(lam, j) / poisson_tail(lam, m)

    def mean(self) -> float:
        # E|Po^(m)| = lam F(m-1)/F(m), shifting the truncated series once.
        return self.lam * poisson_tail_ratio(self.lam, self.m)

    def expectation(self, g) -> float:
        """E g(N), N of this law, for a rule g with |g(j+1) - g(j)| <= 1/(j+1).

        math.fsum of g(j) pmf(j) from j = m.  Once j + 1 >= 2 lam the pmf
        falls at least by half a step, so under that increment condition the
        rest of the series is at most pmf(j) (|g(j)| + 2); the sum stops at
        the first such j where that is below 2^-60 of the absolute sum so far,
        or where the pmf underflows.
        """
        terms, scale, j = [], 0.0, self.m
        while True:
            p = self.pmf(j)
            gj = float(g(j))
            terms.append(gj * p)
            scale += abs(terms[-1])
            if j + 1 >= 2.0 * self.lam and p * (abs(gj) + 2.0) <= scale * 2.0**-60:
                return math.fsum(terms)
            j += 1


def conditional_count_pmf(lam: float, m: int) -> CountPMF:
    return CountPMF(lam=float(lam), m=_check_m(m))


def count_tv_distance(counts, law: CountPMF) -> float:
    """Total variation between an empirical count sample and a CountPMF."""
    counts = np.asarray(counts, dtype=int)
    if counts.size == 0:
        raise ValueError("empty count sample")
    top = int(counts.max())
    freq = np.bincount(counts, minlength=top + 1) / counts.size
    probs = np.array([law.pmf(j) for j in range(top + 1)])
    # Mass of the law beyond the largest observed count.
    beyond = max(0.0, 1.0 - probs.sum())
    return 0.5 * (np.abs(freq - probs).sum() + beyond)


@functools.cache
def _count_law(lam: float, m: int) -> tuple[float, float, int]:
    """lam, exp(-lam) and the inversion walk's cap for Po^(m) counts, once per
    (lam, m).  Refuses (BudgetError) a lam whose exp(-lam) underflows, and an
    acceptance probability P(Po(lam) >= m) below _MIN_ACCEPTANCE; a refusal
    is not cached, so it recurs on every call."""
    p0 = math.exp(-lam)
    if p0 == 0.0:
        raise BudgetError("lam too large for count inversion")
    if m > 0:
        accept = poisson_tail(lam, m)
        if accept < _MIN_ACCEPTANCE:
            raise BudgetError(
                f"acceptance probability {accept:.3g} below {_MIN_ACCEPTANCE:.0e}"
            )
    return lam, p0, int(lam + _COUNT_WALK_SLACK * math.sqrt(lam) + _COUNT_WALK_SLACK)


def _poisson_count(law: tuple[float, float, int], stream: RandomStream) -> int:
    """Poisson(lam) count by CDF inversion, law = _count_law(lam, m); consumes
    exactly one uniform."""
    u = stream.uniform()
    lam, p, cap = law
    cdf = p
    j = 0
    while u >= cdf:
        j += 1
        p *= lam / j
        cdf += p
        if j > cap:
            # Only reachable through pathological rounding; u was in [0, 1).
            break
    return j


def sample_poisson_process(space: GroundSpace, stream: RandomStream) -> Configuration:
    """One draw of the (unconditional) Poisson process on the space."""
    n = _poisson_count(_count_law(space.total_mass, 0), stream)
    return Configuration(space.sample(stream, n))


def sample_conditional_poisson(
    space: GroundSpace, m: int, stream: RandomStream
) -> Configuration:
    """Exact Po^(m) draw: reject counts below m, then place locations.

    Counts alone are resampled until acceptance, each rejected attempt
    consuming exactly one uniform.  Locations are independent of the count,
    so drawing them only for the accepted count leaves the law unchanged.
    """
    m = _check_m(m)
    law = _count_law(space.total_mass, m)
    while True:
        n = _poisson_count(law, stream)
        if n >= m:
            return Configuration(space.sample(stream, n))


def bernoulli_site_configuration(n: int, fired: np.ndarray) -> Configuration:
    """Configuration at sites i/n, i = 1..n, for the fired indicator mask."""
    idx = np.flatnonzero(fired) + 1
    return Configuration((idx / n).reshape(-1, 1))


def _indicator_attempts(
    n: int, p: float, conditional_m: int, stream: RandomStream
) -> np.ndarray:
    """Shared rejection core: n Bernoulli(p) indicators given sum >= m.

    Each attempt consumes exactly n uniforms, so two samplers sharing a
    stream see identical accepted indicator patterns.
    """
    if n < 1 or not 0.0 < p < 1.0:
        raise ValueError("need n >= 1 and p in (0, 1)")
    if _check_m(conditional_m, "conditioning level") > n:
        raise ValueError("conditioning level must lie in {0, ..., n}")
    if conditional_m > 0:
        accept = binomial_tail(n, p, conditional_m)
        if accept < _MIN_ACCEPTANCE:
            raise BudgetError(
                f"acceptance probability {accept:.3g} below {_MIN_ACCEPTANCE:.0e}"
            )
    while True:
        fired = stream.uniforms(n) < p
        if int(fired.sum()) >= conditional_m:
            return fired


def sample_bernoulli_process(
    n: int, p: float, conditional_m: int, stream: RandomStream
) -> Configuration:
    """Bernoulli process at sites i/n conditioned on at least m successes."""
    fired = _indicator_attempts(n, p, conditional_m, stream)
    return bernoulli_site_configuration(n, fired)


def sample_binomial_process(
    n: int,
    p: float,
    conditional_m: int,
    stream: RandomStream,
) -> Configuration:
    """Binomial(n, p)-many iid uniform points of [0, 1], conditioned on count >= m.

    Shares the indicator rejection core with the Bernoulli sampler, so equal
    streams give equal counts; locations are drawn only after acceptance.
    """
    fired = _indicator_attempts(n, p, conditional_m, stream)
    count = int(fired.sum())
    return Configuration(stream.uniforms(count).reshape(count, 1))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Piecewise-constant path of the chain over [0, horizon], held as columns.

    A point's tag is its index: the initial rows are 0..n-1 and immigrants
    n, n + 1, ... in order of arrival, immigrant n + j at row j of places.
    Event k happens at times[k]; codes[k] is None for an immigration and the
    removed point's tag for a death.  events rebuilds the (time, kind, tag,
    location) tuples, where kind is "immigration" (location is a coordinate
    tuple) or "death" (location is None and tag names the removed point).
    """

    initial: Configuration
    horizon: float
    m: int
    times: tuple[float, ...]
    codes: tuple[int | None, ...]
    places: np.ndarray  # (immigrations, dimension)

    @classmethod
    def from_events(cls, initial: Configuration, horizon: float, m: int, events) -> Trajectory:
        """The trajectory of (time, kind, tag, location) tuples in time order.

        Refuses what no chain run gives: horizon and m off the bounds rules, a
        start below m, and, naming the event, a time out of order, NaN or past
        the horizon, an immigrant tag that is not the next one, or a death of a
        point that is not alive or at the floor.
        """
        horizon, m = _check_lam(horizon, "horizon"), _check_m(m)
        if initial.size < m:
            raise ValueError("initial configuration must sit at or above the floor m")
        alive = set(range(initial.size))
        tag = initial.size
        times, codes, places = [], [], []
        for i, (time, kind, got, loc) in enumerate(events):
            if not (times[-1] if times else 0.0) <= time < horizon:  # NaN fails too
                raise ValueError(f"event {i}: time {time!r} is out of order or past the horizon")
            if kind == "immigration":
                if got != tag:
                    raise ValueError(f"event {i}: immigrant tag {got} is not the next tag {tag}")
                alive.add(tag)
                tag += 1
                codes.append(None)
                places.append(loc)
            else:
                if got not in alive:
                    raise ValueError(f"event {i}: death of tag {got}, which is not alive")
                if len(alive) <= m:
                    raise ValueError(f"event {i}: death at the floor m")
                alive.remove(got)
                codes.append(got)
            times.append(time)
        places = np.array(places, dtype=float).reshape(len(places), initial.dimension)
        return cls(initial, horizon, m, tuple(times), tuple(codes), places)

    @property
    def events(self) -> tuple[tuple[float, str, int, tuple | None], ...]:
        tags = itertools.count(self.initial.size)
        places = zip(*self.places.T)
        return tuple(
            (time, "death", code, None)
            if code is not None
            else (time, "immigration", next(tags), next(places))
            for time, code in zip(self.times, self.codes)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.initial, self.horizon, self.m, self.events) == (
            other.initial, other.horizon, other.m, other.events
        )

    def count_path(self) -> tuple[np.ndarray, np.ndarray]:
        """Event times and population counts just after each event."""
        steps = np.array([1 if code is None else -1 for code in self.codes], dtype=int)
        return np.array(self.times, dtype=float), self.initial.size + np.cumsum(steps)

    def configuration_at(self, t: float) -> Configuration:
        if not 0.0 <= t <= self.horizon:
            raise ValueError("t outside [0, horizon]")
        # Live points in order of arrival: the start, then the immigrants so
        # far, less every tag a death up to t removed; tags are never reused.
        codes = self.codes[: bisect.bisect_right(self.times, t)]
        dead = set(codes)
        live = [i for i in range(self.initial.size + codes.count(None)) if i not in dead]
        return Configuration(np.concatenate((self.initial.locations, self.places))[live])

    def final_configuration(self) -> Configuration:
        return self.configuration_at(self.horizon)


def _blocks(stream: RandomStream, sizes: list[int]):
    """The stream's uniforms as lists of _FIRST_BLOCK, doubling up to _BLOCK;
    sizes records every block read."""
    block = _FIRST_BLOCK
    while True:
        sizes.append(block)
        yield stream.uniforms(block).tolist()
        block = min(2 * block, _BLOCK)


def simulate_cid_chain(
    initial: Configuration,
    m: int,
    horizon: float,
    space: GroundSpace,
    stream: RandomStream,
) -> Trajectory:
    """Conditional immigration-death chain started at `initial`, run to horizon.

    Dynamics: immigration at rate Lambda with location from the normalized
    intensity; each point dies at unit rate, but deaths are suppressed while
    the population sits at the floor m.  The stationary law is Po^(m).  A
    start that GroundSpace.check refuses is refused before any draw.
    """
    space.check(initial, "initial configuration", m)
    horizon = _check_lam(horizon, "horizon")
    lam = space.total_mass  # the chain inverts no count, so any finite mass runs

    dim = space.dimension
    live = list(range(initial.size))
    first = tag = initial.size
    times: list[float] = []
    codes: list[int | None] = []
    drawn: list[float] = []  # the immigrants' location uniforms, dim each
    read: list[int] = []
    uniforms = itertools.chain.from_iterable(_blocks(stream, read))
    draw, islice, log1p = uniforms.__next__, itertools.islice, math.log1p
    t = 0.0
    for u in uniforms:  # the holding uniform
        count = len(live)
        rate = lam + (count if count > m else 0)
        t += -log1p(-u) / rate
        if t >= horizon:
            break
        if draw() * rate < lam:
            drawn.extend(islice(uniforms, dim))
            live.append(tag)
            tag += 1
            codes.append(None)
        else:
            # min(int(u * count), count - 1) without the cost of a min call
            victim = int(draw() * count)
            codes.append(live.pop(victim if victim < count else count - 1))
        times.append(t)
    arrivals = tag - first
    # Each event read two uniforms and then dim or one; the last holding
    # uniform ended the run.
    stream._unread(sum(read) - (3 * len(times) + (dim - 1) * arrivals + 1))
    places = space.points(np.array(drawn))
    return Trajectory(initial, horizon, int(m), tuple(times), tuple(codes), places)
