"""Synchronized couplings of conditional immigration-death chains.

One union-race engine drives every estimator: K chains share a single event
clock whose rate is Lambda plus the number of identities alive in at least
one chain.  Immigrations are shared (one fresh identity, one location, added
to every chain); each live identity carries one unit-rate death clock, and
when it fires the identity is removed from every chain that holds it and is
not pinned at its floor.  Identities retained only by floored chains simply
keep their memoryless clock.  Each chain in isolation is then an exact
conditional immigration-death chain, coalescence (identical identity sets)
is absorbing, and chains ordered by inclusion stay ordered, which gives the
pathwise domination used by the tests.

Every estimator runs its replicas through one loop, one coupled run per
derived stream, and integrates a contrast of a test function along each run:
  delta_h      -mean int f(Z_{xi+a}) - f(Z_xi) dt            (2 chains)
  delta2_h     -mean int f(Z_{xi+a+b}) - f(Z_{xi+a}) - ...   (4 chains)
  h            -mean int f(Z_xi) - f(Z_W) dt, W stationary   (2 chains)
Runs stop at coalescence, where the contrast vanishes identically.  Every
estimator honours max_events: replicas hitting the event cap are flagged and
inflated conservatively, and an estimate is refused when every replica hits it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import poisson_pmf, poisson_tail, poisson_tail_ratio
from .estimates import MCEstimate
from .groundspace import Configuration, GroundSpace, RandomStream, derive_stream
from .metrics import _d1_locs
from .simulate import sample_conditional_poisson

__all__ = [
    "TestFunction",
    "ConstantTestFunction",
    "CountTestFunction",
    "MatchingDistanceTestFunction",
    "reference_test_functions",
    "CoupledState",
    "CoupledRun",
    "run_coupled_chains",
    "simulate_coupled_pair",
    "simulate_domination_triple",
    "estimate_coalescence_time",
    "estimate_delta_h",
    "estimate_delta2_h",
    "estimate_h",
    "estimate_pi_f",
    "stein_residual",
    "p_survival_analytic",
    "estimate_p_survival",
]

DEFAULT_EVENT_CAP = 10_000

# Count-based test functions are Lipschitz-checked on this prefix.
_COUNT_CHECK_UPTO = 1000


class TestFunction:
    """Functional on configurations, 1-Lipschitz for the matching distance.

    Subclasses set needs_locations and implement from_count or from_locations;
    calling the object on a Configuration dispatches appropriately.
    """

    needs_locations: bool = True
    label: str = "abstract"

    def from_count(self, count: int) -> float:
        raise NotImplementedError

    def from_locations(self, locations: np.ndarray) -> float:
        raise NotImplementedError

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
    for counts up to 1000.
    """

    needs_locations = False

    def __init__(self, rule, label: str = "count"):
        self.rule = rule
        self.label = label
        for j in range(_COUNT_CHECK_UPTO):
            if abs(rule(j + 1) - rule(j)) > 1.0 / (j + 1) + 1e-12:
                raise ValueError(
                    f"count rule violates the Lipschitz increment at j={j}"
                )

    def from_count(self, count: int) -> float:
        return float(self.rule(count))


class MatchingDistanceTestFunction(TestFunction):
    """f(xi) = d1_bar(xi, reference); 1-Lipschitz by the triangle inequality."""

    needs_locations = True

    def __init__(self, reference: Configuration, space: GroundSpace):
        if reference.size and reference.dimension != space.dimension:
            raise ValueError("reference dimension does not match the space")
        self.reference = reference
        self.space = space
        self.label = f"d1_to_reference[{reference.size}]"

    def from_locations(self, locations: np.ndarray) -> float:
        ref = self.reference.locations
        if locations.shape[0] <= ref.shape[0]:
            return _d1_locs(locations, ref, self.space)
        return _d1_locs(ref, locations, self.space)


def _default_count_rule(j: int) -> float:
    return min(1.0, j / 10.0)


def reference_test_functions(space: GroundSpace) -> tuple[TestFunction, ...]:
    """The stock family used by verification batteries and tests.

    References live on the diagonal of the cube so the family is defined for
    any dimension: the empty configuration, a center singleton, and a
    five-point spread, plus a saturating count functional.
    """
    diag = lambda xs: np.array([[x] * space.dimension for x in xs], dtype=float)
    empty = Configuration((), np.zeros((0, space.dimension)))
    single = Configuration((0,), diag([0.5]))
    spread = Configuration(tuple(range(5)), diag([0.1, 0.3, 0.5, 0.7, 0.9]))
    return (
        MatchingDistanceTestFunction(empty, space),
        MatchingDistanceTestFunction(single, space),
        MatchingDistanceTestFunction(spread, space),
        CountTestFunction(_default_count_rule, label="count_min(1,j/10)"),
    )


@dataclass(frozen=True)
class CoupledState:
    """Snapshot of all chains at one event time.

    matched_tags are the identities present in every chain; a point is
    unmatched in a chain when its tag is missing from this set.
    """

    time: float
    configurations: tuple[Configuration, ...]
    matched_tags: frozenset
    coalesced: bool


@dataclass(frozen=True)
class CoupledRun:
    """Outcome of one coupled simulation."""

    integral: float
    elapsed: float
    events: int
    coalescence_time: float | None
    capped: bool
    final_counts: tuple[int, ...]
    states: tuple[CoupledState, ...] | None = None


def _chain_arrays(order: dict, locs: dict, dim: int) -> np.ndarray:
    if not order:
        return np.zeros((0, dim))
    return np.array([locs[tag] for tag in order])


def run_coupled_chains(
    initial: list[Configuration],
    floors: list[int],
    space: GroundSpace,
    stream: RandomStream,
    coefficients: tuple[float, ...] | None = None,
    test_function: TestFunction | None = None,
    horizon: float | None = None,
    stop_on_coalescence: bool = True,
    max_events: int = DEFAULT_EVENT_CAP,
    record: bool = False,
) -> CoupledRun:
    """Drive K chains through the shared union-race event stream.

    Chains are given as configurations whose shared tags declare matched
    points (shared tags must agree on location).  floors[c] is the floor m
    of chain c; every initial configuration must sit at or above its floor.
    The integral accumulated is int sum_c coefficients[c] f(chain c) dt,
    piecewise constant between events.
    """
    k_chains = len(initial)
    if k_chains == 0 or len(floors) != k_chains:
        raise ValueError("need one floor per chain")
    if horizon is None and not stop_on_coalescence:
        raise ValueError("need a horizon when not stopping at coalescence")
    if coefficients is None:
        coefficients = tuple(0.0 for _ in range(k_chains))
    if len(coefficients) != k_chains:
        raise ValueError("need one coefficient per chain")
    lam = space.total_mass
    dim = space.dimension

    locs: dict[int, np.ndarray] = {}
    membership: dict[int, int] = {}
    # Insertion-ordered tag containers keep location arrays, and therefore
    # every downstream float, identical from run to run.
    chains: list[dict[int, None]] = [dict() for _ in range(k_chains)]
    for c, cfg in enumerate(initial):
        if cfg.dimension != dim:
            raise ValueError("configuration dimension does not match the space")
        if floors[c] < 0 or cfg.size < floors[c]:
            raise ValueError(f"chain {c} starts below its floor")
        for tag, loc in zip(cfg.tags, cfg.locations):
            if tag in locs:
                if not np.array_equal(locs[tag], loc):
                    raise ValueError(f"tag {tag} has conflicting locations")
            else:
                locs[tag] = np.asarray(loc, dtype=float)
                membership[tag] = 0
            membership[tag] |= 1 << c
            chains[c][tag] = None
    full_mask = (1 << k_chains) - 1
    live = list(membership)
    position = {tag: i for i, tag in enumerate(live)}
    counts = [len(chain) for chain in chains]
    n_partial = sum(1 for tag in live if membership[tag] != full_mask)
    next_tag = max(live, default=-1) + 1

    use_f = test_function is not None and any(coefficients)
    fvals = [0.0] * k_chains
    if use_f:
        if test_function.needs_locations:
            for c in range(k_chains):
                fvals[c] = test_function.from_locations(
                    _chain_arrays(chains[c], locs, dim)
                )
        else:
            for c in range(k_chains):
                fvals[c] = test_function.from_count(counts[c])

    def contrast() -> float:
        return math.fsum(coefficients[c] * fvals[c] for c in range(k_chains))

    def snapshot(t: float, coalesced: bool) -> CoupledState:
        cfgs = tuple(
            Configuration(tuple(chains[c]), _chain_arrays(chains[c], locs, dim))
            for c in range(k_chains)
        )
        matched = frozenset(
            tag for tag in live if membership[tag] == full_mask
        )
        return CoupledState(
            time=t, configurations=cfgs, matched_tags=matched, coalesced=coalesced
        )

    t = 0.0
    integral = 0.0
    events = 0
    capped = False
    coalescence_time = 0.0 if n_partial == 0 else None
    states = [snapshot(0.0, n_partial == 0)] if record else None
    phi = contrast() if use_f else 0.0

    while True:
        if stop_on_coalescence and n_partial == 0:
            break
        if events >= max_events:
            capped = True
            break
        rate = lam + len(live)
        dt = stream.exponential(rate)
        if horizon is not None and t + dt >= horizon:
            integral += (horizon - t) * phi
            t = horizon
            break
        integral += dt * phi
        t += dt
        events += 1
        changed = 0
        if stream.uniform() * rate < lam:
            loc = space.sample_one(stream)
            tag = next_tag
            next_tag += 1
            locs[tag] = loc
            membership[tag] = full_mask
            position[tag] = len(live)
            live.append(tag)
            for c in range(k_chains):
                chains[c][tag] = None
                counts[c] += 1
            changed = full_mask
        else:
            victim = live[stream.integer(len(live))]
            mask = membership[victim]
            newmask = mask
            bit = 1
            for c in range(k_chains):
                if mask & bit and counts[c] > floors[c]:
                    del chains[c][victim]
                    counts[c] -= 1
                    newmask &= ~bit
                    changed |= bit
                bit <<= 1
            was_partial = mask != full_mask
            if newmask == 0:
                last = live.pop()
                idx = position.pop(victim)
                if last != victim:
                    live[idx] = last
                    position[last] = idx
                del membership[victim]
                del locs[victim]
                if was_partial:
                    n_partial -= 1
            else:
                membership[victim] = newmask
                n_partial += (newmask != full_mask) - was_partial
        if n_partial == 0 and coalescence_time is None:
            coalescence_time = t
        if use_f and changed:
            bit = 1
            for c in range(k_chains):
                if changed & bit:
                    if test_function.needs_locations:
                        fvals[c] = test_function.from_locations(
                            _chain_arrays(chains[c], locs, dim)
                        )
                    else:
                        fvals[c] = test_function.from_count(counts[c])
                bit <<= 1
            phi = contrast()
        if record:
            states.append(snapshot(t, n_partial == 0))

    return CoupledRun(
        integral=integral,
        elapsed=t,
        events=events,
        coalescence_time=coalescence_time,
        capped=capped,
        final_counts=tuple(counts),
        states=tuple(states) if record else None,
    )


def _pair_initials(xi: Configuration, alpha_location) -> list[Configuration]:
    """[xi + alpha, xi], tagged so that xi's points are matched in both."""
    base = Configuration(tuple(range(xi.size)), xi.locations)
    return [base.with_point(xi.size, alpha_location), base]


def simulate_coupled_pair(
    xi: Configuration,
    alpha_location,
    m: int,
    space: GroundSpace,
    stream: RandomStream,
    horizon: float | None = None,
    max_events: int = DEFAULT_EVENT_CAP,
) -> CoupledRun:
    """Recorded coupled run of Z_{xi+alpha} against Z_xi (both floored at m)."""
    return run_coupled_chains(
        _pair_initials(xi, alpha_location),
        [m, m],
        space,
        stream,
        horizon=horizon,
        stop_on_coalescence=horizon is None,
        max_events=max_events,
        record=True,
    )


def simulate_domination_triple(
    xi: Configuration,
    m: int,
    horizon: float,
    space: GroundSpace,
    stream: RandomStream,
    max_events: int = DEFAULT_EVENT_CAP,
) -> CoupledRun:
    """Coupled (Z^(m) from xi, Z^(0) from xi, Z^(0) from empty) to a horizon.

    Under the shared event stream the three populations are ordered
    pathwise; the recorded states let tests check it event by event.
    """
    base = Configuration(tuple(range(xi.size)), xi.locations)
    empty = Configuration((), np.zeros((0, space.dimension)))
    return run_coupled_chains(
        [base, base, empty],
        [m, 0, 0],
        space,
        stream,
        horizon=horizon,
        stop_on_coalescence=False,
        max_events=max_events,
        record=True,
    )


def _run_replicas(
    initial,
    floors: list[int],
    coefficients: tuple[float, ...] | None,
    f: TestFunction | None,
    space: GroundSpace,
    replicas: int,
    seed: int,
    *,
    stream_offset: int,
    max_events: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One coupled run per derived stream; the replica loop of every estimator.

    initial is either the list of starting configurations shared by every
    replica, or a callable that draws a replica's configurations from its
    stream before the run consumes that stream.  Returns per-replica arrays of
    the contrast integral, the capped flag and the coalescence time (NaN for
    capped replicas, which never coalesce).
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    integrals = np.empty(replicas)
    capped = np.zeros(replicas, dtype=bool)
    taus = np.full(replicas, np.nan)
    for r in range(replicas):
        stream = derive_stream(seed, stream_offset + r)
        chains = initial(stream) if callable(initial) else initial
        run = run_coupled_chains(
            chains, floors, space, stream,
            coefficients=coefficients, test_function=f, max_events=max_events,
        )
        integrals[r] = run.integral
        capped[r] = run.capped
        if run.coalescence_time is not None:
            taus[r] = run.coalescence_time
    return integrals, capped, taus


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
    values = -integrals
    return MCEstimate(
        estimate=float(values.mean()),
        se=float(values.std(ddof=1) / math.sqrt(values.size)),
        replicas=values.size,
        seed=seed,
        capped=int(capped.sum()),
    )


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
    if xi.size < m:
        raise ValueError("xi must sit at or above the floor m")
    runs = _run_replicas(
        _pair_initials(xi, alpha_location), [m, m], (1.0, -1.0), f, space,
        replicas, seed, stream_offset=0, max_events=max_events,
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
    if xi.size < m:
        raise ValueError("xi must sit at or above the floor m")
    with_a, base = _pair_initials(xi, alpha_location)
    with_b = base.with_point(xi.size + 1, beta_location)
    with_ab = with_a.with_point(xi.size + 1, beta_location)
    runs = _run_replicas(
        [with_ab, with_a, with_b, base], [m, m, m, m], (1.0, -1.0, -1.0, 1.0), f,
        space, replicas, seed, stream_offset=0, max_events=max_events,
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
    if xi.size < m:
        raise ValueError("xi must sit at or above the floor m")
    base = Configuration(tuple(range(xi.size)), xi.locations)

    def with_partner(stream: RandomStream) -> list[Configuration]:
        partner = sample_conditional_poisson(space, m, stream)
        tags = tuple(range(xi.size, xi.size + partner.size))
        return [base, Configuration(tags, partner.locations)]

    runs = _run_replicas(
        with_partner, [m, m], (1.0, -1.0), f, space, replicas, seed,
        stream_offset=0, max_events=max_events,
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
    """Mean coalescence time of the coupled pair; samples kept exact.

    Replicas that hit the event cap are excluded from the mean and counted
    in the capped field instead of being inflated.
    """
    _, capped, taus = _run_replicas(
        _pair_initials(xi, alpha_location), [m, m], None, None, space,
        replicas, seed, stream_offset=0, max_events=max_events,
    )
    times = taus[~capped]
    if times.size < 2:
        raise RuntimeError("too few completed replicas for a mean")
    return MCEstimate(
        estimate=float(times.mean()),
        se=float(times.std(ddof=1) / math.sqrt(times.size)),
        replicas=replicas,
        seed=seed,
        capped=int(capped.sum()),
    )


def estimate_pi_f(
    f: TestFunction,
    m: int,
    space: GroundSpace,
    replicas: int,
    seed: int,
    stream_offset: int = 0,
) -> MCEstimate:
    """Plain Monte Carlo of pi(f) = E f(Po^(m)) from exact draws."""
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    vals = np.empty(replicas)
    for r in range(replicas):
        cfg = sample_conditional_poisson(space, m, derive_stream(seed, stream_offset + r))
        vals[r] = f(cfg)
    return MCEstimate(
        estimate=float(vals.mean()),
        se=float(vals.std(ddof=1) / math.sqrt(replicas)),
        replicas=replicas,
        seed=seed,
    )


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

    The generator applied to the Stein solution is estimated term by term:
    Lambda times the intensity-average of delta_h(xi; alpha) (alpha drawn
    fresh per replica), minus the sum over points x of delta_h(xi - x; x)
    when xi sits above the floor.  The residual subtracts f(xi) - pi(f);
    its standard error combines the component errors in quadrature, and the
    estimate should vanish within Monte Carlo error.
    """
    if xi.size < m:
        raise ValueError("xi must sit at or above the floor m")
    lam = space.total_mass
    base = Configuration(tuple(range(xi.size)), xi.locations)

    # Component 0: immigration average, alpha resampled each replica.
    imm = _contrast_estimate(
        _run_replicas(
            lambda stream: _pair_initials(xi, space.sample_one(stream)),
            [m, m], (1.0, -1.0), f, space, replicas, seed,
            stream_offset=0, max_events=max_events,
        ),
        span=1.0, seed=seed,
    )
    # Components 1..n: one death term per point of xi, active above the floor.
    deaths = [
        _contrast_estimate(
            _run_replicas(
                [base, base.without_tag(i)], [m, m], (1.0, -1.0), f, space,
                replicas, seed, stream_offset=(i + 1) * replicas,
                max_events=max_events,
            ),
            span=1.0, seed=seed,
        )
        for i in range(xi.size)
    ] if xi.size > m else []
    death_mean = sum(est.estimate for est in deaths)
    death_var = sum(est.se**2 for est in deaths)

    pi_est = estimate_pi_f(
        f, m, space, replicas, seed, stream_offset=(xi.size + 1) * replicas
    )
    residual = lam * imm.estimate - death_mean - (f(base) - pi_est.estimate)
    se = math.sqrt((lam * imm.se) ** 2 + death_var + pi_est.se**2)
    capped = imm.capped + sum(est.capped for est in deaths)
    return MCEstimate(
        estimate=residual, se=se, replicas=replicas, seed=seed, capped=capped
    )


def p_survival_analytic(lam: float, k: int) -> float:
    """Survival probability of a distinguished extra point over an excursion.

    Start the chain with k+1 points, one distinguished; run until the count
    first returns to k.  The probability the distinguished point is still
    alive then is 1 - (F(k-1)/F(k) - k/lam) for F the Poisson upper tail;
    it is bounded by min(k/lam, k/(k+1)) and vanishes at k = 0.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    return 1.0 - (poisson_tail_ratio(lam, k) - k / lam)


def estimate_p_survival(
    lam: float, k: int, m: int, replicas: int, seed: int
) -> MCEstimate:
    """Monte Carlo of the excursion survival probability, vectorized.

    The survival event depends only on the embedded count jump chain and the
    distinguished point's alive flag, so holding times and locations are
    never drawn.  During the excursion the count stays above k >= m and the
    floor never binds, hence m enters only through validation.  Per step and
    per active replica exactly two uniforms are consumed (transition type,
    then victim), keeping the draw pattern deterministic.
    """
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    if not 0 <= m <= k:
        raise ValueError("need 0 <= m <= k")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    stream = derive_stream(seed, 0)
    counts = np.full(replicas, k + 1, dtype=np.int64)
    alive = np.ones(replicas, dtype=bool)
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
        dies = (~imm) & alive & (u_victim * counts < 1.0)
        alive[dies] = False
        counts[imm] += 1
        counts[~imm] -= 1
        done = counts == k
        if done.any():
            survived[index[done]] = alive[done]
            keep = ~done
            counts = counts[keep]
            alive = alive[keep]
            index = index[keep]
    p_hat = float(survived.mean())
    se = math.sqrt(p_hat * (1.0 - p_hat) / replicas)
    return MCEstimate(estimate=p_hat, se=se, replicas=replicas, seed=seed)
