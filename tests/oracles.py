"""Independent reference implementations used by the test suite.

Everything here is deliberately slow and transparent: high precision
arithmetic via mpmath, exhaustive enumeration over permutations, and a
dense linear solve on the count chain.  Nothing imports from condpp so
that agreement between the two is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import mpmath
import numpy as np

mpmath.mp.dps = 60


def poisson_tail_mp(lam, m):
    """P(Poisson(lam) >= m) via the incomplete gamma identity.

    P(Po(lam) >= m) = P(Gamma(m) <= lam); the regularized form has no
    1 - head cancellation, so it stays accurate even when the tail mass
    is far below working precision (deep tails like P(Po(0.1) >= 40)).
    """
    if m <= 0:
        return mpmath.mpf(1)
    return mpmath.gammainc(m, 0, mpmath.mpf(lam), regularized=True)


def binomial_tail_mp(n, p, m):
    """P(Bin(n, p) >= m) at 50 digits, p read as the exact value of its double.

    Sums the whole shorter side: 1 minus the head below m when m <= np (the
    tail is then at least 1/2, so the complement loses nothing), else the
    tail.  The first term is exact; the rest follow by the pmf ratio.
    """
    if m <= 0:
        return mpmath.mpf(1)
    if m > n:
        return mpmath.mpf(0)
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        q = 1 - p
        head = m <= n * p
        j = m - 1 if head else m
        t = mpmath.binomial(n, j) * p**j * q ** (n - j)
        total = t
        while j > 0 if head else j < n:
            if head:
                t = t * j * q / ((n - j + 1) * p)
                j -= 1
            else:
                t = t * (n - j) * p / ((j + 1) * q)
                j += 1
            total += t
        return +(1 - total if head else total)


def p_survival_mp(lam, k):
    """1 - (F(k-1)/F(k) - k/lam) for F the Poisson upper tail.

    The difference cancels about log10(k/lam) digits, so the working
    precision grows with k/lam: at lam = 1e-300 it takes some 300 digits.
    """
    lam = mpmath.mpf(lam)
    digits = mpmath.mp.dps + max(0, int(mpmath.log10(k / lam)))
    with mpmath.workdps(digits):
        ratio = poisson_tail_mp(lam, k - 1) / poisson_tail_mp(lam, k)
        return +(1 - (ratio - k / lam))


def conditional_count_pmf_mp(lam, m, j):
    """Pmf of Poisson(lam) conditioned on being >= m, at point j."""
    if j < m:
        return mpmath.mpf(0)
    lam = mpmath.mpf(lam)
    return (lam ** j) * mpmath.e ** (-lam) / mpmath.factorial(j) / poisson_tail_mp(lam, m)


def conditional_count_expectation_mp(lam, m, g, top):
    """E g(N) for N ~ Poisson(lam) conditioned on N >= m, at 50 digits.

    g(j) is evaluated as given (pass an mpmath rule for an exact one) and
    the series is summed over m <= j <= top; the caller picks top far enough
    past the mode that the rest is negligible.
    """
    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        term = lam**m * mpmath.exp(-lam) / mpmath.factorial(m)
        total = mpmath.mpf(0)
        for j in range(m, top + 1):
            total += g(j) * term
            term = term * lam / (j + 1)
        return +(total / poisson_tail_mp(lam, m))


def conditional_count_mean_mp(lam, m):
    lam = mpmath.mpf(lam)
    return lam * poisson_tail_mp(lam, max(m - 1, 0)) / poisson_tail_mp(lam, m)


def assignment_cost_bruteforce(cost):
    """Min cost over all injections of the smaller side into the larger.

    cost is a 2-d array; returns the minimum total over all ways of
    matching every row to a distinct column (or vice versa when there
    are more rows than columns).  Exponential, keep dimensions <= 8.
    """
    cost = np.asarray(cost, dtype=float)
    r, c = cost.shape
    if r <= c:
        best = math.inf
        for perm in itertools.permutations(range(c), r):
            total = sum(cost[i, perm[i]] for i in range(r))
            best = min(best, total)
        return best
    return assignment_cost_bruteforce(cost.T)


def d1_bruteforce(a_locs, b_locs, metric):
    """Matching distance between location arrays via full enumeration."""
    a = np.asarray(a_locs, dtype=float)
    b = np.asarray(b_locs, dtype=float)
    n = max(len(a), len(b))
    if n == 0:
        return 0.0
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 0:
        return 1.0
    cost = np.array([[metric(x, y) for y in b] for x in a])
    return (assignment_cost_bruteforce(cost) + (len(b) - len(a))) / n


def count_chain_h(lam, m, g, top=200):
    """Solve the Poisson equation for the stationary count chain.

    The chain lives on {m, ..., top} with immigration rate lam and
    per-capita unit deaths gated at the floor; the top state reflects
    (no immigration out of it) so the truncated stationary law is the
    renormalised conditional Poisson weights.  Returns h with h[j - m],
    pinned so h(m) = 0, satisfying (A h)(j) = g(j) - pi(g).
    """
    states = np.arange(m, top + 1)
    logw = states * math.log(lam) - lam - np.array(
        [math.lgamma(j + 1) for j in states]
    )
    w = np.exp(logw - logw.max())
    pi = w / w.sum()
    gv = np.array([g(j) for j in states], dtype=float)
    pig = float(pi @ gv)
    n = states.size
    A = np.zeros((n, n))
    rhs = gv - pig
    for idx, j in enumerate(states):
        death = j if j > m else 0
        imm = lam if j < top else 0.0
        A[idx, idx] = -(imm + death)
        if j < top:
            A[idx, idx + 1] = imm
        if death:
            A[idx, idx - 1] = death
    A[0, :] = 0.0
    A[0, 0] = 1.0
    rhs[0] = 0.0
    return np.linalg.solve(A, rhs)


def transient_count_law(lam, m, start, t, top=260):
    """Transient law of the count chain at time t from a fixed start.

    Dense matrix exponential on the truncated generator; the truncation
    level just needs to dominate the mass at time t.
    """
    from scipy.linalg import expm

    states = np.arange(m, top + 1)
    n = states.size
    A = np.zeros((n, n))
    for idx, j in enumerate(states):
        death = j if j > m else 0
        imm = lam if j < top else 0.0
        A[idx, idx] = -(imm + death)
        if j < top:
            A[idx, idx + 1] = imm
        if death:
            A[idx, idx - 1] = death
    p0 = np.zeros(n)
    p0[start - m] = 1.0
    return states, p0 @ expm(A * t)


def cid_chain_events(tags, m, horizon, lam, stream, sample):
    """Events of the conditional immigration-death chain, one draw at a time.

    Per event: a holding-time uniform, a type uniform, then either one point
    from sample(stream, 1) or a victim-index uniform.  Deaths are suppressed
    at the floor m.  The simulator must match this loop event for event and
    leave its stream where this loop leaves it.
    """
    tags = list(tags)
    next_tag = max(tags, default=-1) + 1
    events, t = [], 0.0
    while True:
        count = len(tags)
        rate = lam + (count if count > m else 0)
        t += -math.log1p(-stream.uniform()) / rate
        if t >= horizon:
            return events
        if stream.uniform() * rate < lam:
            events.append((t, "immigration", next_tag, tuple(sample(stream, 1)[0])))
            tags.append(next_tag)
            next_tag += 1
        else:
            victim = min(int(stream.uniform() * count), count - 1)
            events.append((t, "death", tags.pop(victim), None))


def coupled_chain_events(
    initial, floors, lam, stream, sample, coefficients=None, f=None, horizon=None,
    max_events=10_000, timed=True,
):
    """The coupled union race of K chains, one event at a time.

    initial[c] is chain c's start (anything with an (n, d) array of
    locations) and floors[c] its floor.  Chains share points by multiset
    intersection: a start point's identity is its coordinates and its copy
    number among that location's copies in its chain, and identities are
    numbered first seen first over chains 0..K-1.  The live list holds every
    identity alive in at least one chain: the start's in number order, then
    immigrants appended, and an identity is swap-removed from it only once no
    chain holds it.  Events come at rate q, lam plus the live count.  Per
    event: when timed, a holding-time uniform; then a type uniform, then
    either one point from sample(stream, 1) or a victim-index uniform into
    the live list.  An immigrant joins every chain; a victim leaves every
    chain that holds it and sits above its floor.

    The integral is int sum_c coefficients[c] f(chain c) dt, summed in chain
    order, with f called on a chain's locations in identity order.  Untimed,
    each state is held 1/q, its mean holding time given the jump chain, in
    place of a drawn one; a horizon needs timed.  Without a
    horizon the run stops once every chain holds every live identity
    (coalescence); with one it runs to the horizon, and the coalescence time
    is the first time the chains agree.  A run that reaches max_events events
    first stops there, capped.

    Returns (integral, elapsed, events, coalescence time or None, capped,
    final counts) and the states: (time, each chain's identities in order) at
    the start and after every event.  The library's coupled engine must match
    this loop bit for bit and leave its stream where this loop leaves it.
    """
    dim = np.shape(initial[0].locations)[1]
    ids, where, chains = {}, {}, []
    for cfg in initial:
        chain, copies = set(), {}
        for loc in map(tuple, np.asarray(cfg.locations).tolist()):
            key = loc, copies.setdefault(loc, 0)
            copies[loc] += 1
            if key not in ids:
                ids[key] = len(ids)
                where[ids[key]] = loc
            chain.add(ids[key])
        chains.append(chain)
    live = list(where)
    next_tag = max(live, default=-1) + 1
    use_f = f is not None and coefficients is not None and any(coefficients)

    def phi():
        if not use_f:
            return 0.0
        terms = (
            coef * f(np.reshape([where[tag] for tag in sorted(chain)], (-1, dim)))
            for coef, chain in zip(coefficients, chains)
        )
        return functools.reduce(operator.add, terms)

    t, integral, tau, value = 0.0, 0.0, None, phi()
    states = [(t, tuple(tuple(sorted(chain)) for chain in chains))]
    for events in itertools.count():
        counts = tuple(len(chain) for chain in chains)
        if tau is None and min(counts) == len(live):
            tau = t
        if horizon is None and tau is not None:
            return (integral, t, events, tau, False, counts), states
        if events >= max_events:
            return (integral, t, events, tau, True, counts), states
        rate = lam + len(live)
        if timed:
            # numpy's log1p, as the engine's: math.log1p differs from it in
            # the last bit for about 7% of uniforms.
            dt = -np.log1p(-stream.uniform()) / rate
        else:
            dt = 1.0 / rate
        if horizon is not None and t + dt >= horizon:
            integral += (horizon - t) * value
            return (integral, horizon, events, tau, False, counts), states
        integral += dt * value
        t += dt
        if stream.uniform() * rate < lam:
            where[next_tag] = sample(stream, 1)[0]
            live.append(next_tag)
            for chain in chains:
                chain.add(next_tag)
            next_tag += 1
        else:
            slot = min(int(stream.uniform() * len(live)), len(live) - 1)
            victim = live[slot]
            for c in [c for c, n in enumerate(counts) if n > floors[c]]:
                chains[c].discard(victim)
            if not any(victim in chain for chain in chains):
                live[slot] = live[-1]
                live.pop()
        value = phi()
        states.append((float(t), tuple(tuple(sorted(chain)) for chain in chains)))


def replica_runs_one_by_one(
    derive_stream, initial, floors, coefficients, f, lam, sample, replicas, seed, max_events,
):
    """Per-replica (integral, capped, coalescence time) of a coupled estimate,
    one replica at a time.

    Replica r runs coupled_chain_events untimed on derive_stream(seed, r), from
    initial or, when initial is callable, from initial(r, stream) drawn first
    from that stream; f is called as coupled_chain_events calls it.  A replica
    that never coalesces reads NaN.  The library's replica driver must match
    this loop bit for bit.
    """
    out = np.empty((3, replicas))
    for r in range(replicas):
        stream = derive_stream(seed, r)
        start = initial(r, stream) if callable(initial) else initial
        (integral, _, _, tau, capped, _), _ = coupled_chain_events(
            start, floors, lam, stream, sample, coefficients, f, max_events=max_events,
            timed=False,
        )
        out[:, r] = integral, capped, math.nan if tau is None else tau
    return out[0], out[1].astype(bool), out[2]
