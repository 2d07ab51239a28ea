import dataclasses
import itertools
import math

import numpy as np
import pytest

from condpp import coupling
from condpp.coupling import (
    ConstantTestFunction,
    CountTestFunction,
    MatchingDistanceTestFunction,
    estimate_coalescence_time,
    estimate_delta2_h,
    estimate_delta_h,
    estimate_h,
    estimate_p_survival,
    estimate_pi_f,
    p_survival_analytic,
    reference_test_functions,
    run_coupled_chains,
    stein_residual,
    stein_residuals,
)
from condpp.groundspace import (
    Configuration,
    StreamRows,
    configuration_from_locations,
    derive_stream,
    empty_configuration,
    unit_cube,
    unit_interval,
)
from condpp.metrics import d1_bar
from condpp.simulate import conditional_count_pmf, sample_conditional_poisson
from condpp.verify import verify_delta_bounds
from oracles import count_chain_h, coupled_chain_events, replica_runs_one_by_one


def count_f_rule(j):
    return min(1.0, j / 10.0)


def log_rule(j):
    # increments log(1 + 1/(j+1)) <= 1/(j+1); never saturates
    return math.log1p(j)


def make_xi(lam, size, seed=0):
    space = unit_interval(lam)
    return configuration_from_locations(space.sample(derive_stream(seed, 123), size))


def on_locations(f):
    """f as the scalar oracle calls it: on one chain's locations in identity order."""
    if f is None:
        return None
    if f.needs_locations:
        return f.from_locations
    return lambda locs: f.from_count(len(locs))


def plus(cfg, point):
    """cfg with one more point, after its own."""
    return Configuration(np.vstack([cfg.locations, np.reshape(point, (1, -1))]))


def pair_initials(xi, alpha):
    """[xi + alpha, xi]: xi's points are shared by both chains."""
    return [plus(xi, alpha), xi]


def as_rows(initial, floors, space):
    """A job's initial as _run_replicas takes it: a callable returning the
    start row _start decodes from a configuration list, shared by every
    replica or drawn by initial(r, stream)."""
    if not callable(initial):
        row = coupling._start(initial, floors, space)
        return lambda r, stream: row
    return lambda r, stream: coupling._start(initial(r, stream), floors, space)


def engine_and_oracle(initial, floors, space, key, coefficients=None, f=None, **run):
    """The engine's run on derive_stream(*key) and the oracle's states.

    The oracle runs on a twin stream; both runs must agree bit for bit, and
    both streams must stand at the same place afterwards.
    """
    stream, twin = derive_stream(*key), derive_stream(*key)
    got = run_coupled_chains(initial, floors, space, stream, coefficients, f, **run)
    want, states = coupled_chain_events(
        initial, floors, space.total_mass, twin, space.sample, coefficients, on_locations(f),
        run.get("horizon"), run.get("max_events", coupling.DEFAULT_EVENT_CAP),
    )
    assert dataclasses.astuple(got) == want
    np.testing.assert_array_equal(stream.uniforms(5), twin.uniforms(5))
    return got, states


def run_one(start, stream, *args, **kwargs):
    """The engine's run of one row on StreamRows.of(stream); the stream then
    moves on past the uniforms the run used, as run_coupled_chains moves it."""
    run = coupling._run_batch([start], StreamRows.of(stream), *args, **kwargs)
    stream._skip(run[-1][0])
    return run


def coalesced(chains):
    return len(set(chains)) == 1


def domination_triple(xi):
    """Starts of (Z^(m) from xi, Z^(0) from xi, Z^(0) from empty), floors (m, 0, 0)."""
    return [xi, xi, empty_configuration(xi.dimension)]


def start_rows_against_decoded(space, xi, m, monkeypatch):
    """Each estimator's start rows at xi, as _run_batch receives them, must
    be the rows _start decodes from the matching configuration lists, and a
    drawn alpha or partner must take the replica's first uniforms: the
    engine's first uniform is the one after them."""
    f, replicas, seed, size, dim = CountTestFunction(count_f_rule), 3, 17, xi.size, xi.dimension
    a, b = np.full(dim, 0.25), np.full(dim, 0.75)
    with_a, base = pair_initials(xi, a)
    with_ab, with_b = plus(with_a, b), plus(base, b)

    def partner(r, twin):
        return [xi, sample_conditional_poisson(space, m, twin)]

    def stein(r, twin):
        i = r // replicas
        if i:
            return [base, Configuration(np.delete(base.locations, i - 1, axis=0))]
        return pair_initials(xi, space.sample_one(twin))

    deaths = size if size > m else 0
    cases = [
        (lambda: estimate_delta_h(f, xi, a, m, space, replicas, seed), 2, replicas,
         lambda r, twin: [with_a, base]),
        (lambda: estimate_delta2_h(f, xi, a, b, m, space, replicas, seed), 4, replicas,
         lambda r, twin: [with_ab, with_a, with_b, base]),
        (lambda: estimate_coalescence_time(xi, a, m, space, replicas, seed), 2, replicas,
         lambda r, twin: [with_a, base]),
        (lambda: estimate_h(f, xi, m, space, replicas, seed), 2, replicas, partner),
        (lambda: stein_residual(f, xi, m, space, replicas, seed), 2, replicas * (1 + deaths),
         stein),
    ]
    seen = []

    class Ran(Exception):
        pass

    def capture(starts, rows, *args, first, **kwargs):
        seen[:] = starts, rows, first
        raise Ran

    monkeypatch.setattr(coupling, "_run_batch", capture)
    for call, chains, n_rows, initial in cases:
        with pytest.raises(Ran):
            call()
        starts, rows, (block, used) = seen
        assert len(starts) == len(rows) == len(used) == n_rows
        for r, got in enumerate(starts):
            twin = derive_stream(seed, r)
            want = coupling._start(initial(r, twin), [m] * chains, space)
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)
            if used[r] < block.shape[1]:
                assert block[r, used[r]] == twin.uniform()
            else:  # the start drew the whole block; the engine reads on from the row
                assert rows.read([r], 1)[0, 0] == twin.uniform()


class TestTestFunctions:
    def test_reference_family_shape(self):
        space = unit_interval(3.0)
        family = reference_test_functions(space)
        assert len(family) == 4
        labels = [f.label for f in family]
        assert len(set(labels)) == 4
        empty = empty_configuration()
        for f in family:
            assert 0.0 <= f(empty) <= 1.0

    def test_count_rule_increment_validated(self):
        CountTestFunction(count_f_rule)  # fine
        with pytest.raises(ValueError):
            CountTestFunction(lambda j: float(j))  # increments of 1

    @pytest.mark.parametrize(
        "rule",
        [lambda j: math.nan, lambda j: math.inf, lambda j: -math.inf,
         lambda j: math.nan if j == 500 else 0.0],
        ids=["nan", "inf", "-inf", "nan-at-500"],
    )
    def test_count_rule_must_be_finite(self, rule):
        with pytest.raises(ValueError, match="Lipschitz increment"):
            CountTestFunction(rule)

    def test_constant_function(self):
        f = ConstantTestFunction(0.7)
        assert f(empty_configuration()) == 0.7
        assert f(make_xi(2.0, 3)) == 0.7

    def test_matching_distance_function_is_lipschitz(self):
        space = unit_interval(2.0)
        stream = derive_stream(9, 0)
        ref = configuration_from_locations(space.sample(stream, 3))
        f = MatchingDistanceTestFunction(ref, space)
        for _ in range(100):
            a = configuration_from_locations(space.sample(stream, 1 + stream.integer(5)))
            b = configuration_from_locations(space.sample(stream, 1 + stream.integer(5)))
            assert abs(f(a) - f(b)) <= d1_bar(a, b, space) + 1e-12

    @pytest.mark.parametrize(
        "space", [unit_interval(3.0), unit_cube(3.0, dimension=2)], ids=["line", "square"]
    )
    def test_matching_function_is_d1_bar_bit_for_bit(self, space):
        # configurations the size of the five-point reference are the case
        # where the operand order is not fixed by the sizes alone
        f = reference_test_functions(space)[2]
        stream = derive_stream(14, 0)
        for _ in range(300):
            xi = configuration_from_locations(space.sample(stream, 5))
            assert f(xi) == d1_bar(xi, f.reference, space)

    @pytest.mark.parametrize("ref_size", [0, 1, 5])
    @pytest.mark.parametrize(
        "space", [unit_interval(3.0), unit_cube(3.0, dimension=2)], ids=["line", "square"]
    )
    def test_from_rows_matches_from_locations_bit_for_bit(self, space, ref_size):
        # A block as the engine hands it: row r's chain holds r % 13 of its
        # 12 slots, in scattered slots, so chains sit below, at and above the
        # reference size and row 0 is the empty chain; every third row
        # repeats a point.  The square takes the default loop.
        stream = derive_stream(15, ref_size)
        ref = configuration_from_locations(
            space.sample(stream, ref_size), dimension=space.dimension
        )
        f = MatchingDistanceTestFunction(ref, space)
        rows, width = 39, 12
        locations = space.sample(stream, rows * width).reshape(rows, width, space.dimension)
        locations[::3, 1] = locations[::3, 0]
        rank = stream.uniforms(rows * width).reshape(rows, width).argsort(axis=1).argsort(axis=1)
        member = rank < (np.arange(rows) % (width + 1))[:, None]
        got = f.from_rows(locations, member, member.sum(axis=1))
        want = [f.from_locations(a[m]) for a, m in zip(locations, member)]
        assert got.dtype == np.float64
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "points", [[[1.5]], [[math.nan]], [[0.5], [-0.25]], [[0.5, 0.5]]],
        ids=["off", "nan", "one-of-two-off", "plane-point"],
    )
    def test_matching_function_refuses_a_reference_off_the_space(self, points):
        reference = Configuration(np.array(points))
        with pytest.raises(ValueError, match="reference"):
            MatchingDistanceTestFunction(reference, unit_interval(3.0))

    def test_count_function_adjacent_size_gap(self):
        # adding one point moves d1 by at least 1/(j+1), which is exactly
        # the allowed count-rule increment
        space = unit_interval(2.0)
        f = CountTestFunction(count_f_rule)
        stream = derive_stream(10, 0)
        for _ in range(50):
            a = configuration_from_locations(space.sample(stream, 1 + stream.integer(8)))
            b = plus(a, space.sample_one(stream))
            assert abs(f(a) - f(b)) <= d1_bar(a, b, space) + 1e-12


class TestCoupledRunMechanics:
    """Pathwise properties of the union race, checked on the oracle's states;
    engine_and_oracle carries each to the engine."""

    def test_pair_stops_at_coalescence(self):
        space = unit_interval(2.0)
        xi = make_xi(2.0, 2)
        initial = pair_initials(xi, np.array([0.4]))
        run, states = engine_and_oracle(initial, [1, 1], space, (3, 0))
        assert run.coalescence_time is not None
        assert run.coalescence_time == run.elapsed
        assert not run.capped
        assert run.final_counts[0] == run.final_counts[1]
        assert coalesced(states[-1][1])

    def test_coalesced_state_is_absorbing(self):
        space = unit_interval(2.0)
        xi = make_xi(2.0, 2, seed=5)
        upper = plus(xi, [0.3])
        run, states = engine_and_oracle([upper, xi], [1, 1], space, (4, 0), horizon=12.0)
        merged = [coalesced(chains) for _, chains in states]
        assert any(merged)  # twelve mean lifetimes is plenty at lam = 2
        assert all(merged[merged.index(True):])
        assert run.coalescence_time == states[merged.index(True)][0]

    def test_coalescence_time_is_first_merge(self):
        space = unit_interval(2.0)
        xi = make_xi(2.0, 1, seed=6)
        initial = pair_initials(xi, np.array([0.8]))
        run, states = engine_and_oracle(initial, [1, 1], space, (5, 0))
        pre = [chains for time, chains in states if time < run.coalescence_time]
        assert all(not coalesced(chains) for chains in pre)

    def test_shared_immigrations_enter_every_chain(self):
        space = unit_interval(3.0)
        xi = make_xi(3.0, 2, seed=7)
        initial = pair_initials(xi, np.array([0.5]))
        _, states = engine_and_oracle(initial, [1, 1], space, (6, 0))
        arrivals = 0
        for (_, before), (_, after) in zip(states, states[1:]):
            new = set().union(*after) - set().union(*before)
            assert all(new <= set(chain) for chain in after)
            arrivals += len(new)
        assert arrivals

    def test_event_cap_flags_run(self):
        space = unit_interval(2.0)
        xi = make_xi(2.0, 2, seed=8)
        run = run_coupled_chains(
            [plus(xi, [0.2]), xi],
            [1, 1],
            space,
            derive_stream(7, 0),
            max_events=2,
        )
        assert run.capped
        assert run.coalescence_time is None
        assert run.events <= 2

    def test_single_chain_marginal_is_cid_law(self):
        # one chain inside the union-race machinery must reproduce the
        # plain chain's transient count law
        from condpp.simulate import count_tv_distance
        from oracles import transient_count_law

        lam, m, start, t = 3.0, 1, 5, 1.0
        space = unit_interval(lam)
        stream = derive_stream(70, 0)
        init = configuration_from_locations(space.sample(stream, start))
        finals = np.empty(8000, dtype=int)
        for r in range(finals.size):
            run = run_coupled_chains(
                [init], [m], space, derive_stream(71, r), horizon=t,
            )
            finals[r] = run.final_counts[0]
        states, law = transient_count_law(lam, m, start, t, top=60)
        freq = np.bincount(finals, minlength=states[-1] + 1)[m:] / finals.size
        assert 0.5 * np.abs(freq - law).sum() < 0.02

    @pytest.mark.parametrize("dim,horizon", [(1, None), (1, 0.7), (2, None)])
    def test_run_leaves_its_stream_after_its_last_draw(self, dim, horizon):
        # A run reads its stream ahead in blocks; the uniforms it did not use
        # must be the next ones the stream hands out.
        space = unit_cube(3.0, dim)
        xi = configuration_from_locations(space.sample(derive_stream(9, 0), 2))
        initial = pair_initials(xi, np.full(dim, 0.5))
        stream = derive_stream(12, dim)
        run = run_coupled_chains(initial, [1, 1], space, stream, horizon=horizon)
        _, states = coupled_chain_events(
            initial, [1, 1], space.total_mass, derive_stream(12, dim), space.sample,
            horizon=horizon,
        )
        assert len(states) == run.events + 1
        seen = [set().union(*chains) for _, chains in states]
        arrivals = sum(1 for a, b in zip(seen, seen[1:]) if b - a)
        # holding time and event type, then a location or a victim uniform;
        # a horizon also takes the holding time that overshoots it
        used = 2 * run.events + dim * arrivals + (run.events - arrivals) + (horizon is not None)
        want = derive_stream(12, dim).uniforms(used + 5)[used:]
        np.testing.assert_array_equal(stream.uniforms(5), want)

    def test_floor_validation(self):
        space = unit_interval(2.0)
        with pytest.raises(ValueError):
            run_coupled_chains([make_xi(2.0, 1)], [2], space, derive_stream(0, 0))

    @pytest.mark.parametrize("points", [[[1.5]], [[math.nan]], [[0.5], [1.5]]])
    def test_chain_off_the_space_is_refused_before_any_run(self, points):
        chain = Configuration(np.array(points))
        stream = derive_stream(0, 0)
        with pytest.raises(ValueError, match="chain 0's points must lie in the space"):
            run_coupled_chains([chain], [0], unit_interval(3.0), stream, horizon=2.0)
        assert stream.uniform() == derive_stream(0, 0).uniform()

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            run_coupled_chains(
                [make_xi(2.0, 1)], [0], unit_interval(2.0), derive_stream(0, 0), horizon=horizon
            )


class TestStartMasks:
    """_start keys a point by its coordinates and its copy number among
    that location's copies in its chain: chains share points by multiset
    intersection, first seen first over chains 0..K-1."""

    def test_start_masks_on_the_line(self):
        space = unit_interval(2.0)
        chains = [[0.2, 0.5, 0.5, 0.9], [0.5, 0.2], [0.5, 0.5, 0.5, 0.1], []]
        initial = [configuration_from_locations(c, dimension=1) for c in chains]
        masks, locs = coupling._start(initial, [0, 0, 0, 0], space)
        np.testing.assert_array_equal(masks, [0b011, 0b111, 0b101, 0b001, 0b100, 0b100])
        np.testing.assert_array_equal(locs, [[0.2], [0.5], [0.5], [0.9], [0.5], [0.1]])
        assert masks.dtype == np.int64

    def test_start_masks_in_the_square(self):
        space = unit_cube(2.0, dimension=2)
        initial = [
            Configuration(np.array([[0.2, 0.3], [0.2, 0.4], [0.2, 0.4]])),
            Configuration(np.array([[0.2, 0.4], [0.3, 0.2]])),
        ]
        masks, locs = coupling._start(initial, [1, 1], space)
        np.testing.assert_array_equal(masks, [0b01, 0b11, 0b01, 0b10])
        np.testing.assert_array_equal(locs, [[0.2, 0.3], [0.2, 0.4], [0.2, 0.4], [0.3, 0.2]])

    def test_start_masks_of_empty_chains(self):
        masks, locs = coupling._start([empty_configuration(2)] * 2, [0, 0], unit_cube(2.0, 2))
        assert masks.shape == (0,) and locs.shape == (0, 2)


class TestEngineAgainstOracle:
    """The engine against the scalar union race (oracles.coupled_chain_events)
    bit for bit: integral, elapsed, events, coalescence time, capped flag,
    final counts and where the run leaves its stream."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("functional", ["count", "matching", "none"])
    def test_engine_matches_the_scalar_oracle(self, functional, k, dim):
        space = unit_cube(3.0, dim)
        at = space.sample(derive_stream(99, dim), 5)
        # Nested, overlapping and empty starts, under floors that bind.
        initial = [
            Configuration(at[:4]),
            Configuration(at[:3]),
            Configuration(at[[1, 2, 4]]),
            empty_configuration(dim),
        ][:k]
        floors = [2, 1, 1, 0][:k]
        f = {
            "count": CountTestFunction(count_f_rule),
            "matching": reference_test_functions(space)[2],
            "none": None,
        }[functional]
        coefficients = None if f is None else (1.0, -1.0, -1.0, 1.0)[:k]
        runs = [
            engine_and_oracle(
                initial, floors, space, (7, seed), coefficients, f,
                horizon=horizon, max_events=max_events,
            )[0]
            for horizon, max_events, seed in itertools.product(
                (None, 2.0), (coupling.DEFAULT_EVENT_CAP, 6), range(3)
            )
        ]
        assert any(run.capped for run in runs) and not all(run.capped for run in runs)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("functional", ["count", "matching", "none"])
    def test_untimed_engine_matches_the_scalar_oracle(self, functional, k, dim):
        # The estimators' rule: no holding-time uniform, each state held 1/q.
        space = unit_cube(3.0, dim)
        at = space.sample(derive_stream(98, dim), 5)
        initial = [
            Configuration(at[:4]), Configuration(at[[0, 1, 3]]), Configuration(at[:3]),
            Configuration(at[[0, 4]]),
        ][:k]
        floors = [2, 1, 1, 0][:k]
        f = {
            "count": CountTestFunction(log_rule),
            "matching": reference_test_functions(space)[2],
            "none": None,
        }[functional]
        coefficients = None if f is None else (1.0, -1.0, -1.0, 1.0)[:k]
        capped = []
        for max_events, seed in itertools.product((coupling.DEFAULT_EVENT_CAP, 3), range(4)):
            stream, twin = derive_stream(8, seed), derive_stream(8, seed)
            run = run_one(
                coupling._start(initial, floors, space), stream, floors, space, coefficients, f,
                max_events=max_events,
            )
            integral, elapsed, events, tau, cap, counts, _ = (a[0] for a in run)
            got = (
                float(integral), float(elapsed), int(events),
                None if np.isnan(tau) else float(tau), bool(cap), tuple(counts.tolist()),
            )
            want, _ = coupled_chain_events(
                initial, floors, space.total_mass, twin, space.sample, coefficients,
                on_locations(f), max_events=max_events, timed=False,
            )
            assert got == want
            np.testing.assert_array_equal(stream.uniforms(5), twin.uniforms(5))
            capped.append(cap)
        assert any(capped) and not all(capped)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("functional", ["count", "matching", "none"])
    @pytest.mark.parametrize("lam, floors", [(3.0, [2, 1, 0]), (0.3, [0, 0, 0])])
    def test_batch_rows_match_their_runs_alone(self, lam, floors, functional, dim):
        # Rows stop at different steps and stay in place, frozen, until at
        # most half the batch is live: each row's outputs, the uniforms it
        # used and its functional evaluations must be those of its run
        # alone, untimed, timed to a horizon and under an event cap.  At
        # floor 0 many rows stop empty while the rest run on.
        space = unit_cube(lam, dim)
        at = space.sample(derive_stream(97, dim), 4)
        initial = [Configuration(at), Configuration(at[:2]), empty_configuration(dim)]
        f = {
            "count": CountTestFunction(log_rule),
            "matching": MatchingDistanceTestFunction(Configuration(at[1:]), space),
            "none": None,
        }[functional]
        evaluated = []
        if functional == "matching":
            from_rows = f.from_rows
            f.from_rows = lambda locs, member, sizes: (
                evaluated.append(len(sizes)) or from_rows(locs, member, sizes)
            )
        start, keys = coupling._start(initial, floors, space), range(40)
        for horizon, timed, max_events in [(None, False, 10_000), (3.0, True, 10_000),
                                           (None, False, 25), (6.0, True, 40)]:
            run = lambda rows: coupling._run_batch(
                [start] * len(rows), rows, floors, space, (1.0, -0.5, -0.5), f,
                horizon=horizon, timed=timed, max_events=max_events,
            )
            evaluated.clear()
            got = run(StreamRows([(41, keys)]))
            in_batch = sum(evaluated)
            for r in keys:
                alone = run(StreamRows([(41, [r])]))
                for g, w in zip(got, alone, strict=True):
                    np.testing.assert_array_equal(g[r], w[0])
            assert in_batch == sum(evaluated) - in_batch
            assert len(set(got[2].tolist())) > 3  # rows stopped at many steps

    @pytest.mark.parametrize("dim", [1, 2])
    def test_untimed_run_reads_no_holding_uniform(self, dim):
        # Untimed, an immigration reads 1 + dim uniforms and a death 2, and a
        # state left at rate q adds exactly 1/q to the elapsed time.
        space = unit_cube(5.0, dim)
        xi = configuration_from_locations(space.sample(derive_stream(9, 1), 6))
        initial, floors = pair_initials(xi, np.full(dim, 0.5)), [1, 1]
        moves = [0, 0]
        for seed in range(4):
            stream = derive_stream(13, seed)
            run = run_one(
                coupling._start(initial, floors, space), stream, floors, space, None, None,
                max_events=coupling.DEFAULT_EVENT_CAP,
            )
            events, elapsed = int(run[2][0]), float(run[1][0])
            _, states = coupled_chain_events(
                initial, floors, space.total_mass, derive_stream(13, seed), space.sample,
                timed=False,
            )
            assert len(states) == events + 1
            seen = [set().union(*chains) for _, chains in states]
            arrivals = sum(1 for a, b in zip(seen, seen[1:]) if b - a)
            used = events + dim * arrivals + (events - arrivals)
            want = derive_stream(13, seed).uniforms(used + 5)[used:]
            np.testing.assert_array_equal(stream.uniforms(5), want)
            total = 0.0
            for ids in seen[:-1]:
                total += 1.0 / (space.total_mass + len(ids))
            assert elapsed == total
            moves[0] += arrivals
            moves[1] += events - arrivals
        assert min(moves) > 2


class TestDominationTriple:
    """Under the shared event stream (Z^(m) from xi, Z^(0) from xi, Z^(0)
    from empty) stay ordered, event by event on the oracle's states."""

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_ordered_pathwise(self, seed):
        space = unit_interval(2.0)
        xi = make_xi(2.0, 3, seed=seed)
        run, states = engine_and_oracle(
            domination_triple(xi), [2, 0, 0], space, (30, seed), horizon=6.0
        )
        for _, chains in states:
            floored, free, from_empty = map(len, chains)
            assert floored >= free >= from_empty
        assert run.final_counts[0] >= run.final_counts[1] >= run.final_counts[2]

    def test_contained_identities(self):
        space = unit_interval(2.0)
        xi = make_xi(2.0, 3, seed=11)
        _, states = engine_and_oracle(
            domination_triple(xi), [2, 0, 0], space, (31, 0), horizon=5.0
        )
        for _, (floored, free, from_empty) in states:
            assert set(free) <= set(floored)
            assert set(from_empty) <= set(free)


class TestEstimatorsAgainstCountChain:
    """The count functional makes every h computable by a dense solve."""

    LAM, M = 3.0, 1

    @classmethod
    def setup_class(cls):
        cls.space = unit_interval(cls.LAM)
        cls.h = count_chain_h(cls.LAM, cls.M, count_f_rule)
        cls.f = CountTestFunction(count_f_rule)

    def test_delta_h_matches_solver(self):
        xi = make_xi(self.LAM, 1)
        est = estimate_delta_h(
            self.f, xi, np.array([0.5]), self.M, self.space, replicas=6000, seed=71
        )
        want = self.h[1] - self.h[0]  # one point above the floor
        assert est.capped == 0
        assert abs(est.estimate - want) < 4.0 * est.se

    def test_delta_h_matches_solver_larger_xi(self):
        xi = make_xi(self.LAM, 2, seed=1)
        est = estimate_delta2_h(
            self.f, xi, np.array([0.2]), np.array([0.7]), self.M, self.space,
            replicas=6000, seed=72,
        )
        want = self.h[3] - 2.0 * self.h[2] + self.h[1]
        assert abs(est.estimate - want) < 4.0 * est.se

    def test_second_difference_matches_solver(self):
        xi = make_xi(self.LAM, 1, seed=2)
        est = estimate_delta2_h(
            self.f, xi, np.array([0.3]), np.array([0.9]), self.M, self.space,
            replicas=6000, seed=73,
        )
        want = self.h[2] - 2.0 * self.h[1] + self.h[0]
        assert abs(est.estimate - want) < 4.0 * est.se

    def test_h_differences_match_solver(self):
        xi1 = make_xi(self.LAM, 1, seed=3)
        xi2 = plus(xi1, [0.5])
        a = estimate_h(self.f, xi1, self.M, self.space, replicas=5000, seed=74)
        b = estimate_h(self.f, xi2, self.M, self.space, replicas=5000, seed=75)
        want = self.h[1] - self.h[0]
        se = math.hypot(a.se, b.se)
        assert abs((b.estimate - a.estimate) - want) < 4.0 * se

    def test_h_is_centered_under_stationary_law(self):
        # E_pi h = 0 because the partner chain supplies the pi(f) constant
        stream = derive_stream(76, 0)
        vals = []
        ses = []
        for i in range(40):
            xi = sample_conditional_poisson(self.space, self.M, stream)
            est = estimate_h(self.f, xi, self.M, self.space, replicas=250, seed=77 + i)
            vals.append(est.estimate)
            ses.append(est.se)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(mean) < 4.0 * se

    def test_constant_function_gives_exact_zeros(self):
        xi = make_xi(self.LAM, 2, seed=4)
        f = ConstantTestFunction(2.5)
        d1 = estimate_delta_h(f, xi, np.array([0.5]), self.M, self.space, 200, 1)
        d2 = estimate_delta2_h(
            f, xi, np.array([0.2]), np.array([0.8]), self.M, self.space, 200, 2
        )
        assert d1.estimate == 0.0 and d1.se == 0.0
        assert d2.estimate == 0.0 and d2.se == 0.0

    def test_capped_replicas_reported(self):
        xi = make_xi(self.LAM, 1, seed=5)
        est = estimate_delta_h(
            self.f, xi, np.array([0.5]), self.M, self.space,
            replicas=50, seed=78, max_events=2,
        )
        assert est.capped > 0
        # the four-chain estimator honours the cap too
        est = estimate_delta2_h(
            self.f, xi, np.array([0.5]), np.array([0.2]), self.M, self.space,
            replicas=50, seed=78, max_events=2,
        )
        assert 0 < est.capped < est.replicas

    def test_all_capped_is_refused(self):
        # no completed replica leaves nothing to inflate by: refuse, not 0 +- 0
        xi = make_xi(self.LAM, 1, seed=5)
        a, b = np.array([0.5]), np.array([0.2])
        args = (self.M, self.space, 50, 78)
        calls = (
            lambda: estimate_delta_h(self.f, xi, a, *args, max_events=0),
            lambda: estimate_delta2_h(self.f, xi, a, b, *args, max_events=0),
            lambda: estimate_h(self.f, xi, *args, max_events=0),
            lambda: stein_residual(self.f, xi, *args, max_events=0),
            lambda: estimate_coalescence_time(xi, a, *args, max_events=0),
        )
        for call in calls:
            with pytest.raises(RuntimeError):
                call()


class TestSteinResidual:
    def test_residual_vanishes_within_error(self):
        space = unit_interval(2.0)
        xi = make_xi(2.0, 2, seed=20)
        f = CountTestFunction(count_f_rule)
        est = stein_residual(f, xi, 1, space, replicas=3000, seed=80)
        assert est.se > 0.0
        assert abs(est.estimate) < 4.0 * est.se

    def test_residual_at_floor_drops_death_terms(self):
        # at |xi| = m the death sum is empty; the identity still closes
        space = unit_interval(2.0)
        xi = make_xi(2.0, 1, seed=21)
        f = CountTestFunction(count_f_rule)
        est = stein_residual(f, xi, 1, space, replicas=3000, seed=81)
        assert abs(est.estimate) < 4.0 * est.se

    def test_capped_counts_replicas_not_component_runs(self):
        # A replica is capped when any of its 1 + |xi| component runs is, so
        # the count never exceeds the replicas and the fraction stays <= 1.
        space = unit_interval(3.0)
        xi = make_xi(3.0, 2, seed=20)
        f = CountTestFunction(count_f_rule)
        est = stein_residual(f, xi, 1, space, 30, 15, max_events=3)
        assert 0 < est.capped <= est.replicas
        assert est.capped_fraction <= 1.0

    def test_stein_residuals_match_per_size(self, monkeypatch):
        # One engine pass over sizes at, one above and three above the floor
        # gives each size bit for bit what its own stein_residual gives;
        # batches of 5 rows split inside every size's components.
        space, f = unit_interval(3.0), CountTestFunction(count_f_rule)
        xis = [make_xi(3.0, size, seed=40 + size) for size in (1, 2, 4)]
        seeds = [1000, 2000, 3000]
        alone = [stein_residual(f, xi, 1, space, 13, seed) for xi, seed in zip(xis, seeds)]
        monkeypatch.setattr(coupling, "_BATCH_ROWS", 5)
        together = stein_residuals(f, xis, 1, space, 13, seeds)
        capped = stein_residuals(f, xis, 1, space, 13, seeds, max_events=4)
        monkeypatch.undo()
        capped_alone = [
            stein_residual(f, xi, 1, space, 13, seed, max_events=4)
            for xi, seed in zip(xis, seeds)
        ]
        for got, want in zip(together + capped, alone + capped_alone):
            assert (got.estimate, got.se, got.capped) == (want.estimate, want.se, want.capped)
            assert (got.replicas, got.seed) == (want.replicas, want.seed)
        assert any(est.capped for est in capped)

    def test_stein_residuals_checks_before_any_run(self, monkeypatch):
        space, f = unit_interval(3.0), CountTestFunction(count_f_rule)
        xis = [make_xi(3.0, 2), make_xi(3.0, 1)]
        monkeypatch.setattr(coupling, "_run_batch", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(ValueError, match="floor"):
            stein_residuals(f, xis, 2, space, 10, [1, 2])
        with pytest.raises(ValueError, match="one seed per"):
            stein_residuals(f, xis[:1], 1, space, 10, [1, 2])
        with pytest.raises(ValueError, match="2 replicas"):
            stein_residuals(f, xis[:1], 1, space, 1, [1])

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("extra", [0, 1, 3])
    def test_stein_rows_equal_decoded_starts(self, dim, extra, monkeypatch):
        # Every estimator's start rows, not only the generator residual's,
        # at |xi| = m + extra above the floor m = 2 and at an empty xi, m = 0.
        space = unit_cube(3.0, dim)
        xi = configuration_from_locations(space.sample(derive_stream(9, extra), 2 + extra))
        start_rows_against_decoded(space, xi, 2, monkeypatch)
        start_rows_against_decoded(space, empty_configuration(dim), 0, monkeypatch)

    def test_count_functional_reads_pi_f_exactly(self, monkeypatch):
        # No pi(f) stream is drawn: the residual subtracts the count law's
        # exact pi(f), and its SE^2 is the coupled components' variances.
        space, f, replicas = unit_interval(3.0), CountTestFunction(count_f_rule), 20
        xis = [make_xi(3.0, size, seed=50 + size) for size in (1, 3)]
        parts = []

        def recorded(*args, **kwargs):
            parts.append(contrast(*args, **kwargs))
            return parts[-1]

        contrast = coupling._contrast_estimate
        monkeypatch.setattr(coupling, "_contrast_estimate", recorded)
        monkeypatch.setattr(coupling, "estimate_pi_f", lambda *a, **k: pytest.fail("drew pi(f)"))
        ests = stein_residuals(f, xis, 1, space, replicas, [60, 61])
        pi_f = conditional_count_pmf(3.0, 1).expectation(count_f_rule)
        for est, xi in zip(ests, xis):  # no death terms at the floor
            n = 1 + (xi.size if xi.size > 1 else 0)
            imm, *deaths = parts[:n]
            del parts[:n]
            want = 3.0 * imm.estimate - sum(d.estimate for d in deaths) - (f(xi) - pi_f)
            assert est.estimate == pytest.approx(want, rel=1e-12, abs=1e-15)
            var = (3.0 * imm.se) ** 2 + sum(d.se**2 for d in deaths)
            assert est.se**2 == pytest.approx(var, rel=1e-12)
        assert parts == []

    def test_matching_functional_still_estimates_pi_f(self, monkeypatch):
        space, replicas = unit_interval(3.0), 12
        f, xi = reference_test_functions(space)[1], make_xi(3.0, 2, seed=52)
        calls = []

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return pi_f(*args, **kwargs)

        pi_f = coupling.estimate_pi_f
        monkeypatch.setattr(coupling, "estimate_pi_f", recorded)
        est = stein_residual(f, xi, 1, space, replicas, 62)
        assert calls == [((f, 1, space, replicas, 62), {"stream_offset": 3 * replicas})]
        assert est.se > pi_f(f, 1, space, replicas, 62, stream_offset=3 * replicas).se

    def test_pi_f_estimate_agrees_with_the_exact_expectation(self):
        space, f = unit_interval(3.0), CountTestFunction(log_rule)
        est = estimate_pi_f(f, 1, space, replicas=5000, seed=83)
        exact = conditional_count_pmf(3.0, 1).expectation(log_rule)
        assert abs(est.estimate - exact) < 3.0 * est.se

    def test_pi_f_matches_count_law(self):
        space = unit_interval(3.0)
        f = CountTestFunction(count_f_rule)
        est = estimate_pi_f(f, 1, space, replicas=20_000, seed=82)
        from condpp.simulate import conditional_count_pmf

        law = conditional_count_pmf(3.0, 1)
        want = sum(count_f_rule(j) * law.pmf(j) for j in range(1, 120))
        assert abs(est.estimate - want) < 4.0 * est.se

    @pytest.mark.parametrize("seed, offset, m", [(3, 0, 1), (11, 40, 1), (82, 7, 2), (5, 13, 0)])
    def test_pi_f_from_counts_equals_located_draws(self, seed, offset, m, monkeypatch):
        # A count functional and a matching functional alike read every
        # replica's whole Po^(m) draw.
        space, replicas = unit_interval(3.0), 25
        located = []

        def sample(*args):
            located.append(sample_conditional_poisson(*args))
            return located[-1]

        monkeypatch.setattr(coupling, "sample_conditional_poisson", sample)
        for f in (CountTestFunction(count_f_rule), reference_test_functions(space)[2]):
            located.clear()
            est = estimate_pi_f(f, m, space, replicas, seed, stream_offset=offset)
            draws = [
                sample_conditional_poisson(space, m, derive_stream(seed, offset + r))
                for r in range(replicas)
            ]
            vals = np.array([f(draw) for draw in draws])
            assert est.estimate == float(vals.mean())
            assert est.se == float(vals.std(ddof=1) / math.sqrt(replicas))
            assert located == draws


class TestCoalescence:
    def test_floor_zero_extra_point_lifetime_is_standard_exponential(self):
        # with no death gating the surplus point dies at unit rate, so the
        # pair coalesces at an Exp(1) time exactly
        space = unit_interval(2.0)
        xi = make_xi(2.0, 2, seed=22)
        est = estimate_coalescence_time(
            xi, np.array([0.6]), 0, space, replicas=2000, seed=83
        )
        assert est.capped == 0
        assert abs(est.estimate - 1.0) < 3.0 * est.se

    def test_gating_slows_coalescence(self):
        space = unit_interval(1.0)
        xi = make_xi(1.0, 1, seed=23)
        free = estimate_coalescence_time(
            xi, np.array([0.6]), 0, space, replicas=1500, seed=84
        )
        gated = estimate_coalescence_time(
            xi, np.array([0.6]), 1, space, replicas=1500, seed=84
        )
        # death suppression at the floor can only delay the merge
        assert gated.estimate > free.estimate

    def test_replica_floor_enforced(self):
        space = unit_interval(2.0)
        with pytest.raises(ValueError):
            estimate_coalescence_time(
                make_xi(2.0, 1), np.array([0.6]), 0, space, replicas=1, seed=0
            )


class TestPSurvival:
    @pytest.mark.parametrize("lam,k", [(2.0, 1), (2.0, 2), (5.0, 2)])
    def test_estimate_matches_analytic(self, lam, k):
        est = estimate_p_survival(lam, k, min(k, 1), replicas=20_000, seed=85)
        assert abs(est.estimate - p_survival_analytic(lam, k)) < 4.0 * est.se

    def test_floor_does_not_enter_the_excursion(self):
        # the excursion lives above k >= m, so any admissible floor gives
        # the same law; estimates must agree within joint error
        ests = [
            estimate_p_survival(2.0, 2, m, replicas=20_000, seed=86 + m)
            for m in (0, 1, 2)
        ]
        for a, b in zip(ests, ests[1:]):
            assert abs(a.estimate - b.estimate) < 4.0 * math.hypot(a.se, b.se)

    def test_k_zero_is_certain_death(self):
        est = estimate_p_survival(3.0, 0, 0, replicas=500, seed=87)
        assert est.estimate == 0.0

    def test_replica_floor_enforced(self):
        with pytest.raises(ValueError):
            estimate_p_survival(2.0, 1, 0, replicas=50, seed=0)
        with pytest.raises(ValueError):
            estimate_p_survival(2.0, 1, 2, replicas=200, seed=0)


@pytest.mark.parametrize("replicas", [1, 2.5, 150.5])
def test_replica_counts_are_refused_before_any_run(replicas, monkeypatch):
    # One rule, checked at every entry before any stream is seeded or xi
    # drawn: a count below the entry's minimum (2, or 100 for survival) or
    # not a whole number is refused.
    from condpp import bernoulli_app, verify

    draws = []
    record = lambda *a, **k: draws.append(a)
    for module, name in [(coupling, "StreamRows"), (coupling, "derive_stream"),
                         (verify, "derive_stream"), (bernoulli_app, "derive_stream")]:
        monkeypatch.setattr(module, name, record)
    space, f, xi = unit_interval(3.0), CountTestFunction(count_f_rule), make_xi(3.0, 2)
    row = coupling._start(pair_initials(xi, [0.5]), [1, 1], space)
    law = bernoulli_app.conditional_poisson_law(space, 1)
    entries = [
        lambda: verify.verify_stein(lam=3.0, m=1, replicas=replicas),
        lambda: verify.verify_delta_bounds(3.0, 1, n_scenarios=1, replicas=replicas),
        lambda: verify.verify_p_survival(replicas=replicas),
        lambda: coupling._run_replicas(
            [(lambda r, reader: row, 1, replicas)], [1, 1], None, None, space, max_events=10
        ),
        lambda: estimate_delta_h(f, xi, [0.5], 1, space, replicas, 0),
        lambda: estimate_h(f, xi, 1, space, replicas, 0),
        lambda: stein_residuals(f, [xi], 1, space, replicas, [1]),
        lambda: estimate_pi_f(f, 1, space, replicas, 0),
        lambda: estimate_p_survival(2.0, 1, 0, replicas, 0),
        lambda: bernoulli_app.self_distance_calibration(law, 10, replicas, 0, space),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="replicas"):
            entry()
    assert draws == []


def test_a_whole_replica_count_given_as_a_float_runs_as_its_int():
    space, f, xi = unit_interval(3.0), CountTestFunction(count_f_rule), make_xi(3.0, 2)
    runs = [
        lambda n: estimate_delta_h(f, xi, [0.5], 1, space, n, 3),
        lambda n: estimate_coalescence_time(xi, [0.5], 1, space, n, 3),
        lambda n: stein_residual(f, xi, 1, space, n, 3),
        lambda n: estimate_pi_f(f, 1, space, n, 3),
        lambda n: estimate_p_survival(2.0, 1, 0, 10 * n, 3),
    ]
    for run in runs:
        assert run(12.0) == run(12)
        assert type(run(12.0).replicas) is int


def test_estimators_refuse_bad_points_before_any_run(monkeypatch):
    space, plane = unit_interval(3.0), unit_cube(3.0, 2)
    f, xi, a = CountTestFunction(count_f_rule), make_xi(3.0, 2), np.array([0.5])
    flat = configuration_from_locations(plane.sample(derive_stream(0, 1), 2))
    alpha_off, beta_off, nan = "alpha_location must lie", "beta_location must lie", math.nan
    nan_xi = Configuration(np.array([[0.5], [nan]]))
    off_xi = Configuration(np.array([[0.5], [1.5]]))
    monkeypatch.setattr(coupling, "_run_batch", lambda *a, **k: pytest.fail("ran"))
    refused = [
        ("xi's dimension", lambda: estimate_delta_h(f, flat, a, 1, space, 10, 0)),
        ("xi's dimension", lambda: estimate_delta_h(f, empty_configuration(1), a, 0, plane, 10, 0)),
        ("alpha_location", lambda: estimate_delta_h(f, xi, [0.1, 0.2], 1, space, 10, 0)),
        ("alpha_location", lambda: estimate_delta_h(f, flat, a, 1, plane, 10, 0)),
        ("xi's dimension", lambda: estimate_delta2_h(f, flat, a, a, 1, space, 10, 0)),
        ("alpha_location", lambda: estimate_delta2_h(f, xi, np.zeros(0), a, 1, space, 10, 0)),
        ("beta_location", lambda: estimate_delta2_h(f, xi, a, [[0.1, 0.2]], 1, space, 10, 0)),
        ("xi's dimension", lambda: estimate_h(f, flat, 1, space, 10, 0)),
        ("xi's dimension", lambda: estimate_coalescence_time(flat, a, 1, space, 10, 0)),
        ("alpha_location", lambda: estimate_coalescence_time(xi, [0.1, 0.2], 1, space, 10, 0)),
        ("xi's dimension", lambda: stein_residual(f, flat, 1, space, 10, 0)),
        ("xi's dimension", lambda: stein_residuals(f, [xi, flat], 1, space, 10, [1, 2])),
        (alpha_off, lambda: estimate_delta_h(f, xi, [7.0], 1, space, 20, 1)),
        (alpha_off, lambda: estimate_delta_h(f, xi, [nan], 1, space, 20, 1)),
        (alpha_off, lambda: estimate_delta_h(f, flat, [0.5, nan], 1, plane, 10, 0)),
        (alpha_off, lambda: estimate_coalescence_time(xi, [-0.1], 1, space, 10, 0)),
        (beta_off, lambda: estimate_delta2_h(f, xi, a, [1.5], 1, space, 10, 0)),
        (beta_off, lambda: estimate_delta2_h(f, xi, a, [nan], 1, space, 10, 0)),
        ("xi's points", lambda: estimate_delta_h(f, nan_xi, a, 1, space, 10, 0)),
        ("xi's points", lambda: estimate_delta_h(f, off_xi, a, 1, space, 10, 0)),
        ("xi's points", lambda: estimate_delta2_h(f, off_xi, a, a, 1, space, 10, 0)),
        ("xi's points", lambda: estimate_h(f, nan_xi, 1, space, 10, 0)),
        ("xi's points", lambda: estimate_coalescence_time(off_xi, a, 1, space, 10, 0)),
        ("xi's points", lambda: stein_residuals(f, [xi, nan_xi], 1, space, 10, [1, 2])),
        ("floor m must be nonnegative", lambda: estimate_delta_h(f, xi, a, -1, space, 10, 0)),
        ("floor m must be nonnegative", lambda: estimate_h(f, xi, -1, space, 10, 0)),
        ("floor m must be nonnegative", lambda: estimate_delta_h(f, xi, a, 1.5, space, 10, 0)),
    ]
    for message, call in refused:
        with pytest.raises(ValueError, match=message):
            call()


class TestStreamFamilyReplicas:
    """The replica driver reads the streams (seed, r) as the rows of one
    StreamRows a batch; it must equal the scalar union race
    (oracles.coupled_chain_events) looped over derive_stream(seed, r), bit
    for bit."""

    @classmethod
    def setup_class(cls):
        cls.space = unit_interval(3.0)
        cls.xi = make_xi(3.0, 2, seed=5)

    def initial(self, kind):
        space, xi = self.space, self.xi
        if kind == "list":
            return pair_initials(xi, np.array([0.25]))
        if kind == "alpha":  # stein_residual's immigration term
            return lambda r, stream: pair_initials(xi, space.sample_one(stream))

        def partner(r, stream):  # estimate_h's Po^(m) partner
            return [xi, sample_conditional_poisson(space, 1, stream)]

        return partner

    @pytest.mark.parametrize("kind", ["list", "alpha", "partner"])
    @pytest.mark.parametrize("functional", ["count", "matching", "none"])
    @pytest.mark.parametrize("max_events", [coupling.DEFAULT_EVENT_CAP, 3])
    def test_driver_matches_one_by_one(self, kind, functional, max_events, monkeypatch):
        f = {
            "count": CountTestFunction(count_f_rule),
            "matching": reference_test_functions(self.space)[2],
            "none": None,
        }[functional]
        coefficients = None if f is None else (1.0, -1.0)
        initial = self.initial(kind)
        # Batches of 5, 5 and 1: the last is a batch of one.
        monkeypatch.setattr(coupling, "_BATCH_ROWS", 5)
        (got,) = coupling._run_replicas(
            [(as_rows(initial, [1, 1], self.space), 21, 11)], [1, 1], coefficients, f,
            self.space, max_events=max_events,
        )
        want = replica_runs_one_by_one(
            derive_stream, initial, [1, 1], coefficients, on_locations(f),
            self.space.total_mass, self.space.sample, 11, 21, max_events,
        )
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        if max_events == 3:
            assert got[1].any()

    @pytest.mark.parametrize("functional", ["count", "matching"])
    def test_refills_match_one_by_one(self, functional, monkeypatch):
        # Twelve points at lambda = 5 take rows past their first block, and
        # rows stop at different steps, so the survivors refill alone.
        space = unit_interval(5.0)
        xi = configuration_from_locations(np.linspace(0.04, 0.96, 12))
        initial = pair_initials(xi, np.array([0.5]))
        if functional == "count":
            f = CountTestFunction(count_f_rule)
        else:
            f = reference_test_functions(space)[2]
        reads, read = [], StreamRows.read

        def counted(rows, listed, n):
            reads.append(len(listed))
            return read(rows, listed, n)

        monkeypatch.setattr(StreamRows, "read", counted)
        monkeypatch.setattr(coupling, "_BATCH_ROWS", 5)
        (got,) = coupling._run_replicas(
            [(as_rows(initial, [1, 1], space), 22, 11)], [1, 1], (1.0, -1.0), f, space,
            max_events=coupling.DEFAULT_EVENT_CAP,
        )
        # a first block per batch of 5, 5 and 1 rows, then refills, some of
        # them of the survivors of a batch alone
        assert len(reads) > 3 and any(1 < listed < 5 for listed in reads)
        want = replica_runs_one_by_one(
            derive_stream, initial, [1, 1], (1.0, -1.0), on_locations(f),
            space.total_mass, space.sample, 11, 22, coupling.DEFAULT_EVENT_CAP,
        )
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("functional", ["count", "matching"])
    def test_jobs_in_one_call_match_one_by_one(self, functional, monkeypatch):
        # Three estimates in one call, batches of 5 rows: batches straddle
        # every job boundary, and each job gets back exactly its own rows.
        f = CountTestFunction(count_f_rule) if functional == "count" else (
            reference_test_functions(self.space)[2]
        )
        jobs = [(self.initial("alpha"), 31, 7), (self.initial("list"), 32, 2),
                (self.initial("partner"), 33, 9)]
        monkeypatch.setattr(coupling, "_BATCH_ROWS", 5)
        got = coupling._run_replicas(
            [(as_rows(initial, [1, 1], self.space), seed, n) for initial, seed, n in jobs],
            [1, 1], (1.0, -1.0), f, self.space, max_events=coupling.DEFAULT_EVENT_CAP,
        )
        assert len(got) == len(jobs)
        for runs, (initial, seed, replicas) in zip(got, jobs):
            want = replica_runs_one_by_one(
                derive_stream, initial, [1, 1], (1.0, -1.0), on_locations(f),
                self.space.total_mass, self.space.sample, replicas, seed,
                coupling.DEFAULT_EVENT_CAP,
            )
            for g, w in zip(runs, want):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("functional", ["count", "matching"])
    def test_estimate_h_matches_one_by_one(self, functional):
        # estimate_h builds its partner rows directly; the oracle loop starts
        # from the partner's configurations.
        f = CountTestFunction(count_f_rule) if functional == "count" else (
            reference_test_functions(self.space)[2]
        )
        est = estimate_h(f, self.xi, 1, self.space, 11, 23)
        runs = replica_runs_one_by_one(
            derive_stream, self.initial("partner"), [1, 1], (1.0, -1.0), on_locations(f),
            self.space.total_mass, self.space.sample, 11, 23, coupling.DEFAULT_EVENT_CAP,
        )
        assert est == coupling._contrast_estimate(runs, span=1.0, seed=23)

    def test_a_job_below_two_replicas_is_refused_before_any_run(self, monkeypatch):
        monkeypatch.setattr(coupling, "_run_batch", lambda *a, **k: pytest.fail("ran"))
        row = as_rows(self.initial("list"), [1, 1], self.space)
        jobs = [(row, 1, 5), (row, 2, 1)]
        with pytest.raises(ValueError, match="2 replicas"):
            coupling._run_replicas(jobs, [1, 1], None, None, self.space, max_events=10)

    def test_pi_f_refuses_a_negative_stream_offset(self):
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_pi_f(CountTestFunction(count_f_rule), 1, self.space, 10, 0, stream_offset=-1)


class TestDrawOrderPinned:
    """Small-replica results pinned to values recorded with the untimed draw
    order: per event a type uniform, then a location or a victim, and no
    holding-time uniform (the horizon run draws one, as run_coupled_chains
    does).

    Every estimate is a fixed function of the uniforms each replica draws, so
    a change in the order of draws moves these numbers.  The relative
    tolerance only absorbs rounding differences between platforms (log1p's
    among them, in the horizon run).
    """

    REL = 1e-9

    @classmethod
    def setup_class(cls):
        cls.space = unit_interval(3.0)
        cls.f = CountTestFunction(count_f_rule)
        cls.xi = configuration_from_locations(
            cls.space.sample(derive_stream(5, 123), 2)
        )
        cls.a, cls.b = np.array([0.25]), np.array([0.75])

    def check(self, est, estimate, se, capped=0):
        assert est.estimate == pytest.approx(estimate, rel=self.REL)
        assert est.se == pytest.approx(se, rel=self.REL)
        assert est.capped == capped

    def test_estimators(self):
        xi, a, b, space, f = self.xi, self.a, self.b, self.space, self.f
        matching = reference_test_functions(space)[2]
        self.check(
            estimate_delta_h(f, xi, a, 1, space, 40, 11),
            -0.07738095238095238, 0.009351896790172837,
        )
        self.check(
            estimate_delta_h(matching, xi, a, 1, space, 20, 12),
            0.16223337687477216, 0.02833705221492176,
        )
        self.check(
            estimate_delta_h(f, xi, a, 1, space, 40, 11, max_events=3),
            -0.2122572055137845, 0.02740882993395804, capped=21,
        )
        self.check(
            estimate_delta2_h(f, xi, a, b, 1, space, 40, 13),
            -0.0079077380952381, 0.005382295597441241,
        )
        self.check(
            estimate_h(f, xi, 1, space, 40, 14),
            0.10476029526029525, 0.03855492739633893,
        )
        self.check(
            stein_residual(f, xi, 1, space, 30, 15),
            0.012120206159012825, 0.04879065689025493,
        )
        self.check(
            estimate_coalescence_time(xi, a, 1, space, 40, 16),
            1.146737012987013, 0.19774211246497375,
        )
        self.check(
            estimate_coalescence_time(xi, a, 1, space, 40, 16, max_events=3),
            0.2605042016806723, 0.02621518030808027, capped=23,
        )

    def test_delta_bounds_units(self):
        # one uniform and one non-uniform work unit
        report = verify_delta_bounds(
            lam=3.0, m=1, n_scenarios=1, replicas=30, seed=20, nonuniform_offsets=(2,)
        )
        want = {
            "uniform-0-order1": (0.11760477808013241, 0.02073535420806045),
            "uniform-0-order2": (-0.006819845140357319, 0.008079266850947118),
            "nonuniform-size3-order1": (-0.06432948532948535, 0.00788353988295992),
            "nonuniform-size3-order2": (-0.001031746031746028, 0.002149372304869698),
        }
        assert [row["scenario"] for row in report["rows"]] == list(want)
        for row in report["rows"]:
            estimate, se = want[row["scenario"]]
            assert row["estimate"] == pytest.approx(estimate, rel=self.REL)
            assert row["se"] == pytest.approx(se, rel=self.REL)
            assert row["capped"] == 0

    def test_batch_split_does_not_change_results(self, monkeypatch):
        # Replicas run in batches of bounded size; every replica reads only
        # its own stream, so where the batches split must not matter.
        xi, a, b, space, f = self.xi, self.a, self.b, self.space, self.f
        calls = (
            lambda: stein_residual(f, xi, 1, space, 30, 15),
            lambda: estimate_h(reference_test_functions(space)[2], xi, 1, space, 12, 18),
            lambda: estimate_delta2_h(f, xi, a, b, 1, space, 40, 13),
        )
        whole = [call() for call in calls]
        monkeypatch.setattr(coupling, "_BATCH_ROWS", 7)
        assert [call() for call in calls] == whole

    def test_recorded_triple_to_a_horizon(self):
        run, states = engine_and_oracle(
            domination_triple(self.xi), [2, 0, 0], self.space, (32, 0), horizon=4.0
        )
        assert (run.events, run.final_counts, run.elapsed) == (29, (2, 0, 0), 4.0)
        assert run.coalescence_time is None and not run.capped
        sizes = [tuple(map(len, chains)) for _, chains in states]
        assert sizes == [
            (2, 2, 0), (2, 1, 0), (3, 2, 1), (4, 3, 2), (5, 4, 3), (4, 3, 2),
            (5, 4, 3), (6, 5, 4), (7, 6, 5), (8, 7, 6), (7, 6, 5), (8, 7, 6),
            (9, 8, 7), (8, 7, 6), (7, 7, 6), (6, 6, 5), (5, 5, 4), (4, 4, 3),
            (3, 3, 2), (4, 4, 3), (3, 3, 2), (2, 2, 1), (2, 1, 1), (2, 1, 1),
            (2, 0, 0), (3, 1, 1), (2, 1, 1), (2, 0, 0), (3, 1, 1), (2, 0, 0),
        ]
        assert states[-1][1] == ((0, 12), (), ())

    def test_matching_functional_estimators(self):
        xi, a, b, space = self.xi, self.a, self.b, self.space
        matching = reference_test_functions(space)[2]
        self.check(
            estimate_delta2_h(matching, xi, a, b, 1, space, 12, 17),
            -0.006513415696052277, 0.016670803976190675,
        )
        self.check(
            estimate_h(matching, xi, 1, space, 12, 18),
            -0.11152464891134321, 0.08818657898673954,
        )

    def test_large_live_sets(self):
        # At lambda = 40 a replica holds up to 50 identities and reads up to
        # about 430 uniforms: past the engine's first live-set width (21 + 8)
        # and past its first block of 64 uniforms.
        space = unit_interval(40.0)
        xi = configuration_from_locations(space.sample(derive_stream(5, 124), 20))
        f = CountTestFunction(log_rule)
        self.check(
            estimate_delta_h(f, xi, self.a, 1, space, 8, 19),
            -0.03464140377491253, 0.011934611009562173,
        )
        self.check(
            estimate_h(f, xi, 1, space, 8, 20),
            0.5640723215809533, 0.07442003374408443,
        )
        self.check(
            estimate_delta_h(reference_test_functions(space)[2], xi, self.a, 1, space, 6, 21),
            -0.0041855594127155945, 0.0013829785833990443,
        )
