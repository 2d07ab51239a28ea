import dataclasses
import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from condpp import simulate
from condpp.bounds import poisson_tail
from condpp.coupling import reference_test_functions, run_coupled_chains
from condpp.groundspace import (
    Configuration,
    configuration_from_locations,
    derive_stream,
    empty_configuration,
    unit_cube,
    unit_interval,
)
from condpp.simulate import (
    _BLOCK,
    _FIRST_BLOCK,
    BudgetError,
    CountPMF,
    bernoulli_site_configuration,
    conditional_count_pmf,
    count_tv_distance,
    sample_bernoulli_process,
    sample_binomial_process,
    sample_conditional_poisson,
    sample_poisson_process,
    simulate_cid_chain,
)
from oracles import (
    cid_chain_events,
    conditional_count_expectation_mp,
    conditional_count_mean_mp,
    conditional_count_pmf_mp,
    coupled_chain_events,
    transient_count_law,
)


# (lam, m) far past the mode, where the upper tail P(Po(lam) >= m) underflows
# or nearly does.
COUNT_PAST_MODE = [(1.0, 200), (0.001, 120), (1.0, 150), (50.0, 400)]


class TestCountPMF:
    @pytest.mark.parametrize(
        "lam,m", [(1.0, 0), (1.0, 1), (3.0, 2), (0.3, 4), (10.0, 5)] + COUNT_PAST_MODE
    )
    def test_pmf_matches_high_precision(self, lam, m):
        law = conditional_count_pmf(lam, m)
        for j in range(0, m + 30):
            want = float(conditional_count_pmf_mp(lam, m, j))
            assert law.pmf(j) == pytest.approx(want, rel=1e-12, abs=1e-250)

    def test_frozen_value(self):
        assert conditional_count_pmf(1.0, 1).pmf(1) == pytest.approx(
            0.5819767068693265, abs=1e-15
        )

    @pytest.mark.parametrize("lam,m", [(2.0, 0), (2.0, 3), (7.5, 1)])
    def test_normalisation_and_support(self, lam, m):
        law = conditional_count_pmf(lam, m)
        assert all(law.pmf(j) == 0.0 for j in range(m))
        total = sum(law.pmf(j) for j in range(m, m + 120))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam,m", [(1.0, 0), (1.0, 2), (4.0, 1), (0.5, 3)] + COUNT_PAST_MODE)
    def test_mean_identity(self, lam, m):
        law = conditional_count_pmf(lam, m)
        assert law.mean() == pytest.approx(float(conditional_count_mean_mp(lam, m)), rel=1e-14)
        series = sum(j * law.pmf(j) for j in range(m, m + 150))
        assert law.mean() == pytest.approx(series, rel=1e-10)
        assert 0.0 <= count_tv_distance([m, m, m + 1], law) <= 1.0

    @pytest.mark.parametrize("lam,m", [(0.5, 0), (3.0, 1), (10.0, 2), (50.0, 5), (1.0, 200)])
    @pytest.mark.parametrize("rule", ["saturating", "harmonic"])
    def test_expectation_matches_high_precision(self, lam, m, rule):
        # min(1, j/10), and the steepest rule a count functional may have,
        # H_j with increments 1/(j+1); (1, 200) is where the Poisson tail
        # underflows.
        if rule == "saturating":
            g, exact = (lambda j: min(1.0, j / 10.0)), (lambda j: mpmath.mpf(min(j, 10)) / 10)
        else:
            g, exact = (lambda j: math.fsum(1.0 / i for i in range(1, j + 1))), mpmath.harmonic
        want = conditional_count_expectation_mp(lam, m, exact, top=m + 60 + 4 * math.ceil(lam))
        assert conditional_count_pmf(lam, m).expectation(g) == pytest.approx(
            float(want), rel=1e-12
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CountPMF(0.0, 1)
        with pytest.raises(ValueError):
            CountPMF(2.0, -1)
        with pytest.raises(ValueError):
            CountPMF(2.0, 1.5)
        with pytest.raises(ValueError):  # not read as m = 1
            conditional_count_pmf(2.0, 1.5)


class TestCountTV:
    def test_zero_for_exact_atoms(self):
        law = conditional_count_pmf(1.0, 1)
        probs = np.array([law.pmf(j) for j in range(1, 12)])
        counts = np.repeat(np.arange(1, 12), np.round(probs * 1_000_000).astype(int))
        assert count_tv_distance(counts, law) < 2e-3

    def test_one_for_disjoint_support(self):
        law = conditional_count_pmf(1.0, 5)
        assert count_tv_distance(np.array([0, 1, 2]), law) == pytest.approx(1.0)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            count_tv_distance(np.array([], dtype=int), conditional_count_pmf(1.0, 0))


class TestPoissonSampler:
    def test_count_moments(self):
        space = unit_interval(4.0)
        stream = derive_stream(17, 0)
        counts = np.array(
            [sample_poisson_process(space, stream).size for _ in range(100_000)]
        )
        se_mean = math.sqrt(4.0 / counts.size)
        assert abs(counts.mean() - 4.0) < 3.0 * se_mean
        assert abs(counts.var() - 4.0) < 5.0 * se_mean * math.sqrt(8.0)

    def test_locations_uniform(self):
        space = unit_interval(2.0)
        stream = derive_stream(18, 0)
        pooled = []
        while len(pooled) < 10_000:
            pooled.extend(sample_poisson_process(space, stream).locations[:, 0])
        assert stats.kstest(pooled, "uniform").pvalue > 0.001


class TestConditionalSampler:
    @pytest.mark.parametrize("lam,m", [(1.0, 2), (3.0, 1), (0.5, 3)])
    def test_count_law(self, lam, m):
        space = unit_interval(lam)
        stream = derive_stream(19, m)
        counts = np.array(
            [sample_conditional_poisson(space, m, stream).size for _ in range(20_000)]
        )
        assert counts.min() >= m
        assert count_tv_distance(counts, conditional_count_pmf(lam, m)) < 0.015

    def test_floor_zero_matches_unconditional_draws(self):
        space = unit_interval(2.5)
        a = derive_stream(23, 0)
        b = derive_stream(23, 0)
        for _ in range(200):
            assert sample_conditional_poisson(space, 0, a) == sample_poisson_process(
                space, b
            )

    def test_hopeless_acceptance_budget(self):
        # P(Po(0.1) >= 30) is astronomically small; must refuse, not spin
        space = unit_interval(0.1)
        for _ in range(2):  # a refusal is not cached: every call refuses
            with pytest.raises(BudgetError):
                sample_conditional_poisson(space, 30, derive_stream(0, 0))

    def test_count_law_is_checked_once_per_lam_and_m(self, monkeypatch):
        tails = []

        def tail(lam, m):
            tails.append((lam, m))
            return poisson_tail(lam, m)

        monkeypatch.setattr(simulate, "poisson_tail", tail)
        simulate._count_law.cache_clear()
        stream = derive_stream(31, 0)
        for m in (2, 2, 3, 2, 3):
            assert sample_conditional_poisson(unit_interval(2.5), m, stream).size >= m
        assert tails == [(2.5, 2), (2.5, 3)]

    def test_locations_uniform_given_count(self):
        space = unit_interval(1.0)
        stream = derive_stream(29, 0)
        pooled = []
        while len(pooled) < 10_000:
            pooled.extend(sample_conditional_poisson(space, 2, stream).locations[:, 0])
        assert stats.kstest(pooled, "uniform").pvalue > 0.001


class TestBernoulliSampler:
    def test_site_configuration_layout(self):
        fired = np.array([True, False, True, True, False])
        cfg = bernoulli_site_configuration(5, fired)
        assert cfg.size == 3
        np.testing.assert_allclose(cfg.locations[:, 0], [0.2, 0.6, 0.8])

    def test_rejects_boundary_success_probability(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                sample_bernoulli_process(12, bad, 0, derive_stream(1, 0))

    def test_near_certain_success_fills_most_sites(self):
        stream = derive_stream(1, 0)
        sizes = [sample_bernoulli_process(12, 0.999, 0, stream).size for _ in range(50)]
        assert min(sizes) >= 10

    def test_success_count_moments(self):
        stream = derive_stream(31, 0)
        counts = np.array(
            [sample_bernoulli_process(50, 0.1, 0, stream).size for _ in range(20_000)]
        )
        se = math.sqrt(50 * 0.1 * 0.9 / counts.size)
        assert abs(counts.mean() - 5.0) < 3.0 * se

    def test_conditioning_truncates_count_law(self):
        n, p, m = 30, 0.1, 5
        stream = derive_stream(37, 0)
        counts = np.array(
            [sample_bernoulli_process(n, p, m, stream).size for _ in range(20_000)]
        )
        assert counts.min() >= m
        tail = stats.binom.sf(m - 1, n, p)
        support = np.arange(m, n + 1)
        want = stats.binom.pmf(support, n, p) / tail
        freq = np.bincount(counts, minlength=n + 1)[m:] / counts.size
        assert 0.5 * np.abs(freq - want).sum() < 0.01

    def test_binomial_alias_matches_site_process_counts(self):
        # both samplers burn exactly n uniforms per rejection attempt, so
        # seed-matched streams accept the same indicator pattern; the
        # location draws that follow are why each pair needs a fresh stream
        for i in range(100):
            x = sample_binomial_process(20, 0.3, 2, derive_stream(41, i))
            y = sample_bernoulli_process(20, 0.3, 2, derive_stream(41, i))
            assert x.size == y.size

    def test_binomial_default_space_mass(self):
        cfg = sample_binomial_process(40, 0.25, 0, derive_stream(43, 0))
        assert cfg.dimension == 1

    def test_hopeless_conditioning_budget(self):
        with pytest.raises(BudgetError):
            sample_bernoulli_process(10, 1e-6, 8, derive_stream(2, 0))


def _event_digest(traj):
    """Exact digest of a trajectory's events: times and coordinates in hex."""
    h = hashlib.sha256()
    for t, kind, tag, loc in traj.events:
        where = "-" if loc is None else ",".join(float(x).hex() for x in loc)
        h.update(f"{float(t).hex()} {kind} {tag} {where};".encode())
    return h.hexdigest()[:16]


def _matches_oracle(initial, m, horizon, space, seed):
    """Run the chain and the one-event-at-a-time oracle on equal streams."""
    stream, ref = derive_stream(seed, 0), derive_stream(seed, 0)
    traj = simulate_cid_chain(initial, m, horizon, space, stream)
    want = cid_chain_events(range(initial.size), m, horizon, space.total_mass, ref, space.sample)
    assert list(traj.events) == want
    assert stream.uniform() == ref.uniform()
    return traj


class TestTrajectory:
    def _run(self, seed=0, lam=3.0, m=1, horizon=6.0, init=3):
        space = unit_interval(lam)
        stream = derive_stream(seed, 0)
        initial = configuration_from_locations(space.sample(stream, init))
        return simulate_cid_chain(initial, m, horizon, space, stream), initial

    @pytest.mark.parametrize(
        "space,seed,init,m,horizon,pins",
        [
            # two chains back to back on one stream
            (unit_interval(5.0), 11, 3, 1, 50.0,
             [(507, "81c5e3c0fa38299b", 0.8920871851534045),
              (489, "7012a857b3ad3a3e", 0.22417987385053362)]),
            # about 9700 uniforms, past the stream's first 4096-uniform block
            (unit_interval(40.0), 12, 40, 0, 40.0,
             [(3227, "0d81efb771b88b60", 0.6585729702553943)]),
            (unit_cube(3.0, dimension=2), 13, 2, 1, 30.0,
             [(167, "dddd1a83271708e1", 0.8250954333234481)]),
        ],
        ids=["line-two-chains", "line-past-a-block", "square"],
    )
    def test_draw_order_pinned(self, space, seed, init, m, horizon, pins):
        # Recorded with the per-event scalar loop: event lists, and the
        # uniform the shared stream hands out after each chain.
        stream = derive_stream(seed, 0)
        initial = configuration_from_locations(space.sample(stream, init))
        for events, digest, after in pins:
            traj = simulate_cid_chain(initial, m, horizon, space, stream)
            assert (len(traj.events), _event_digest(traj)) == (events, digest)
            assert stream.uniform() == after
            assert all(
                type(x) is np.float64 for e in traj.events if e[3] is not None for x in e[3]
            )

    # 70: one location needs more uniforms than the chain's first block
    @pytest.mark.parametrize("dim", [1, 2, 3, 70])
    def test_matches_the_one_event_at_a_time_loop(self, dim):
        for lam, m in itertools.product((0.3, 3.0, 40.0), (0, 1, 2)):
            space = unit_cube(lam, dim)
            stream, ref = derive_stream(70 + dim, m), derive_stream(70 + dim, m)
            initial = configuration_from_locations(space.sample(stream, m + 1))
            space.sample(ref, m + 1)
            for horizon in (7.0, 19.0):
                traj = simulate_cid_chain(initial, m, horizon, space, stream)
                want = cid_chain_events(range(initial.size), m, horizon, lam, ref, space.sample)
                assert list(traj.events) == want
                assert stream.uniform() == ref.uniform()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_oracle_from_an_empty_start(self, dim):
        traj = _matches_oracle(empty_configuration(dim), 0, 10.0, unit_cube(2.0, dim), 92)
        assert traj.events[0][1:3] == ("immigration", 0)

    def test_oracle_past_the_block_on_a_cube(self):
        dim = 3
        traj = _matches_oracle(empty_configuration(dim), 0, 60.0, unit_cube(40.0, dim), 93)
        # Where each block of the stream ends, and where each immigrant's
        # location uniforms lie in the stream.
        ends, size, end = set(), _FIRST_BLOCK, 0
        while end < 3 * _BLOCK:
            end += size
            ends.add(end)
            size = min(2 * size, _BLOCK)
        straddles, at = 0, 0
        for _, kind, _, _ in traj.events:
            at += 2
            if kind == "immigration":
                straddles += any(at < e < at + dim for e in ends)
                at += dim
            else:
                at += 1
        assert at > 3 * _BLOCK and straddles > 0

    def test_a_placement_other_than_the_identity_matches_the_oracles(self):
        # The chain and the coupled engine place every immigrant through
        # GroundSpace.points, as the one-draw-at-a-time oracles do through sample.
        space = dataclasses.replace(unit_interval(3.0), place=lambda u: u * u)
        xi = configuration_from_locations([[0.5], [0.25]])
        traj = _matches_oracle(xi, 1, 20.0, space, 94)
        line = simulate_cid_chain(xi, 1, 20.0, unit_interval(3.0), derive_stream(94, 0))
        assert traj.times == line.times and traj.places.size
        np.testing.assert_array_equal(traj.places, line.places * line.places)
        f = reference_test_functions(space)[2]
        start = configuration_from_locations([[0.5], [0.25], [0.9], [0.75]])
        initial = [start, empty_configuration(1)]
        run = lambda space, stream: run_coupled_chains(
            initial, [0, 0], space, stream, (1.0, -1.0), f, horizon=20.0
        )
        stream, twin = derive_stream(95, 0), derive_stream(95, 0)
        got = run(space, stream)
        want, _ = coupled_chain_events(
            initial, [0, 0], space.total_mass, twin, space.sample, (1.0, -1.0),
            f.from_locations, horizon=20.0,
        )
        assert dataclasses.astuple(got) == want
        assert stream.uniform() == twin.uniform()
        assert got.integral != run(unit_interval(3.0), derive_stream(95, 0)).integral

    @pytest.mark.parametrize("dim,seed", [(1, 14), (2, 15)])
    def test_configuration_at_matches_a_plain_replay(self, dim, seed):
        space = unit_cube(4.0, dimension=dim)
        stream = derive_stream(seed, 0)
        initial = configuration_from_locations(space.sample(stream, 3))
        traj = simulate_cid_chain(initial, 1, 8.0, space, stream)
        times = [e[0] for e in traj.events]
        for t in (0.0, times[0], times[len(times) // 2], 3.3, times[-1], traj.horizon):
            tags = list(range(initial.size))
            locs = dict(zip(tags, map(tuple, initial.locations)))
            for time, kind, tag, loc in traj.events:
                if time > t:
                    break
                if kind == "immigration":
                    tags.append(tag)
                    locs[tag] = loc
                else:
                    tags.remove(tag)
            cfg = traj.configuration_at(t)
            want = np.array([locs[g] for g in tags]).reshape(len(tags), dim)
            np.testing.assert_array_equal(cfg.locations, want)

    def test_event_time_and_count_invariants(self):
        traj, initial = self._run(seed=7)
        times, counts = traj.count_path()
        assert np.all(np.diff(times) > 0.0)
        assert times.size == 0 or (times[0] > 0.0 and times[-1] < traj.horizon)
        assert np.all(counts >= traj.m)
        # at the floor the next move can only be an immigration
        for prev, ev in zip(counts, traj.events[1:]):
            if prev == traj.m:
                assert ev[1] == "immigration"

    def test_deaths_remove_live_tags(self):
        traj, initial = self._run(seed=8)
        alive = set(range(initial.size))
        for _, kind, tag, loc in traj.events:
            if kind == "immigration":
                assert tag not in alive
                assert loc is not None
                alive.add(tag)
            else:
                assert tag in alive
                assert loc is None
                alive.remove(tag)
        assert traj.final_configuration().size == len(alive)

    def test_configuration_at_replays_prefix(self):
        traj, initial = self._run(seed=9)
        assert traj.configuration_at(0.0) == initial
        times, counts = traj.count_path()
        for k in (1, len(times) // 2, len(times) - 1):
            mid = (times[k - 1] + times[k]) / 2 if k < len(times) else traj.horizon
            assert traj.configuration_at(mid).size == counts[k - 1]
        with pytest.raises(ValueError):
            traj.configuration_at(traj.horizon + 1.0)

    @pytest.mark.parametrize("points", [[[1.5]], [[math.nan]], [[0.5], [-0.25]]])
    def test_start_off_the_space_is_refused_before_any_run(self, points):
        stream = derive_stream(0, 0)
        with pytest.raises(ValueError, match="points must lie in the space"):
            simulate_cid_chain(Configuration(np.array(points)), 0, 2.0, unit_interval(3.0), stream)
        assert stream.uniform() == derive_stream(0, 0).uniform()

    def test_rejects_start_below_floor(self):
        space = unit_interval(3.0)
        with pytest.raises(ValueError):
            simulate_cid_chain(
                empty_configuration(), 2, 1.0, space, derive_stream(0, 0)
            )
        with pytest.raises(ValueError):  # a floor that is not an integer
            simulate_cid_chain(
                Configuration(np.array([[0.2], [0.7]])), 1.5, 1.0, space, derive_stream(0, 0)
            )

    def test_runs_where_count_inversion_underflows(self):
        # exp(-800) underflows, which only the count samplers care about.
        space = unit_interval(800.0)
        traj = simulate_cid_chain(empty_configuration(1), 0, 0.01, space, derive_stream(0, 0))
        assert traj.horizon == 0.01
        assert traj.events and traj.events[0][1] == "immigration"
        with pytest.raises(BudgetError):
            sample_poisson_process(space, derive_stream(0, 0))

    def test_two_dimensional_space_round_trip(self):
        space = unit_cube(2.0, dimension=2)
        stream = derive_stream(50, 0)
        initial = configuration_from_locations(space.sample(stream, 2))
        traj = simulate_cid_chain(initial, 1, 4.0, space, stream)
        final = traj.final_configuration()
        assert final.dimension == 2
        assert final.size >= 1


class TestTransientLaw:
    def test_count_marginal_matches_matrix_exponential(self):
        # start at 5 points with floor 1 and compare the count law at t = 1
        # against a dense solve of the truncated forward equations
        lam, m, start, t = 3.0, 1, 5, 1.0
        space = unit_interval(lam)
        stream = derive_stream(60, 0)
        initial = configuration_from_locations(space.sample(stream, start))
        final = np.array(
            [
                simulate_cid_chain(initial, m, t, space, stream)
                .final_configuration()
                .size
                for _ in range(20_000)
            ]
        )
        states, law = transient_count_law(lam, m, start, t, top=60)
        freq = np.bincount(final, minlength=states[-1] + 1)[m:] / final.size
        assert 0.5 * np.abs(freq - law).sum() < 0.015

    def test_long_run_count_law_is_stationary(self):
        lam, m = 2.0, 1
        space = unit_interval(lam)
        stream = derive_stream(61, 0)
        initial = configuration_from_locations(space.sample(stream, 4))
        final = np.array(
            [
                simulate_cid_chain(initial, m, 25.0, space, stream)
                .final_configuration()
                .size
                for _ in range(5000)
            ]
        )
        assert count_tv_distance(final, conditional_count_pmf(lam, m)) < 0.03


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=0.2, max_value=8.0),
    m=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_conditional_draws_respect_floor(lam, m, seed):
    space = unit_interval(lam)
    cfg = sample_conditional_poisson(space, m, derive_stream(seed, 0))
    assert cfg.size >= m
    assert np.all(cfg.locations >= 0.0) and np.all(cfg.locations < 1.0)
