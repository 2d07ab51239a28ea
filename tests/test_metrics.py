import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condpp import metrics
from condpp.bernoulli_app import conditional_bernoulli_law, conditional_poisson_law
from condpp.coupling import MatchingDistanceTestFunction
from condpp.groundspace import (
    GroundSpace,
    configuration_from_locations,
    derive_stream,
    empty_configuration,
    is_unit_line,
    unit_cube,
    unit_interval,
)
from condpp.metrics import d1_bar, d2_bar_empirical, pairwise_d1_matrix
from oracles import d1_bruteforce

SPACE = unit_interval(3.0)
SPACE2 = unit_cube(3.0, dimension=2)
# The unit line as a general space: its membership test is a wrapper, so
# is_unit_line is false and d1_bar takes the Hungarian solve, the DP's oracle.
HUNGARIAN_LINE = dataclasses.replace(SPACE, contains=lambda x: SPACE.contains(x))


def cfg(*points):
    return configuration_from_locations([[p] for p in points])


def line_sample(stream, sizes):
    """Configurations on [0, 1] of the given sizes; every second one sits on
    the grid {0, 1/4, 1/2, 3/4}, so coordinates repeat within and across."""
    out = []
    for k, size in enumerate(sizes):
        locs = SPACE.sample(stream, size)
        if k % 2:
            locs = np.floor(4 * locs) / 4
        out.append(configuration_from_locations(locs, dimension=1))
    return out


def _doubled_metric(x, y):
    return min(1.0, 2.0 * float(np.abs(x - y).sum()))


def _doubled_pairwise(xs, ys):
    return np.minimum(1.0, 2.0 * np.abs(xs[:, None, 0] - ys[None, :, 0]))


def random_config(stream, space, max_size=7, min_size=0):
    size = min_size + stream.integer(max_size - min_size + 1)
    if size == 0:
        return empty_configuration(space.dimension)
    return configuration_from_locations(space.sample(stream, size))


class TestD1Examples:
    def test_identical_configs(self):
        assert d1_bar(cfg(0.2, 0.7), cfg(0.7, 0.2), SPACE) == 0.0

    def test_cardinality_mismatch_with_close_point(self):
        # best injection matches 0.2 to 0.1, the surplus point pays 1
        assert d1_bar(cfg(0.1, 0.5), cfg(0.2), SPACE) == pytest.approx(0.55)

    def test_empty_versus_nonempty_is_one(self):
        assert d1_bar(empty_configuration(), cfg(0.3, 0.6), SPACE) == 1.0

    def test_both_empty_is_zero(self):
        assert d1_bar(empty_configuration(), empty_configuration(), SPACE) == 0.0

    def test_symmetric(self):
        a, b = cfg(0.1, 0.4, 0.9), cfg(0.3)
        assert d1_bar(a, b, SPACE) == d1_bar(b, a, SPACE)

    def test_symmetry_exact_on_equal_size_regression_pair(self):
        # swapping equal-size arguments transposes the assignment problem;
        # this pair produced a 1-ulp asymmetry before operand canonicalization
        a = cfg(0.30829042789271777, 0.6886390332685188, 0.23965865012494925,
                0.481747793763987, 0.28895879755846166)
        b = cfg(0.5178170946900502, 0.9465902831928381, 0.7632216436445941,
                0.10889586774248927, 0.6539285846736722)
        assert d1_bar(a, b, SPACE) == d1_bar(b, a, SPACE)

    def test_bounded_by_one(self):
        a = cfg(*[0.05 * i for i in range(7)])
        b = cfg(0.99)
        assert 0.0 <= d1_bar(a, b, SPACE) <= 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            d1_bar(cfg(0.1), cfg(0.2), SPACE2)

    def test_line_matrix_refuses_a_configuration_off_the_line_dimension(self):
        # The DP reads coordinate 0 alone; a plane point must not pass as (0.2).
        space = unit_interval(2.0)
        plane, line = configuration_from_locations([[0.2, 0.9]]), cfg(0.2)
        calls = [
            lambda: pairwise_d1_matrix([plane], [line], space),
            lambda: pairwise_d1_matrix([line], [plane], space),
            lambda: d2_bar_empirical([plane], [line], space),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="dimension does not match the ground space"):
                call()


class TestPointsOffTheSpace:
    """d1_bar, the cost matrix and d2_bar_empirical refuse a point the space
    does not contain, NaN included, before any solve or DP."""

    @pytest.mark.parametrize(
        "space, bad, good",
        [
            (SPACE, [[1.5]], [[0.2], [0.4]]),
            (SPACE, [[math.nan]], [[0.2], [0.4]]),
            (SPACE, [[0.5], [-0.25]], [[0.2]]),
            (SPACE2, [[0.5, 1.5]], [[0.2, 0.2], [0.4, 0.4]]),
            (SPACE2, [[math.nan, 0.5]], [[0.2, 0.2], [0.4, 0.4]]),
            (SPACE2, [[0.5, 0.5], [0.2, -0.1]], [[0.2, 0.2]]),
        ],
        ids=["line-off", "line-nan", "line-one-of-two", "square-off", "square-nan",
             "square-one-of-two"],
    )
    def test_points_off_the_space_refused_before_any_solve(self, space, bad, good, monkeypatch):
        bad, good = configuration_from_locations(bad), configuration_from_locations(good)
        solved = lambda *args: pytest.fail("solved")
        monkeypatch.setattr(metrics, "_d1_locs", solved)
        monkeypatch.setattr(metrics, "_line_rows", solved)
        calls = [
            lambda: d1_bar(bad, good, space),
            lambda: d1_bar(good, bad, space),
            lambda: pairwise_d1_matrix([good, bad], [good], space),
            lambda: pairwise_d1_matrix([good], [good, bad], space),
            lambda: d2_bar_empirical([bad], [good], space),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="points must lie in the space"):
                call()


class TestD1AgainstBruteForce:
    def test_five_hundred_random_pairs(self):
        stream = derive_stream(2024, 0)
        for _ in range(500):
            a = random_config(stream, SPACE)
            b = random_config(stream, SPACE)
            fast = d1_bar(a, b, SPACE)
            slow = d1_bruteforce(a.locations, b.locations, SPACE.metric)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_unit_square_agrees_too(self):
        stream = derive_stream(5, 0)
        for _ in range(60):
            a = random_config(stream, SPACE2, max_size=5)
            b = random_config(stream, SPACE2, max_size=5)
            assert d1_bar(a, b, SPACE2) == pytest.approx(
                d1_bruteforce(a.locations, b.locations, SPACE2.metric), abs=1e-12
            )


class TestD1Axioms:
    def test_triangle_inequality(self):
        stream = derive_stream(99, 0)
        for _ in range(300):
            a = random_config(stream, SPACE, max_size=5)
            b = random_config(stream, SPACE, max_size=5)
            c = random_config(stream, SPACE, max_size=5)
            assert d1_bar(a, c, SPACE) <= (
                d1_bar(a, b, SPACE) + d1_bar(b, c, SPACE) + 1e-12
            )

    def test_symmetry_is_exact(self):
        # equal sizes are drawn explicitly: they are the only case where the
        # operand order is not already fixed by the size comparison
        stream = derive_stream(300, 5)
        for _ in range(300):
            size = 1 + stream.integer(6)
            a = configuration_from_locations(SPACE.sample(stream, size))
            b = configuration_from_locations(SPACE.sample(stream, size))
            assert d1_bar(a, b, SPACE) == d1_bar(b, a, SPACE)
            c = random_config(stream, SPACE, max_size=6)
            d = random_config(stream, SPACE, max_size=6)
            assert d1_bar(c, d, SPACE) == d1_bar(d, c, SPACE)

    @pytest.mark.parametrize("space", [SPACE, SPACE2], ids=["line", "square"])
    def test_permuted_points_move_no_bit(self, space):
        # d1_bar is a function of the two point multisets: no order of either
        # operand's points, nor of the operands, moves a bit of it
        stream, rng = derive_stream(19, 0), np.random.default_rng(19)
        for _ in range(400):
            m = 2 + stream.integer(5)
            a = space.sample(stream, m)
            b = space.sample(stream, m + stream.integer(4))
            want = d1_bar(configuration_from_locations(a), configuration_from_locations(b), space)
            for _ in range(3):
                pa = configuration_from_locations(a[rng.permutation(len(a))])
                pb = configuration_from_locations(b[rng.permutation(len(b))])
                assert d1_bar(pa, pb, space) == want
                assert d1_bar(pb, pa, space) == want

    def test_zero_iff_equal_multisets(self):
        stream = derive_stream(41, 0)
        for _ in range(60):
            a = random_config(stream, SPACE, max_size=5, min_size=1)
            same = configuration_from_locations(a.locations[::-1])
            assert d1_bar(a, same, SPACE) == 0.0
            moved = a.locations.copy()
            moved[0, 0] = (moved[0, 0] + 0.37) % 1.0
            b = configuration_from_locations(moved)
            if a != b:
                assert d1_bar(a, b, SPACE) > 0.0


class TestPairwiseMatrix:
    def test_entries_match_scalar_calls(self):
        # Every size pair from 0 to 12, with empty configurations and
        # repeated coordinates: the unit-line kernel against the single-pair
        # DP bit for bit, the per-pair Hungarian solve and, up to size 7,
        # enumeration.
        stream = derive_stream(8, 0)
        ps = line_sample(stream, [*range(13), *range(13)])
        qs = line_sample(stream, [*range(12, -1, -1), *range(13)])
        mat = pairwise_d1_matrix(ps, qs, SPACE)
        for i, p in enumerate(ps):
            for j, q in enumerate(qs):
                assert mat[i, j] == d1_bar(p, q, SPACE)
                assert mat[i, j] == pytest.approx(d1_bar(p, q, HUNGARIAN_LINE), abs=1e-12)
                if max(p.size, q.size) <= 7:
                    assert mat[i, j] == pytest.approx(
                        d1_bruteforce(p.locations, q.locations, SPACE.metric), abs=1e-12
                    )
        np.testing.assert_array_equal(pairwise_d1_matrix(qs, ps, SPACE), mat.T)
        assert np.all(np.diag(pairwise_d1_matrix(ps, ps, SPACE)) == 0.0)

    def test_matrix_bytes_are_pinned(self):
        # sha256 of the matrix bytes.  Each entry is the minimum over
        # monotone injections of fixed left-to-right float sums, so no
        # change of kernel may move a single bit.
        def digest(ps, qs, space):
            return hashlib.sha256(pairwise_d1_matrix(ps, qs, space).tobytes()).hexdigest()

        stream = derive_stream(8, 0)
        ps = line_sample(stream, [*range(13), *range(13)])
        qs = line_sample(stream, [*range(12, -1, -1), *range(13)])
        assert digest(ps, qs, SPACE) == (
            "1bfa96a6bbc709c9e3d3307edaf4e9c2fba81fb0635c2576ec316bfd2d4bc543"
        )
        assert digest(qs, ps, SPACE) == (
            "eecad05ecb678cc6aaced73635a9e4cdc84f9f2b793a9657fc8363aae87e210a"
        )
        # Criterion 8's laws at 100 a side: conditional Bernoulli (n=100,
        # p=0.05) against Po^(1) at lambda = 5.
        space = unit_interval(5.0)
        bern, pois = conditional_bernoulli_law(100, 0.05, 1), conditional_poisson_law(space, 1)
        s0, s1 = derive_stream(12, 0), derive_stream(12, 1)
        ps, qs = [bern(s0) for _ in range(100)], [pois(s1) for _ in range(100)]
        assert digest(ps, qs, space) == (
            "af9d28eb2c0bac196ea859c1fc62de28d2cb63b66242133bd02f1b95123b9f3b"
        )
        # Po^(1) at lambda = 50, sizes 34 to 72, where the row band matters.
        space = unit_interval(50.0)
        law = conditional_poisson_law(space, 1)
        s0, s1 = derive_stream(12, 2), derive_stream(12, 3)
        ps, qs = [law(s0) for _ in range(40)], [law(s1) for _ in range(40)]
        assert (min(c.size for c in ps + qs), max(c.size for c in ps + qs)) == (34, 72)
        assert digest(ps, qs, space) == (
            "3ac054d6f87b2e8f3c99d569cf98c235c33ef45f4f12dc2429e6b75ee43a4b8d"
        )

    def test_empty_p_sample(self):
        qs = line_sample(derive_stream(8, 4), [0, 2, 5])
        mat = pairwise_d1_matrix([], qs, SPACE)
        assert mat.shape == (0, 3) and mat.dtype == np.float64

    def test_empty_q_sample(self):
        ps = line_sample(derive_stream(8, 5), [0, 2, 5])
        mat = pairwise_d1_matrix(ps, [], SPACE)
        assert mat.shape == (3, 0) and mat.dtype == np.float64
        assert pairwise_d1_matrix([], [], SPACE).shape == (0, 0)

    def test_samples_of_empty_configurations(self):
        empties = [empty_configuration(1) for _ in range(3)]
        np.testing.assert_array_equal(pairwise_d1_matrix(empties, empties[:2], SPACE), 0.0)
        others = line_sample(derive_stream(8, 6), [1, 4])
        np.testing.assert_array_equal(pairwise_d1_matrix(empties, others, SPACE), 1.0)
        np.testing.assert_array_equal(pairwise_d1_matrix(others, empties, SPACE), 1.0)

    def test_samples_mixing_empty_and_nonempty_configurations(self):
        stream = derive_stream(8, 7)
        ps = line_sample(stream, [0, 3, 0, 1, 6, 0])
        qs = line_sample(stream, [2, 0, 6, 0, 1])
        mat = pairwise_d1_matrix(ps, qs, SPACE)
        for i, p in enumerate(ps):
            for j, q in enumerate(qs):
                if p.size == 0 or q.size == 0:
                    assert mat[i, j] == (0.0 if p.size == q.size else 1.0)
                else:
                    assert mat[i, j] == pytest.approx(d1_bar(p, q, HUNGARIAN_LINE), abs=1e-12)
        np.testing.assert_array_equal(pairwise_d1_matrix(qs, ps, SPACE), mat.T)

    def test_worker_fanout_is_deterministic(self):
        # The unit line runs in-process; the square fans out Hungarian rows.
        stream = derive_stream(8, 1)
        ps = line_sample(stream, [*range(13), *range(13)])
        qs = line_sample(stream, [*range(13)])
        ps2 = [random_config(stream, SPACE2, max_size=4) for _ in range(10)]
        qs2 = [random_config(stream, SPACE2, max_size=4) for _ in range(6)]
        for space, a, b in ((SPACE, ps, qs), (SPACE2, ps2, qs2)):
            one = pairwise_d1_matrix(a, b, space, workers=1)
            two = pairwise_d1_matrix(a, b, space, workers=2)
            np.testing.assert_array_equal(one, two)

    def test_line_kernel_needs_the_line_metric(self):
        # Another metric on [0, 1] keeps the per-pair Hungarian solve.
        doubled = GroundSpace(
            dimension=1,
            total_mass=3.0,
            metric=_doubled_metric,
            pairwise=_doubled_pairwise,
            place=SPACE.place,
            contains=SPACE.contains,
        )
        assert is_unit_line(SPACE) and not is_unit_line(doubled)
        assert not is_unit_line(SPACE2) and not is_unit_line(HUNGARIAN_LINE)
        stream = derive_stream(8, 2)
        ps = line_sample(stream, [0, 1, 2, 3, 5, 5])
        qs = line_sample(stream, [1, 2, 4, 5])
        mat = pairwise_d1_matrix(ps, qs, doubled)
        for i, p in enumerate(ps):
            for j, q in enumerate(qs):
                assert mat[i, j] == d1_bar(p, q, doubled)
        assert not np.allclose(mat, pairwise_d1_matrix(ps, qs, SPACE))

    def test_line_kernel_survives_a_wrapped_pairwise(self):
        # A caller may swap a space's pairwise field (a tracer does); the
        # space is still the unit line and takes the kernel.
        space = unit_interval(3.0)
        calls = []

        def wrapped(xs, ys):
            calls.append(1)
            return SPACE.pairwise(xs, ys)

        object.__setattr__(space, "pairwise", wrapped)
        stream = derive_stream(8, 3)
        ps = line_sample(stream, [0, 1, 3, 4, 6])
        qs = line_sample(stream, [2, 3, 6])
        mat = pairwise_d1_matrix(ps, qs, space)
        assert calls == []
        np.testing.assert_array_equal(mat, pairwise_d1_matrix(ps, qs, SPACE))


class TestD2Empirical:
    def test_identical_samples_have_zero_distance(self):
        stream = derive_stream(13, 0)
        ps = [random_config(stream, SPACE, max_size=4) for _ in range(6)]
        est = d2_bar_empirical(ps, list(ps), SPACE)
        assert est.estimate == 0.0
        assert est.n_samples == 6

    def test_permuted_samples_have_zero_distance(self):
        stream = derive_stream(13, 1)
        ps = [random_config(stream, SPACE, max_size=4) for _ in range(6)]
        est = d2_bar_empirical(ps, ps[::-1], SPACE)
        assert est.estimate == pytest.approx(0.0, abs=1e-15)

    def test_single_pair_reduces_to_d1(self):
        a, b = cfg(0.1, 0.5), cfg(0.2)
        est = d2_bar_empirical([a], [b], SPACE)
        assert est.estimate == pytest.approx(d1_bar(a, b, SPACE))

    def test_seed_is_provenance_only(self):
        a, b = cfg(0.1), cfg(0.9)
        with_seed = d2_bar_empirical([a], [b], SPACE, seed=77)
        without = d2_bar_empirical([a], [b], SPACE)
        assert with_seed.estimate == without.estimate
        assert with_seed.seed == 77 and without.seed is None
        assert "upper-biased" in with_seed.note

    def test_rejects_mismatched_sample_sizes(self):
        with pytest.raises(ValueError):
            d2_bar_empirical([cfg(0.1)], [cfg(0.1), cfg(0.2)], SPACE)
        with pytest.raises(ValueError):
            d2_bar_empirical([], [], SPACE)

    def test_dominates_lipschitz_expectation_gaps(self):
        # any 1-Lipschitz statistic separates the samples by at most the
        # empirical transport cost; matching distance to a fixed reference
        # is 1-Lipschitz by the triangle inequality
        stream = derive_stream(21, 0)
        ps = [random_config(stream, SPACE, max_size=5) for _ in range(8)]
        qs = [random_config(stream, SPACE, max_size=5) for _ in range(8)]
        est = d2_bar_empirical(ps, qs, SPACE)
        for _ in range(5):
            ref = random_config(stream, SPACE, max_size=4)
            f = MatchingDistanceTestFunction(ref, SPACE)
            gap = abs(
                np.mean([f(p) for p in ps]) - np.mean([f(q) for q in qs])
            )
            assert gap <= est.estimate + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.floats(min_value=0.0, max_value=0.999), max_size=5),
    b=st.lists(st.floats(min_value=0.0, max_value=0.999), max_size=5),
)
def test_d1_matches_enumeration(a, b):
    xi = configuration_from_locations([[v] for v in a]) if a else empty_configuration()
    eta = configuration_from_locations([[v] for v in b]) if b else empty_configuration()
    got = d1_bar(xi, eta, SPACE)
    want = d1_bruteforce(xi.locations, eta.locations, SPACE.metric)
    assert got == pytest.approx(want, abs=1e-12)
    assert 0.0 <= got <= 1.0
