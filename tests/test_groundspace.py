import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condpp.groundspace import (
    Configuration,
    _seed_words,
    configuration_from_locations,
    derive_stream,
    derive_streams,
    empty_configuration,
    unit_cube,
    unit_interval,
)

# First eight uniforms of stream (42, 7), generated once and frozen.
# Any change here means the seeding or draw discipline changed and every
# recorded experiment in the repo silently decoheres.
GOLDEN_42_7 = [
    0.0015791460415535141,
    0.09275783559869999,
    0.8990427120008879,
    0.3762087147196065,
    0.8917907469041996,
    0.5253249386048605,
    0.770601055876067,
    0.7317593560874354,
]


class TestRandomStream:
    def test_frozen_sequence(self):
        s = derive_stream(42, 7)
        got = [s.uniform() for _ in range(8)]
        assert got == GOLDEN_42_7

    def test_block_draw_matches_scalar_draw(self):
        s = derive_stream(42, 7)
        assert list(s.uniforms(8)) == GOLDEN_42_7

    def test_large_block_continues_logical_sequence(self):
        # a large block must produce the same numbers as scalar draws
        a = derive_stream(3, 0)
        b = derive_stream(3, 0)
        head = [a.uniform() for _ in range(5)]
        bulk = a.uniforms(10000)
        tail = [a.uniform() for _ in range(5)]
        expect = [b.uniform() for _ in range(5 + 10000 + 5)]
        assert head == expect[:5]
        np.testing.assert_array_equal(bulk, np.asarray(expect[5:10005]))
        assert tail == expect[10005:]

    def test_mixed_draws_across_block_boundaries(self):
        # Every kind of draw, at any mix of block sizes, must read the
        # generator's raw output in order.
        n = 20_000
        want = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(8, spawn_key=(3,)))
        ).random(n)
        s = derive_stream(8, 3)
        got = []
        sizes = [1, 7, 63, 2, 130, 500, 1, 4095, 4097, 3, 9000]
        kind = 0
        while len(got) < n:
            kind = (kind + 1) % 4
            i = len(got)
            if kind == 0:
                got.append(s.uniform())
            elif kind == 1:
                k = min(sizes[i % len(sizes)], n - i)
                got.extend(s.uniforms(k))
            elif kind == 2:
                assert s.exponential(2.0) == -math.log1p(-want[i]) / 2.0
                got.append(want[i])
            else:
                assert s.integer(13) == min(int(want[i] * 13), 12)
                got.append(want[i])
        np.testing.assert_array_equal(np.asarray(got), want)

    def test_scalar_block_and_unread_mix_matches_plain_generator(self):
        # uniform() builds its double from the raw output itself; a plain
        # Generator doing the same reads and step-backs must agree bit for bit.
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(8, spawn_key=(3,))))
        s = derive_stream(8, 3)
        ops = np.random.default_rng(0)
        for _ in range(3000):
            op, k = ops.integers(3), int(ops.integers(1, 70))
            if op == 0:
                got, want = s.uniform(), gen.random()
                assert type(got) is float and got == want
            elif op == 1:
                np.testing.assert_array_equal(s.uniforms(k), gen.random(k))
            else:
                s._unread(k)
                gen.bit_generator.advance(-k % (1 << 128))
        assert s._gen.bit_generator.state == gen.bit_generator.state

    @pytest.mark.parametrize(
        "back", [0, 1, 63, 4097, np.int64(100)], ids=["0", "1", "63", "4097", "int64"]
    )
    def test_unread_steps_back_over_the_last_reads(self, back):
        want = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(8, spawn_key=(3,)))
        ).random(20_000)
        s = derive_stream(8, 3)
        got = [s.uniform() for _ in range(5)]
        got.extend(s.uniforms(4200))
        got.append(s.uniform())
        got.extend(s.uniforms(37))
        read = len(got)
        np.testing.assert_array_equal(np.asarray(got), want[:read])
        s._unread(back)
        at = read - int(back)
        assert s.uniform() == want[at]
        np.testing.assert_array_equal(s.uniforms(500), want[at + 1 : at + 501])

    def test_same_seed_same_index_is_deterministic(self):
        a = derive_stream(42, 0)
        b = derive_stream(42, 0)
        assert list(a.uniforms(256)) == list(b.uniforms(256))

    def test_distinct_indices_decorrelate(self):
        a = derive_stream(42, 0).uniforms(64)
        b = derive_stream(42, 1).uniforms(64)
        assert not np.any(a == b)

    def test_uniform_moments(self):
        u = derive_stream(11, 0).uniforms(100_000)
        se = 1.0 / np.sqrt(12.0 * u.size)
        assert abs(u.mean() - 0.5) < 3.0 * se
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_uniform_histogram(self):
        from scipy.stats import chisquare

        u = derive_stream(12, 4).uniforms(100_000)
        counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        assert chisquare(counts).pvalue > 0.001

    def test_exponential_and_integer(self):
        s = derive_stream(42, 7)
        s.uniforms(4)
        assert s.exponential(2.0) == 1.111844198890387
        assert s.integer(10) == 5
        for rate in (0.0, -1.0, math.nan, math.inf):  # refused before the draw
            with pytest.raises(ValueError, match="rate must be positive and finite"):
                s.exponential(rate)
        assert s.uniform() == GOLDEN_42_7[6]

    def test_exponential_mean(self):
        s = derive_stream(5, 2)
        xs = np.array([s.exponential(4.0) for _ in range(20_000)])
        assert abs(xs.mean() - 0.25) < 3.0 * xs.std() / np.sqrt(xs.size)

    def test_integer_range(self):
        s = derive_stream(9, 9)
        draws = [s.integer(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_rejects_negative_seed_parts(self):
        with pytest.raises(ValueError):
            derive_stream(-1, 0)
        with pytest.raises(ValueError):
            derive_stream(0, -2)


def numpy_stream(seed, key, n):
    """The first n uniforms of stream (seed, key), straight from numpy."""
    seq = np.random.SeedSequence(seed, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(seq)).random(n)


FAMILY_SEEDS = [0, 7, 2**32, 2**64 + 1, 2**130 + 3]
# Keys of one to four 32-bit words; keys of as many words are hashed together.
FAMILY_KEYS = [0, 1, 2**32 - 1, 2**32, 2**40, 2**64 + 5, 2**100, 3]
BLOCKS = [1, 63, 64, 65, 4096]


class TestStreamFamily:
    """The streams of one master seed, as derive_streams seeds them together."""

    @pytest.mark.parametrize("seed", FAMILY_SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        want = [
            np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)
            for k in FAMILY_KEYS
        ]
        np.testing.assert_array_equal(_seed_words(seed, FAMILY_KEYS), want)

    @pytest.mark.parametrize("seed", FAMILY_SEEDS)
    @pytest.mark.parametrize("first", BLOCKS)
    def test_blocks_match_numpy(self, seed, first):
        # A first block of any size, then every kind of read and a step back,
        # bit for bit.
        streams = derive_streams(seed, FAMILY_KEYS)
        assert [(s.master_seed, s.index) for s in streams] == [(seed, k) for k in FAMILY_KEYS]
        for key, stream in zip(FAMILY_KEYS, streams):
            want = numpy_stream(seed, key, first + sum(BLOCKS) + 3)
            np.testing.assert_array_equal(stream.uniforms(first), want[:first])
            assert stream.uniform() == want[first]
            stream._unread(2)
            at = first - 1
            for n in BLOCKS:
                np.testing.assert_array_equal(stream.uniforms(n), want[at : at + n])
                at += n
            assert stream.exponential(2.0) == -math.log1p(-want[at]) / 2.0
            assert stream.integer(13) == min(int(want[at + 1] * 13), 12)

    def test_rows_read_independently(self):
        streams = derive_streams(7, [5, 6, 2**40])
        want = [numpy_stream(7, k, 200) for k in (5, 6, 2**40)]
        np.testing.assert_array_equal(streams[2].uniforms(30), want[2][:30])
        np.testing.assert_array_equal(streams[0].uniforms(30), want[0][:30])
        np.testing.assert_array_equal(streams[1].uniforms(50), want[1][:50])
        for s, w, at in zip(streams, want, (30, 50, 30)):
            np.testing.assert_array_equal(s.uniforms(10), w[at : at + 10])

    def test_unread_steps_a_row_back(self):
        streams = derive_streams(11, range(3))
        want = numpy_stream(11, 1, 300)
        for s in streams:
            s.uniforms(100)
        streams[1]._unread(np.int64(30))
        np.testing.assert_array_equal(streams[1].uniforms(40), want[70:110])

    @pytest.mark.parametrize("seed, keys", [(-1, [0]), (0, [3, -2]), (-5, [])])
    def test_rejects_negative_seed_parts(self, seed, keys):
        with pytest.raises(ValueError, match="nonnegative"):
            derive_streams(seed, keys)
        with pytest.raises(ValueError, match="nonnegative"):
            derive_stream(seed, min(keys, default=0))


class TestGroundSpace:
    def test_interval_metric_examples(self):
        space = unit_interval(3.0)
        assert space.distance(np.array([0.2]), np.array([0.2])) == 0.0
        assert space.distance(np.array([0.1]), np.array([0.9])) == pytest.approx(0.8)

    def test_cube_metric_truncates_at_one(self):
        space = unit_cube(3.0, dimension=2)
        d = space.distance(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert d == 1.0

    def test_distance_rejects_outside_points(self):
        space = unit_interval(3.0)
        with pytest.raises(ValueError):
            space.distance(np.array([1.5]), np.array([0.5]))

    @pytest.mark.parametrize(
        "point, inside",
        [([0.0, 1.0], True), ([0.5, 0.5], True), ([0.5, math.nan], False),
         ([-1e-300, 0.5], False), ([0.5, 1.0 + 1e-15], False), ([math.inf, 0.5], False)],
    )
    def test_cube_contains_closed_cube_only(self, point, inside):
        space = unit_cube(2.0, dimension=2)
        assert space.contains(np.array(point)) is inside
        assert space.contains(point) is inside

    def test_sampler_lands_in_space(self):
        space = unit_cube(2.0, dimension=3)
        pts = space.sample(derive_stream(0, 0), 500)
        assert pts.shape == (500, 3)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    def test_pairwise_matches_scalar_metric(self):
        space = unit_cube(2.0, dimension=2)
        s = derive_stream(1, 0)
        xs = space.sample(s, 6)
        ys = space.sample(s, 4)
        mat = space.pairwise(xs, ys)
        for i in range(6):
            for j in range(4):
                assert mat[i, j] == pytest.approx(space.distance(xs[i], ys[j]))

    def test_triangle_inequality(self):
        space = unit_cube(1.0, dimension=2)
        s = derive_stream(77, 0)
        pts = space.sample(s, 3000).reshape(1000, 3, 2)
        for x, y, z in pts:
            assert space.distance(x, z) <= (
                space.distance(x, y) + space.distance(y, z) + 1e-12
            )

    def test_total_mass_positive(self):
        with pytest.raises(ValueError):
            unit_interval(0.0)
        with pytest.raises(ValueError):
            unit_interval(-2.0)


class TestConfiguration:
    def test_multiset_equality(self):
        a = Configuration(np.array([[0.1], [0.7]]))
        b = Configuration(np.array([[0.7], [0.1]]))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_different_locations(self):
        a = configuration_from_locations([[0.1], [0.7]])
        b = configuration_from_locations([[0.1], [0.6]])
        assert a != b

    def test_duplicate_points_distinguish_multiplicity(self):
        a = configuration_from_locations([[0.3], [0.3]])
        b = configuration_from_locations([[0.3]])
        assert a != b
        assert a.size == 2 and b.size == 1

    def test_locations_are_write_protected(self):
        cfg = configuration_from_locations([[0.4]])
        with pytest.raises(ValueError):
            cfg.locations[0, 0] = 0.9

    def test_empty_configuration(self):
        cfg = empty_configuration(dimension=2)
        assert cfg.size == 0
        assert cfg.locations.shape == (0, 2)
        with pytest.raises(ValueError):
            configuration_from_locations([])

    def test_from_locations_reshapes_flat_input(self):
        cfg = configuration_from_locations([0.1, 0.9])
        assert cfg.locations.shape == (2, 1)


@settings(max_examples=200, deadline=None)
@given(
    locs=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_configuration_equality_ignores_point_order(locs, data):
    perm = data.draw(st.permutations(list(range(len(locs)))))
    a = configuration_from_locations([[v] for v in locs])
    b = Configuration(np.array([[locs[i]] for i in perm]))
    assert a == b
    assert hash(a) == hash(b)
