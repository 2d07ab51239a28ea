"""Ground space, point configurations, and deterministic randomness.

A ground space is a bounded metric space Gamma carrying a finite intensity
measure of total mass Lambda; its metric d0 is truncated at 1.  Finite point
configurations on Gamma, counting measures with no names on their points,
are the state space of everything downstream.  All
randomness flows through the streams derive_stream(master_seed, index): numpy
PCG64 generators seeded through SeedSequence spawn keys, so that every
simulation in the package is reproducible from (master_seed, index) alone and
coupled simulations can share streams explicitly.  derive_streams builds the
streams of many indices at once, hashing their SeedSequence words in one
numpy pass; each is a plain RandomStream, bit for bit the one derive_stream
gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bounds import _check_lam, _check_m

__all__ = [
    "RandomStream",
    "derive_stream",
    "derive_streams",
    "GroundSpace",
    "unit_interval",
    "unit_cube",
    "is_unit_line",
    "Configuration",
    "configuration_from_locations",
    "empty_configuration",
]


class RandomStream:
    """Scalar/vector uniform source with a counter-derived state.

    Streams with distinct (master_seed, index) pairs are statistically
    independent (PCG64 seeded through SeedSequence spawn keys).  All draws,
    scalar or block, consume a single logical sequence u0, u1, ... in order,
    so consumers may mix uniform(), uniforms(n), exponential() and integer()
    freely without changing what a later draw sees.
    """

    def __init__(self, master_seed: int, index: int = 0, *, _hashed=None):
        if master_seed < 0 or index < 0:
            raise ValueError("master_seed and index must be nonnegative")
        self.master_seed = int(master_seed)
        self.index = int(index)
        if _hashed is None:  # derive_streams hashes the seed words of a batch itself
            seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.index,))
        else:
            seq = _HashedSeed(_hashed)
        self._gen = np.random.Generator(np.random.PCG64(seq))
        # The generator's own 64-bit outputs: uniform() makes its double from
        # one of them as Generator.random() does, without numpy's scalar path.
        self._raw = self._gen.bit_generator.random_raw

    def _unread(self, n: int) -> None:
        """Step back over the last n uniforms; PCG64 advances modulo 2**128."""
        self._gen.bit_generator.advance(-int(n) % (1 << 128))

    def uniform(self) -> float:
        """Next uniform in [0, 1): the top 53 bits of one output, PCG64's next_double."""
        return (self._raw() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """Next n uniforms as an array, same logical sequence as uniform()."""
        return self._gen.random(n)

    def exponential(self, rate: float) -> float:
        """Exponential holding time with the given rate, positive and finite;
        one uniform consumed."""
        rate = _check_lam(rate, "rate")
        # -log1p(-u) maps u in [0,1) to (0, inf] without ever taking log(0).
        return -math.log1p(-self.uniform()) / rate

    def integer(self, n: int) -> int:
        """Uniform index in {0, ..., n-1}; one uniform consumed."""
        if n <= 0:
            raise ValueError("n must be positive")
        return min(int(self.uniform() * n), n - 1)


def derive_stream(master_seed: int, index: int) -> RandomStream:
    """Stream number `index` of the family keyed by master_seed."""
    return RandomStream(master_seed, index)


# numpy's SeedSequence: its 32-bit hash constants and a pool of four words.
_MASK32, _POOL = 0xFFFF_FFFF, 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(x: int) -> list[int]:
    """x as 32-bit words, least significant first; 0 is one word."""
    out = [x & _MASK32]
    while x := x >> 32:
        out.append(x & _MASK32)
    return out


def _hashmix(value, h: int, mult: int = _MULT_A):
    """One SeedSequence hash of value (an int or a uint64 array of 32-bit
    words) under hash constant h; returns the hash and the next constant."""
    nxt = h * mult & _MASK32
    value = (value ^ h) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _absorb(pool: list, word, h: int) -> int:
    """Hash one more entropy word into every pool word; returns the constant."""
    for d in range(_POOL):
        v, h = _hashmix(word, h)
        pool[d] = _mix(pool[d], v)
    return h


def _seed_words(master_seed: int, keys: list[int]) -> np.ndarray:
    """The (len(keys), 4) uint64 words that PCG64 seeds derive_stream(master_seed,
    key) from: SeedSequence(master_seed, spawn_key=(key,)).generate_state(4,
    np.uint64) for every key.

    SeedSequence hashes the words of the seed (padded to four) and then of
    the key into a pool of four words, and hashes eight 32-bit words out of
    that pool.  The seed's part is the same for every key and is hashed once;
    keys of as many words are hashed together, as uint64 arrays holding
    32-bit words.
    """
    entropy = _words(master_seed)
    entropy += [0] * (_POOL - len(entropy))
    pool, h = [], _INIT_A
    for w in entropy[:_POOL]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for s in range(_POOL):
        for d in range(_POOL):
            if s != d:
                v, h = _hashmix(pool[s], h)
                pool[d] = _mix(pool[d], v)
    for w in entropy[_POOL:]:
        h = _absorb(pool, w, h)
    words = np.empty((len(keys), 4), dtype=np.uint64)
    widths = [max(1, (k.bit_length() + 31) // 32) for k in keys]
    for width in set(widths):
        rows = [i for i, w in enumerate(widths) if w == width]
        mixed, hk = [np.full(len(rows), p, dtype=np.uint64) for p in pool], h
        for j in range(width):
            word = np.array([keys[i] >> 32 * j & _MASK32 for i in rows], dtype=np.uint64)
            hk = _absorb(mixed, word, hk)
        out, hk = [], _INIT_B
        for j in range(8):
            v, hk = _hashmix(mixed[j % _POOL], hk, _MULT_B)
            out.append(v)
        for j in range(4):
            words[rows, j] = out[2 * j] | out[2 * j + 1] << np.uint64(32)
    return words


class _HashedSeed(ISeedSequence):
    """Seed words already hashed, handed to PCG64 as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
            raise ValueError("PCG64 reads four uint64 seed words")
        return self.words


def derive_streams(master_seed: int, keys) -> list[RandomStream]:
    """The streams derive_stream(master_seed, key) of many keys, seeded together.

    Each stream reads bit for bit what derive_stream(master_seed, key) would;
    the SeedSequence hashing of all keys runs as one numpy pass.
    """
    keys = [int(k) for k in keys]
    if master_seed < 0 or min(keys, default=0) < 0:
        raise ValueError("master_seed and index must be nonnegative")
    words = _seed_words(int(master_seed), keys)
    return [RandomStream(master_seed, k, _hashed=w) for k, w in zip(keys, words)]


@dataclass(frozen=True)
class GroundSpace:
    """Bounded metric space with a finite intensity measure.

    Fields:
        dimension: coordinate dimension of points.
        total_mass: Lambda, the total mass of the intensity measure (> 0).
        metric: d0(x, y) for single points, valued in [0, 1].
        pairwise: vectorized d0 on (n, dim) x (m, dim) arrays -> (n, m).
        place: maps an (n, dim) array of uniforms in [0, 1) to n points,
            row i to point i, so that a row of iid uniforms lands as a draw
            from the normalized intensity measure.  Every point placed
            (sample, the chain, the coupled engine) goes through points,
            `dimension` uniforms a point.
        contains: membership test for a single point.
        label: short human-readable name used in artifacts.
    """

    dimension: int
    total_mass: float
    metric: Callable[[np.ndarray, np.ndarray], float]
    pairwise: Callable[[np.ndarray, np.ndarray], np.ndarray]
    place: Callable[[np.ndarray], np.ndarray]
    contains: Callable[[np.ndarray], bool]
    label: str = "custom"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        _check_lam(self.total_mass, "total_mass")

    def check(self, config: Configuration, label: str, floor: int = 0) -> None:
        """Refuse a floor that is not a nonnegative integer, and a configuration
        (called label) off this space's dimension, below the floor, or with a
        point the space does not contain (NaN lies in none)."""
        floor = _check_m(floor, "the floor m")
        if config.dimension != self.dimension:
            raise ValueError(f"{label}'s dimension does not match the ground space")
        if config.size < floor:
            raise ValueError(f"{label} must sit at or above the floor m")
        if not all(self.contains(x) for x in config.locations):
            raise ValueError(f"{label}'s points must lie in the space")

    def point(self, x, label: str) -> np.ndarray:
        """x as one point of this space, a (dimension,) array; NaN is refused."""
        if np.size(x) != self.dimension:
            raise ValueError(f"{label} must be one point of the space's dimension")
        x = np.reshape(np.asarray(x, dtype=float), self.dimension)
        if not self.contains(x):
            raise ValueError(f"{label} must lie in the space")
        return x

    def distance(self, x, y) -> float:
        """Validated d0 between two points of this space."""
        x, y = self.point(x, "x"), self.point(y, "y")
        d = float(self.metric(x, y))
        if not (0.0 <= d <= 1.0 + 1e-12):
            raise ValueError(f"metric returned {d}, outside [0, 1]")
        return min(d, 1.0)

    def points(self, u: np.ndarray) -> np.ndarray:
        """The points place makes of the uniforms u, read `dimension` a point:
        an (n, dimension) float array, point i from the i-th run of them."""
        u = u.reshape(-1, self.dimension)
        return np.asarray(self.place(u), dtype=float).reshape(u.shape)

    def sample(self, stream: RandomStream, size: int) -> np.ndarray:
        """size points from the normalized intensity measure."""
        return self.points(stream.uniforms(size * self.dimension))

    def sample_one(self, stream: RandomStream) -> np.ndarray:
        return self.sample(stream, 1)[0]


def _truncated_euclidean(x: np.ndarray, y: np.ndarray) -> float:
    return min(1.0, float(np.linalg.norm(x - y)))


def _truncated_euclidean_pairwise(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    diff = xs[:, None, :] - ys[None, :, :]
    return np.minimum(1.0, np.sqrt(np.sum(diff * diff, axis=2)))


# Canonical-space pieces live at module level so that GroundSpace instances
# pickle across process pools.

def _cube_place(u: np.ndarray) -> np.ndarray:
    return u


def _cube_contains(x: np.ndarray) -> bool:
    # Python floats: a point is a few coordinates, and NaN fails both bounds.
    return all(0.0 <= v <= 1.0 for v in np.asarray(x, float).ravel().tolist())


def is_unit_line(space: GroundSpace) -> bool:
    """Whether space is [0, 1] with d0(x, y) = min(1, |x - y|), that is |x - y|.

    Read from the metric and the membership test the space carries, never
    from its label or its pairwise field, which a caller may wrap.
    """
    return (
        space.dimension == 1
        and space.metric is _truncated_euclidean
        and space.contains is _cube_contains
    )


def unit_cube(total_mass: float, dimension: int = 1) -> GroundSpace:
    """[0, 1]^d with Lambda times the uniform measure and d0 = 1 ^ euclidean."""
    return GroundSpace(
        dimension=dimension,
        total_mass=float(total_mass),
        metric=_truncated_euclidean,
        pairwise=_truncated_euclidean_pairwise,
        place=_cube_place,
        contains=_cube_contains,
        label=f"unit_cube_{dimension}d",
    )


def unit_interval(total_mass: float) -> GroundSpace:
    """[0, 1] with Lambda times the uniform measure; the canonical test space."""
    space = unit_cube(total_mass, dimension=1)
    object.__setattr__(space, "label", "unit_interval")
    return space


@dataclass(frozen=True, eq=False)
class Configuration:
    """Finite point configuration: a point multiset, held as an (n, d) array.

    Row order is storage order only.  Equality and hashing read the location
    multiset, so two configurations with the same points in any order
    compare equal.
    """

    locations: np.ndarray  # (size, dimension), read-only

    def __post_init__(self):
        locs = np.array(self.locations, dtype=float)
        if locs.ndim != 2:
            raise ValueError("locations must be an (n, d) array")
        locs.setflags(write=False)
        object.__setattr__(self, "locations", locs)

    @property
    def size(self) -> int:
        return self.locations.shape[0]

    @property
    def dimension(self) -> int:
        return self.locations.shape[1]

    def location_multiset(self) -> tuple[tuple[float, ...], ...]:
        """Sorted tuple-of-coordinate-tuples; the canonical multiset key."""
        return tuple(sorted(tuple(row) for row in self.locations))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        if self.size != other.size or self.dimension != other.dimension:
            return False
        return self.location_multiset() == other.location_multiset()

    def __hash__(self) -> int:
        return hash(self.location_multiset())


def configuration_from_locations(locations, dimension: int | None = None) -> Configuration:
    """Configuration from an (n, d) array (or empty).

    dimension is required only when locations is empty, to give the empty
    configuration a definite coordinate dimension.
    """
    locs = np.asarray(locations, dtype=float)
    if locs.size == 0:
        if dimension is None:
            raise ValueError("dimension required for an empty configuration")
        locs = locs.reshape(0, dimension)
    if locs.ndim == 1:
        locs = locs.reshape(-1, 1)
    return Configuration(locs)


def empty_configuration(dimension: int = 1) -> Configuration:
    return configuration_from_locations([], dimension=dimension)
