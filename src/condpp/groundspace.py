"""Ground space, point configurations, and deterministic randomness.

A ground space is a bounded metric space Gamma carrying a finite intensity
measure of total mass Lambda; its metric d0 is truncated at 1.  Finite point
configurations on Gamma are the state space of everything downstream.  All
randomness flows through RandomStream, a counter-derived uniform source, so
that every simulation in the package is reproducible from (master_seed, index)
alone and coupled simulations can share streams explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "RandomStream",
    "derive_stream",
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

    def __init__(self, master_seed: int, index: int = 0):
        if master_seed < 0 or index < 0:
            raise ValueError("master_seed and index must be nonnegative")
        self.master_seed = int(master_seed)
        self.index = int(index)
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.index,))
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def _unread(self, n: int) -> None:
        """Step back over the last n uniforms; PCG64 advances modulo 2**128."""
        self._gen.bit_generator.advance(-int(n) % (1 << 128))

    def uniform(self) -> float:
        """Next uniform in [0, 1)."""
        return self._gen.random()

    def uniforms(self, n: int) -> np.ndarray:
        """Next n uniforms as an array, same logical sequence as uniform()."""
        return self._gen.random(n)

    def exponential(self, rate: float) -> float:
        """Exponential holding time with the given rate; one uniform consumed."""
        if rate <= 0.0:
            raise ValueError("rate must be positive")
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


@dataclass(frozen=True)
class GroundSpace:
    """Bounded metric space with a finite intensity measure.

    Fields:
        dimension: coordinate dimension of points.
        total_mass: Lambda, the total mass of the intensity measure (> 0).
        metric: d0(x, y) for single points, valued in [0, 1].
        pairwise: vectorized d0 on (n, dim) x (m, dim) arrays -> (n, m).
        sampler: (stream, size) -> (size, dim) array of points drawn from the
            normalized intensity measure.  It reads `dimension` uniforms a
            point with one stream.uniforms(size * dimension) call, point i
            from the i-th run of `dimension` of them.  The chain and the
            coupled engine read location uniforms ahead and hand a sampler
            exactly that many; one that asks for another number raises
            ValueError.
        contains: membership test for a single point.
        label: short human-readable name used in artifacts.
    """

    dimension: int
    total_mass: float
    metric: Callable[[np.ndarray, np.ndarray], float]
    pairwise: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sampler: Callable[[RandomStream, int], np.ndarray]
    contains: Callable[[np.ndarray], bool]
    label: str = "custom"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not (self.total_mass > 0.0 and math.isfinite(self.total_mass)):
            raise ValueError("total_mass must be positive and finite")

    def distance(self, x, y) -> float:
        """Validated d0 between two points of this space."""
        x = np.asarray(x, dtype=float).reshape(self.dimension)
        y = np.asarray(y, dtype=float).reshape(self.dimension)
        if not (self.contains(x) and self.contains(y)):
            raise ValueError("point outside the ground space")
        d = float(self.metric(x, y))
        if not (0.0 <= d <= 1.0 + 1e-12):
            raise ValueError(f"metric returned {d}, outside [0, 1]")
        return min(d, 1.0)

    def sample(self, stream: RandomStream, size: int) -> np.ndarray:
        """size points from the normalized intensity measure."""
        pts = self.sampler(stream, size)
        return np.asarray(pts, dtype=float).reshape(size, self.dimension)

    def sample_one(self, stream: RandomStream) -> np.ndarray:
        return self.sample(stream, 1)[0]


@dataclass(frozen=True)
class _Drawn:
    """Stream stand-in that hands uniforms already read to a sampler."""

    u: np.ndarray

    def uniforms(self, n: int) -> np.ndarray:
        if n != self.u.size:
            raise ValueError("the sampler must read `dimension` uniforms a point")
        return self.u


def _truncated_euclidean(x: np.ndarray, y: np.ndarray) -> float:
    return min(1.0, float(np.linalg.norm(x - y)))


def _truncated_euclidean_pairwise(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    diff = xs[:, None, :] - ys[None, :, :]
    return np.minimum(1.0, np.sqrt(np.sum(diff * diff, axis=2)))


# Canonical-space pieces live at module level (wrapped with partial) so that
# GroundSpace instances pickle across process pools.

def _cube_sampler(dimension: int, stream: RandomStream, size: int) -> np.ndarray:
    return stream.uniforms(size * dimension).reshape(size, dimension)


def _cube_contains(x: np.ndarray) -> bool:
    return bool(np.all(x >= 0.0) and np.all(x <= 1.0))


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
        sampler=partial(_cube_sampler, dimension),
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
    """Finite point configuration: tagged atoms with locations.

    Tags are identity labels used by couplings to track matched points across
    chains; they carry no statistical meaning.  Equality and hashing use the
    location multiset only, so two configurations with the same points but
    different tags compare equal.
    """

    tags: tuple[int, ...]
    locations: np.ndarray  # (size, dimension), read-only

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        if locs.ndim != 2:
            raise ValueError("locations must be an (n, d) array")
        if len(self.tags) != locs.shape[0]:
            raise ValueError("one tag per location required")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError("tags must be distinct")
        locs = locs.copy()
        locs.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "tags", tuple(int(t) for t in self.tags))

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

    def with_point(self, tag: int, location: np.ndarray) -> "Configuration":
        if tag in self.tags:
            raise ValueError(f"tag {tag} already present")
        loc = np.asarray(location, dtype=float).reshape(1, self.dimension)
        return Configuration(self.tags + (tag,), np.vstack([self.locations, loc]))

    def without_tag(self, tag: int) -> "Configuration":
        if tag not in self.tags:
            raise KeyError(f"tag {tag} not present")
        keep = [i for i, t in enumerate(self.tags) if t != tag]
        return Configuration(tuple(self.tags[i] for i in keep), self.locations[keep])

    def location_of(self, tag: int) -> np.ndarray:
        return self.locations[self.tags.index(tag)]


def configuration_from_locations(locations, dimension: int | None = None) -> Configuration:
    """Configuration with fresh tags 0..n-1 from an (n, d) array (or empty).

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
    return Configuration(tuple(range(locs.shape[0])), locs)


def empty_configuration(dimension: int = 1) -> Configuration:
    return configuration_from_locations([], dimension=dimension)
