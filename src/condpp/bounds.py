"""Poisson and binomial tails and closed-form Stein-factor bounds.

The first/second difference bounds for the solution of the Stein equation of
a Poisson point process conditioned on at least m points come in uniform
flavours (k1/k2 factors, with a sharper variant when Lambda > m + 2) and
non-uniform flavours depending on the current configuration size (l1/l2
factors).  Every bound is the minimum over the applicable closed-form
candidate expressions; the candidate dictionaries are exposed so callers and
tests can inspect which expression wins where.

Tail conventions: poisson_tail(lam, k) is P(Po(lam) >= k) with value 1 for
all k <= 0, and binomial_tail(n, p, m) is P(Bin(n, p) >= m) with value 1 for
all m <= 0 and 0 for all m > n.  Past the Poisson mode every Poisson tail and
tail ratio, here and in simulate, reads the one series _upper_tail_sum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

__all__ = [
    "poisson_pmf",
    "poisson_tail",
    "poisson_tail_ratio",
    "binomial_tail",
    "k1",
    "k2",
    "l1",
    "l2",
    "first_diff_candidates",
    "first_diff_bound",
    "second_diff_candidates",
    "second_diff_bound",
    "first_diff_nonuniform_candidates",
    "first_diff_bound_nonuniform",
    "second_diff_nonuniform_candidates",
    "second_diff_bound_nonuniform",
    "SteinBounds",
    "compute_stein_bounds",
]

# Lambda threshold separating the two k2 expressions.
_K2_SWITCH = 1.76


def _check_lam(lam: float, name: str = "lam") -> float:
    """lam as a float; the one positive-and-finite rule (rates, masses, horizons)."""
    # float and int first: the numbers.Real check alone takes about 0.4 us, and
    # RandomStream.exponential reaches this once a draw
    if not (isinstance(lam, (float, int, numbers.Real)) and lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"{name} must be positive and finite, got {lam!r}")
    return float(lam)


def _check_m(m: int, name: str = "m") -> int:
    """m as an int; the one nonnegative-integer rule (floors and counts).
    NaN and the infinities fail m % 1 == 0."""
    if not (isinstance(m, (int, float, numbers.Real)) and m >= 0 and m % 1 == 0):
        raise ValueError(f"{name} must be nonnegative and an integer, got {m!r}")
    return int(m)


def _check_replicas(replicas: int, minimum: int = 2) -> int:
    """replicas as an int; the one replica-count rule: a nonnegative integer
    (as _check_m has it) of at least minimum, 2 for a standard error."""
    replicas = _check_m(replicas, "replicas")
    if replicas < minimum:
        raise ValueError(f"need at least {minimum} replicas")
    return replicas


def poisson_pmf(lam: float, j: int) -> float:
    """P(Po(lam) = j), computed in log space."""
    lam = _check_lam(lam)
    if j != int(j):
        raise ValueError("j must be an integer")
    j = int(j)
    if j < 0:
        return 0.0
    return math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1))


def poisson_tail(lam: float, k: int) -> float:
    """P(Po(lam) >= k).  k <= 0 gives 1.

    Past the mode it is pmf(k) (1 + lam T), T as in _upper_tail_sum;
    otherwise 1 minus the head, summed with compensated summation.  The
    relative error is the log-space pmf's, which grows with lam: about 1e-13
    up to lam = 10 and 1.6e-12 at lam = 700.
    """
    lam = _check_lam(lam)
    if k != int(k):
        raise ValueError("k must be an integer")
    k = int(k)
    if k <= 0:
        return 1.0
    if k == 1:
        # 1 - e^{-lam} without cancellation for small lam.
        return -math.expm1(-lam)
    if k > math.ceil(lam):
        return poisson_pmf(lam, k) * (1.0 + lam * _upper_tail_sum(lam, k))
    head = math.fsum(
        math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1)) for j in range(k)
    )
    return 1.0 - head


def _upper_tail_sum(lam: float, k: int) -> float:
    """T = sum_{i>=1} lam^(i-1) k!/(k+i)!, so F(k) = pmf(k) (1 + lam T) past the mode.

    The one series behind every upper tail F past the mode: F itself, the
    ratio F(k-1)/F(k), the survival probability and the Po^(m) count law.
    """
    terms = [1.0 / (k + 1)]
    while terms[-1] > terms[0] * 1e-20:  # k > lam: geometric decrease
        terms.append(terms[-1] * lam / (k + len(terms) + 1))
    return math.fsum(terms)


def poisson_tail_ratio(lam: float, k: int) -> float:
    """F(k-1)/F(k) for F the upper tail; equals 1 + pmf(k-1)/F(k)."""
    lam = _check_lam(lam)
    k = int(k)
    if k <= 0:
        return 1.0
    if k > math.ceil(lam):  # F(k) may underflow; pmf(k-1)/F(k) = (k/lam)/(1 + lam T)
        return 1.0 + k / lam / (1.0 + lam * _upper_tail_sum(lam, k))
    return 1.0 + poisson_pmf(lam, k - 1) / poisson_tail(lam, k)


_LOG_2PI = math.log(2.0 * math.pi)


def _stirlerr(k: int) -> float:
    """log k! - log(sqrt(2 pi k) (k/e)^k), the Stirling error at k >= 1."""
    if k <= 15:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * _LOG_2PI
    kk = k * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k


def _bd0(x: float, mu: float) -> float:
    """x log(x/mu) + mu - x, by a series in (x-mu)/(x+mu) when x is near mu."""
    if abs(x - mu) >= 0.1 * (x + mu):
        return x * math.log(x / mu) + mu - x
    v = (x - mu) / (x + mu)
    s, ej, v2 = (x - mu) * v, 2.0 * x * v, v * v
    j = 1
    while True:
        ej *= v2
        nxt = s + ej / (2 * j + 1)
        if nxt == s:
            return s
        s, j = nxt, j + 1


def _log_binomial_pmf(n: int, p: float, j: int) -> float:
    """log P(Bin(n, p) = j) for 0 <= j <= n, in Loader's saddle-point form.

    C. Loader, "Fast and accurate computation of binomial probabilities"
    (2000).  log C(n, j) from lgamma would cancel terms of size n log n and
    lose about 1e-11 at n = 1e4; the Stirling errors and bd0 stay small.
    """
    if j == 0:
        return n * math.log1p(-p)
    if j == n:
        return n * math.log(p)
    return (
        _stirlerr(n) - _stirlerr(j) - _stirlerr(n - j)
        - _bd0(j, n * p) - _bd0(n - j, n * (1.0 - p))
        - 0.5 * (_LOG_2PI + math.log(j) + math.log1p(-j / n))
    )


def binomial_tail(n: int, p: float, m: int) -> float:
    """P(Bin(n, p) >= m).  m <= 0 gives 1 and m > n gives 0.

    Sums the shorter side with compensated summation: 1 minus the head
    below m when m <= np (the median is floor(np) or ceil(np), so the tail
    is then at least 1/2), otherwise the tail itself.  Either way the terms
    fall from the first one on, and the sum stops once they drop below 1e-20
    of it.
    """
    n = _check_m(n, "n")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if m != int(m):
        raise ValueError("m must be an integer")
    m = int(m)
    if m <= 0:
        return 1.0
    if m > n:
        return 0.0
    head = m <= n * p
    terms: list[float] = []
    for j in range(m - 1, -1, -1) if head else range(m, n + 1):
        t = math.exp(_log_binomial_pmf(n, p, j))
        if terms and t < terms[0] * 1e-20:
            break
        terms.append(t)
    total = math.fsum(terms)
    return 1.0 - total if head else total


def _log_plus(lam: float) -> float:
    return max(0.0, math.log(lam))


def k1(lam: float, m: int) -> float:
    """Uniform first Stein factor min(1/m, (0.95 + log+ lam)/lam).

    At m = 0 the 1/m arm is read as 1, matching the unconditional bound.
    """
    lam = _check_lam(lam)
    m = _check_m(m)
    lead = 1.0 if m == 0 else 1.0 / m
    return min(lead, (0.95 + _log_plus(lam)) / lam)


def k2(lam: float, m: int) -> float:
    """Uniform second Stein factor: 2 log(lam)/lam above lam = 1.76, else 1/(m+1)."""
    lam = _check_lam(lam)
    m = _check_m(m)
    if lam >= _K2_SWITCH:
        return 2.0 * math.log(lam) / lam
    return 1.0 / (m + 1)


def l1(lam: float, size: int) -> float:
    """Non-uniform factor (1 - e^{-w})/w with w = size ^ lam; limit 1 at w = 0."""
    lam = _check_lam(lam)
    if size < 0:
        raise ValueError("size must be nonnegative")
    w = min(float(size), lam)
    if w == 0.0:
        return 1.0
    return -math.expm1(-w) / w


def l2(lam: float, size: int) -> float:
    """Non-uniform factor min(1/(size ^ lam), 1.09/(size + 1) + 1/lam)."""
    lam = _check_lam(lam)
    if size < 0:
        raise ValueError("size must be nonnegative")
    w = min(float(size), lam)
    first = math.inf if w == 0.0 else 1.0 / w
    return min(first, 1.09 / (size + 1) + 1.0 / lam)


def first_diff_candidates(lam: float, m: int) -> dict[str, float]:
    """Applicable closed forms for the uniform first-difference bound."""
    lam = _check_lam(lam)
    m = _check_m(m)
    if m == 0:
        return {"unconditional": k1(lam, 0)}
    factor = k1(lam, m)
    cands = {"base": 1.0 / lam + (m + 1) * factor}
    if lam > m + 2:
        cands["supercritical"] = 1.0 / (lam * (lam - m)) + lam / (lam - m) * factor
    return cands


def first_diff_bound(lam: float, m: int) -> float:
    """Uniform bound on |h(xi + delta_a) - h(xi)| over xi, a, and 1-Lipschitz f."""
    return min(first_diff_candidates(lam, m).values())


def second_diff_candidates(lam: float, m: int) -> dict[str, float]:
    """Applicable closed forms for the uniform second-difference bound.

    At m = 0 the crossed integral term vanishes, leaving twice the first
    difference and the unconditional k2 factor as the two candidates.
    """
    lam = _check_lam(lam)
    m = _check_m(m)
    if m == 0:
        return {"pair": 2.0 * k1(lam, 0), "unconditional": k2(lam, 0)}
    factor1 = k1(lam, m)
    factor2 = k2(lam, m)
    a = (m + 3) * (2 * m + 2)
    cands = {
        "pair": 2.0 / lam + 2.0 * (m + 1) * factor1,
        "crossed": (4 * m + 3) * (m + 3) / (a * lam + 2.0 * lam**2)
        + 4 * m * (m + 1) * (m + 3) / (a + 2.0 * lam) * factor1
        + factor2,
    }
    if lam > m + 2:
        cands["pair-supercritical"] = (
            2.0 / (lam * (lam - m)) + 2.0 * lam / (lam - m) * factor1
        )
        cands["crossed-supercritical"] = (
            (3.0 * lam + m) / (lam * (lam - m) * (lam + m))
            + 4.0 * lam * m / ((lam - m) * (lam + m)) * factor1
            + factor2
        )
    return cands


def second_diff_bound(lam: float, m: int) -> float:
    """Uniform bound on the second difference of the Stein solution."""
    return min(second_diff_candidates(lam, m).values())


def _check_nonuniform_args(lam: float, m: int, size: int) -> tuple[float, int, int]:
    lam = _check_lam(lam)
    m = _check_m(m)
    if m < 1:
        raise ValueError("non-uniform bounds require m >= 1")
    if size != int(size) or size < m:
        raise ValueError("configuration size must be an integer >= m")
    return lam, m, int(size)


def first_diff_nonuniform_candidates(lam: float, m: int, size: int) -> dict[str, float]:
    """Size-dependent closed forms for the first difference at |xi| = size."""
    lam, m, size = _check_nonuniform_args(lam, m, size)
    loc1 = l1(lam, size)
    cands = {"base": (m + 1) / (size + 1) * (1.0 / lam + m * loc1) + loc1}
    if lam > m + 2:
        cands["supercritical"] = (
            (m + 1) / (size + 1) * (1.0 / (lam * (lam - m)) + m / (lam - m) * loc1)
            + loc1
        )
    return cands


def first_diff_bound_nonuniform(lam: float, m: int, size: int) -> float:
    return min(first_diff_nonuniform_candidates(lam, m, size).values())


def second_diff_nonuniform_candidates(lam: float, m: int, size: int) -> dict[str, float]:
    """Size-dependent closed forms for the second difference at |xi| = size.

    The bracketed crossed-term expression is implemented exactly as printed,
    including the lambda placement that differs from the uniform variant.
    """
    lam, m, size = _check_nonuniform_args(lam, m, size)
    loc1 = l1(lam, size)
    loc2 = l2(lam, size)
    a = (m + 3) * (2 * m + 2)
    front = (m + 2) * (m + 1) / ((size + 2) * (size + 1))
    cands = {
        "pair": (2 * m + 2) / (size + 1) * (1.0 / lam + m * loc1) + 2.0 * loc1,
        "crossed": front
        * (
            (4 * m + 3) * (m + 3) / (a + 2.0 * lam)
            + 4 * m * (m + 1) * (m + 3) / (a * lam + 2.0 * lam**2) * loc1
        )
        + loc2,
    }
    if lam > m + 2:
        cands["pair-supercritical"] = (
            (2 * m + 2) / (size + 1) * (1.0 / (lam * (lam - m)) + m / (lam - m) * loc1)
            + 2.0 * loc1
        )
        cands["crossed-supercritical"] = (
            front
            * (
                (3.0 * lam + m) / (lam * (lam - m) * (lam + m))
                + 4.0 * lam * m / ((lam - m) * (lam + m)) * loc1
            )
            + loc2
        )
    return cands


def second_diff_bound_nonuniform(lam: float, m: int, size: int) -> float:
    return min(second_diff_nonuniform_candidates(lam, m, size).values())


@dataclass(frozen=True)
class SteinBounds:
    """Bundle of all applicable Stein-factor bounds at (lam, m[, size])."""

    lam: float
    m: int
    size: int | None
    k1: float
    k2: float
    first_diff: float
    second_diff: float
    first_diff_winner: str
    second_diff_winner: str
    supercritical: bool
    l1: float | None = None
    l2: float | None = None
    first_diff_nonuniform: float | None = None
    second_diff_nonuniform: float | None = None
    first_diff_nonuniform_winner: str | None = None
    second_diff_nonuniform_winner: str | None = None


def _argmin(cands: dict[str, float]) -> tuple[str, float]:
    name = min(cands, key=cands.get)
    return name, cands[name]


def compute_stein_bounds(lam: float, m: int, size: int | None = None) -> SteinBounds:
    """All closed-form bounds at (lam, m), plus non-uniform ones when size given.

    Non-uniform bounds require m >= 1 and size >= m; passing size with m = 0
    raises, matching the scope of the size-dependent results.
    """
    lam = _check_lam(lam)
    m = _check_m(m)
    w1, v1 = _argmin(first_diff_candidates(lam, m))
    w2, v2 = _argmin(second_diff_candidates(lam, m))
    out = dict(
        lam=lam,
        m=m,
        size=size,
        k1=k1(lam, m),
        k2=k2(lam, m),
        first_diff=v1,
        second_diff=v2,
        first_diff_winner=w1,
        second_diff_winner=w2,
        supercritical=lam > m + 2,
    )
    if size is not None:
        wn1, vn1 = _argmin(first_diff_nonuniform_candidates(lam, m, size))
        wn2, vn2 = _argmin(second_diff_nonuniform_candidates(lam, m, size))
        out.update(
            l1=l1(lam, size),
            l2=l2(lam, size),
            first_diff_nonuniform=vn1,
            second_diff_nonuniform=vn2,
            first_diff_nonuniform_winner=wn1,
            second_diff_nonuniform_winner=wn2,
        )
    return SteinBounds(**out)
