"""Conditional Bernoulli process approximation on the unit interval.

A Bernoulli process puts points at sites i/n where iid Bernoulli(p)
indicators fire; conditioned on at least one point, its law is within an
explicit closed-form distance of the Poisson process with intensity np dx
conditioned the same way.  This module evaluates those closed-form bounds
and runs the matching simulation experiment: sample both processes, measure
the empirical d-bar-2 distance, and check it sits below the bound once the
empirical estimator's upward bias (measured by matched self-distance runs)
is allowed for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .bounds import _check_m
from .estimates import MCEstimate
from .groundspace import Configuration, GroundSpace, RandomStream, derive_stream, unit_interval
from .metrics import D2Estimate, d2_bar_empirical
from .simulate import sample_bernoulli_process, sample_conditional_poisson

__all__ = [
    "bernoulli_bound",
    "BernoulliReport",
    "run_experiment",
    "report_to_obj",
    "conditional_poisson_law",
    "conditional_bernoulli_law",
    "self_distance_calibration",
    "calibrated_allowance",
]


def bernoulli_bound(n: int, p: float) -> tuple[float, float | None]:
    """Closed-form d-bar-2 bounds for the conditional Bernoulli process.

    Returns (bound1, bound2); bound2 is None unless np > 3, where its
    sharper main term is valid.  Both share the conditioning prefactor
    1/(1 - (1-p)^n) and the discretization term min(1/(2n) + p/2,
    1/sqrt(3np)).
    """
    if _check_m(n, "n") < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"need p in (0, 1), got p={p}")
    lam = n * p
    prefactor = 1.0 / -math.expm1(n * math.log1p(-p))
    discretization = min(1.0 / (2 * n) + p / 2.0, 1.0 / math.sqrt(3.0 * lam))
    denom = max(0.5, math.sqrt((n - 1) * p * (1.0 - p)))
    main1 = (p + 2.0 * p * (0.95 + max(0.0, math.log(lam)))) / denom
    bound1 = prefactor * (discretization + main1)
    bound2 = None
    if lam > 3.0:
        main2 = (p + n * p * p * (0.95 + math.log(lam))) / ((lam - 1.0) * denom)
        bound2 = prefactor * (discretization + main2)
    return bound1, bound2


def conditional_poisson_law(space: GroundSpace, m: int) -> Callable[[RandomStream], Configuration]:
    """Sampler closure for Po^(m) on the given space."""

    def draw(stream: RandomStream) -> Configuration:
        return sample_conditional_poisson(space, m, stream)

    return draw


def conditional_bernoulli_law(n: int, p: float, m: int) -> Callable[[RandomStream], Configuration]:
    """Sampler closure for the site process conditioned on >= m points."""

    def draw(stream: RandomStream) -> Configuration:
        return sample_bernoulli_process(n, p, m, stream)

    return draw


def _draw_sample(
    law: Callable[[RandomStream], Configuration],
    n_samples: int,
    stream: RandomStream,
) -> list[Configuration]:
    return [law(stream) for _ in range(n_samples)]


def self_distance_calibration(
    law: Callable[[RandomStream], Configuration],
    n_samples: int,
    replicas: int,
    seed: int,
    space: GroundSpace,
    workers: int = 1,
) -> MCEstimate:
    """Empirical d-bar-2 between two independent samples of the same law.

    The true distance is zero, so the mean over replicates measures the
    finite-sample bias of the empirical transport estimator at this sample
    size; use it as the one-sided allowance when comparing against bounds.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples per side")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    vals = []
    for r in range(replicas):
        ps = _draw_sample(law, n_samples, derive_stream(seed, 2 * r))
        qs = _draw_sample(law, n_samples, derive_stream(seed, 2 * r + 1))
        vals.append(d2_bar_empirical(ps, qs, space, workers=workers).estimate)
    mean = math.fsum(vals) / replicas
    var = math.fsum((v - mean) ** 2 for v in vals) / (replicas - 1)
    return MCEstimate(
        estimate=mean,
        se=math.sqrt(var / replicas),
        replicas=replicas,
        seed=seed,
    )


def calibrated_allowance(calibration: MCEstimate, k_se: float = 3.0) -> float:
    """One-sided bias allowance: calibration mean plus k_se standard errors."""
    return calibration.estimate + k_se * calibration.se


@dataclass(frozen=True)
class BernoulliReport:
    """Artifact of one approximation experiment."""

    n: int
    p: float
    lam: float
    n_samples: int
    seed: int
    d2: D2Estimate
    bound1: float
    bound2: float | None
    allowance: float
    applicable_bound: float
    passed: bool
    vacuous: bool


def report_to_obj(report: BernoulliReport) -> dict:
    """Report as a JSON-ready dict with stable field names."""
    return {
        "n": report.n,
        "p": report.p,
        "lambda": report.lam,
        "samples": report.n_samples,
        "seed": report.seed,
        "bound1": report.bound1,
        "bound2": report.bound2,
        "d2_estimate": report.d2.estimate,
        "d2": {
            "estimate": report.d2.estimate,
            "n": report.d2.n_samples,
            "seed": report.d2.seed,
            "note": report.d2.note,
        },
        "allowance": report.allowance,
        "applicable_bound": report.applicable_bound,
        "pass": report.passed,
        "vacuous": report.vacuous,
    }


def run_experiment(
    n: int,
    p: float,
    n_samples: int,
    seed: int,
    allowance: float = 0.0,
    workers: int = 1,
) -> BernoulliReport:
    """Sample both conditional processes, estimate d-bar-2, compare to bounds.

    The comparison is one-sided: the empirical distance (upward biased) must
    not exceed the sharpest applicable bound plus the provided allowance.  A
    bound above 1 can never fail against a distance capped at 1, and the
    report flags that as vacuous.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples per side")
    bound1, bound2 = bernoulli_bound(n, p)
    lam = n * p
    space = unit_interval(lam)
    bern = _draw_sample(conditional_bernoulli_law(n, p, 1), n_samples, derive_stream(seed, 0))
    pois = _draw_sample(conditional_poisson_law(space, 1), n_samples, derive_stream(seed, 1))
    d2 = d2_bar_empirical(bern, pois, space, workers=workers, seed=seed)
    applicable = bound1 if bound2 is None else min(bound1, bound2)
    return BernoulliReport(
        n=n,
        p=p,
        lam=lam,
        n_samples=n_samples,
        seed=seed,
        d2=d2,
        bound1=bound1,
        bound2=bound2,
        allowance=allowance,
        applicable_bound=applicable,
        passed=d2.estimate <= applicable + allowance,
        vacuous=applicable > 1.0,
    )
