"""Verification batteries: simulation against analytic ground truth.

Each battery returns a JSON-ready report dict with one row per check and an
overall 'passed' flag.  Rows compare a Monte Carlo estimate against an
independent target (closed-form probability, closed-form bound, or exact
identity) at three standard errors; estimator event-cap truncation must stay
below one replica in a thousand for a row to pass.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import (
    _check_m,
    compute_stein_bounds,
    first_diff_bound,
    first_diff_bound_nonuniform,
    second_diff_bound,
    second_diff_bound_nonuniform,
)
from .coupling import (
    _check_survival,
    estimate_delta2_h,
    estimate_delta_h,
    estimate_p_survival,
    p_survival_analytic,
    reference_test_functions,
    stein_residual,  # bound here too: the benchmark's traced run wraps verify.stein_residual
    stein_residuals,
)
from .groundspace import Configuration, derive_stream, unit_interval
from .simulate import sample_conditional_poisson

__all__ = [
    "verify_p_survival",
    "verify_stein",
    "verify_delta_bounds",
    "MAX_CAPPED_FRACTION",
]

MAX_CAPPED_FRACTION = 1e-3

_P_SURVIVAL_LAMS = (0.5, 1.0, 2.0, 5.0, 10.0)
_P_SURVIVAL_KS = (1, 2, 5)


def verify_p_survival(
    lams=_P_SURVIVAL_LAMS,
    ks=_P_SURVIVAL_KS,
    m: int = 0,
    replicas: int = 100_000,
    seed: int = 0,
) -> dict:
    """Excursion survival probabilities against the closed form.

    The survival probability does not depend on the floor m (the count stays
    above k >= m for the whole excursion), so any m <= min(ks) is valid.
    Every cell is checked before the first estimate; an empty grid is refused.
    """
    grid = [(i, lam, j, k) for i, lam in enumerate(lams) for j, k in enumerate(ks)]
    if not grid:
        raise ValueError("lams and ks must each name at least one value")
    for _, lam, _, k in grid:
        _check_survival(lam, k, m, replicas)
    rows = []
    for i, lam, j, k in grid:
        analytic = p_survival_analytic(lam, k)
        est = estimate_p_survival(lam, k, m=m, replicas=replicas, seed=seed + 101 * i + j)
        gap = abs(est.estimate - analytic)
        ok = gap <= 3.0 * est.se
        rows.append(
            {
                "scenario": f"lambda={lam:g},k={k}",
                "lambda": lam,
                "k": k,
                "analytic": analytic,
                "estimate": est.estimate,
                "se": est.se,
                "bound": analytic,
                "pass": ok,
            }
        )
    return {
        "battery": "p-survival",
        "m": m,
        "replicas": replicas,
        "seed": seed,
        "rows": rows,
        "passed": all(r["pass"] for r in rows),
    }


def _fixed_size_configuration(size: int, space, stream) -> Configuration:
    return Configuration(space.sample(stream, size))


def verify_stein(
    lam: float = 3.0,
    m: int = 1,
    sizes=None,
    replicas: int = 20_000,
    seed: int = 0,
) -> dict:
    """Generator identity residuals at fixed configuration sizes.

    Uses the count test function so the target is exactly zero and the
    residual is a pure Monte Carlo null check.  sizes defaults to
    (m, m + 1, m + 3): the floor, one point above it and three above it.
    Every size's coupled components run through the engine as one batch.
    """
    _check_m(m)
    sizes = (m, m + 1, m + 3) if sizes is None else tuple(sizes)
    if not sizes:
        raise ValueError("sizes must name at least one configuration size")
    if any(_check_m(size, "sizes") < m for size in sizes):
        raise ValueError("sizes must sit at or above the floor m")
    space = unit_interval(lam)
    f = reference_test_functions(space)[3]
    xis = [
        _fixed_size_configuration(size, space, derive_stream(seed, 900_000 + i))
        for i, size in enumerate(sizes)
    ]
    seeds = [seed + 1000 * (i + 1) for i in range(len(sizes))]
    rows = []
    for size, est in zip(sizes, stein_residuals(f, xis, m, space, replicas, seeds)):
        ok = (
            abs(est.estimate) <= 3.0 * est.se
            and est.capped_fraction < MAX_CAPPED_FRACTION
        )
        rows.append(
            {
                "scenario": f"size={size}",
                "size": size,
                "f": f.label,
                "estimate": est.estimate,
                "se": est.se,
                "bound": 0.0,
                "capped": est.capped,
                "pass": ok,
            }
        )
    return {
        "battery": "stein",
        "lambda": lam,
        "m": m,
        "replicas": replicas,
        "seed": seed,
        "rows": rows,
        "passed": all(r["pass"] for r in rows),
    }


def _delta_bounds_unit(args) -> list[dict]:
    """One delta-bounds work unit: draw xi, alpha, beta and f; both orders.

    A "uniform" unit draws xi from Po^(m) as scenario number key and checks
    the uniform bounds; a "nonuniform" unit pins |xi| = key and checks the
    size-dependent bounds.
    """
    kind, lam, m, replicas, seed, key = args
    space = unit_interval(lam)
    family = reference_test_functions(space)
    if kind == "uniform":
        setup = derive_stream(seed, 500_000 + key)
        xi = sample_conditional_poisson(space, m, setup)
        bounds = (first_diff_bound(lam, m), second_diff_bound(lam, m))
        est_seed = seed + 7919 * key
        label = f"uniform-{key}"
    else:
        setup = derive_stream(seed, 700_000 + key)
        xi = _fixed_size_configuration(key, space, setup)
        bounds = (
            first_diff_bound_nonuniform(lam, m, key),
            second_diff_bound_nonuniform(lam, m, key),
        )
        est_seed = seed + 104729 * key
        label = f"nonuniform-size{key}"
    alpha = space.sample_one(setup)
    beta = space.sample_one(setup)
    f = family[setup.integer(len(family))]
    est1 = estimate_delta_h(f, xi, alpha, m, space, replicas, est_seed + 1)
    est2 = estimate_delta2_h(f, xi, alpha, beta, m, space, replicas, est_seed + 2)
    rows = []
    for order, est, bound in zip((1, 2), (est1, est2), bounds):
        ok = (
            abs(est.estimate) <= bound + 3.0 * est.se
            and est.capped_fraction < MAX_CAPPED_FRACTION
        )
        rows.append(
            {
                "kind": kind,
                "scenario": f"{label}-order{order}",
                "size": xi.size,
                "f": f.label,
                "order": order,
                "estimate": est.estimate,
                "se": est.se,
                "bound": bound,
                "capped": est.capped,
                "pass": ok,
            }
        )
    return rows


def verify_delta_bounds(
    lam: float,
    m: int,
    n_scenarios: int = 20,
    replicas: int = 1500,
    seed: int = 0,
    nonuniform_offsets=(0, 3, 10),
    workers: int = 1,
) -> dict:
    """Estimated differences of h against the closed-form bounds.

    Uniform rows draw random scenarios; non-uniform rows pin the size of xi
    at m + offset.  Scenarios are independent work units with derived
    streams, so results do not depend on the worker count.  lam, m, replicas
    and the grid are checked before any unit runs; an empty grid is refused.
    """
    if m < 1:
        raise ValueError("delta-bounds battery requires m >= 1")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    bounds = compute_stein_bounds(lam, m)
    n_scenarios = _check_m(n_scenarios, "n_scenarios")
    for off in nonuniform_offsets:
        _check_m(off, "nonuniform_offsets")
    units = [("uniform", lam, m, replicas, seed, s) for s in range(n_scenarios)]
    units += [("nonuniform", lam, m, replicas, seed, m + off) for off in nonuniform_offsets]
    if not units:
        raise ValueError("delta-bounds battery needs a scenario or a nonuniform offset")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_delta_bounds_unit, units))
    else:
        blocks = [_delta_bounds_unit(u) for u in units]
    rows = [r for block in blocks for r in block]
    return {
        "battery": "delta-bounds",
        "lambda": lam,
        "m": m,
        "replicas": replicas,
        "seed": seed,
        "n_scenarios": n_scenarios,
        "first_diff_bound": bounds.first_diff,
        "second_diff_bound": bounds.second_diff,
        "rows": rows,
        "passed": all(r["pass"] for r in rows),
    }
