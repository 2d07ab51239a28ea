"""End-to-end acceptance gate.

One test per shipped guarantee, at full replica scale, each printing a
single CRITERION n PASS/FAIL line so a tee'd pytest run doubles as the
acceptance report.  Seeds are pinned; reruns must reproduce every number
bit for bit (criterion 9 checks exactly that on the CLI artifacts).
"""

import json
import math

import numpy as np
import pytest

from condpp import cli, verify
from condpp.bernoulli_app import (
    bernoulli_bound,
    calibrated_allowance,
    conditional_poisson_law,
    run_experiment,
    self_distance_calibration,
)
from condpp.bounds import first_diff_bound, k1
from condpp.coupling import (
    CountTestFunction,
    estimate_coalescence_time,
    estimate_delta2_h,
    estimate_delta_h,
    estimate_p_survival,
    p_survival_analytic,
)
from condpp.groundspace import (
    configuration_from_locations,
    derive_stream,
    empty_configuration,
    unit_interval,
)
from condpp.metrics import d1_bar
from condpp.simulate import (
    conditional_count_pmf,
    count_tv_distance,
    simulate_cid_chain,
)
from oracles import count_chain_h, d1_bruteforce


def announce(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_stationary_count_law(capsys):
    """Terminal counts of the chain reach the truncated Poisson law."""
    settings = [(3.0, 2), (1.0, 1), (5.0, 1)]
    replicas, horizon = 20_000, 50.0
    tvs = []
    ok = True
    for lam, m in settings:
        space = unit_interval(lam)
        stream = derive_stream(100, m)
        finals = np.empty(replicas, dtype=int)
        for r in range(replicas):
            init = (
                configuration_from_locations(space.sample(stream, m))
                if m
                else empty_configuration()
            )
            finals[r] = (
                simulate_cid_chain(init, m, horizon, space, stream)
                .final_configuration()
                .size
            )
        tv = count_tv_distance(finals, conditional_count_pmf(lam, m))
        tvs.append((lam, m, tv))
        ok = ok and tv <= 0.01
    detail = ", ".join(f"TV(lam={lam:g},m={m})={tv:.4f}" for lam, m, tv in tvs)
    announce(capsys, 1, ok, f"{detail} (threshold 0.01, {replicas} replicas, T={horizon:g})")
    assert ok


def test_criterion_2_survival_probability(capsys):
    """Excursion survival estimates match the exact tail-ratio formula."""
    lams, ks, replicas = (0.5, 1.0, 2.0, 5.0, 10.0), (1, 2, 5), 100_000
    worst_z = 0.0
    ok = True
    for i, lam in enumerate(lams):
        for j, k in enumerate(ks):
            analytic = p_survival_analytic(lam, k)
            est = estimate_p_survival(lam, k, m=0, replicas=replicas, seed=200 + 97 * i + j)
            z = abs(est.estimate - analytic) / est.se
            worst_z = max(worst_z, z)
            ok = ok and z <= 3.0
    # closed form dominated by min(k/lam, k/(k+1)), exactly 0 at k = 0
    for lam in np.linspace(0.05, 30.0, 200):
        for k in range(0, 12):
            p = p_survival_analytic(float(lam), k)
            dom = min(k / lam, k / (k + 1)) if k else 0.0
            ok = ok and p <= dom + 1e-15
            if k == 0:
                ok = ok and p == 0.0
    announce(
        capsys, 2, ok,
        f"15-cell grid worst |z|={worst_z:.2f} (limit 3.0, {replicas} replicas); "
        "closed form within min(k/lam, k/(k+1)), zero at k=0",
    )
    assert ok


def test_criterion_3_matching_distance_exactness(capsys):
    """The matching distance (the unit line's DP) equals enumeration and is a metric."""
    space = unit_interval(2.0)
    stream = derive_stream(300, 0)

    def draw(max_size=7):
        size = stream.integer(max_size + 1)
        if size == 0:
            return empty_configuration()
        return configuration_from_locations(space.sample(stream, size))

    worst = 0.0
    for _ in range(500):
        a, b = draw(), draw()
        worst = max(
            worst,
            abs(d1_bar(a, b, space) - d1_bruteforce(a.locations, b.locations, space.metric)),
        )
    axiom_ok = True
    for _ in range(1000):
        a, b, c = draw(5), draw(5), draw(5)
        ab, ba = d1_bar(a, b, space), d1_bar(b, a, space)
        axiom_ok = axiom_ok and ab == ba
        axiom_ok = axiom_ok and 0.0 <= ab <= 1.0
        axiom_ok = axiom_ok and d1_bar(a, a, space) == 0.0
        axiom_ok = axiom_ok and d1_bar(a, c, space) <= ab + d1_bar(b, c, space) + 1e-12
    ok = worst <= 1e-12 and axiom_ok
    announce(
        capsys, 3, ok,
        f"500 pairs vs enumeration, worst gap {worst:.2e} (limit 1e-12); "
        f"metric axioms on 1000 triples {'hold' if axiom_ok else 'FAIL'}",
    )
    assert ok


def test_criterion_4_generator_identity(capsys):
    """The estimated generator residual vanishes and the count pipeline
    reproduces a dense linear-system solve of the stationary chain."""
    lam, m = 3.0, 1
    report = verify.verify_stein(lam=lam, m=m, sizes=(1, 2, 4), replicas=20_000, seed=0)
    residual_ok = report["passed"]
    zs = [abs(r["estimate"]) / r["se"] for r in report["rows"]]

    space = unit_interval(lam)
    rule = lambda j: min(1.0, j / 10.0)
    f = CountTestFunction(rule)
    h = count_chain_h(lam, m, rule, top=200)
    xi1 = configuration_from_locations(space.sample(derive_stream(400, 0), 1))
    d1 = estimate_delta_h(f, xi1, np.array([0.5]), m, space, replicas=30_000, seed=7)
    z1 = abs(d1.estimate - (h[1] - h[0])) / d1.se
    d2 = estimate_delta2_h(
        f, xi1, np.array([0.3]), np.array([0.8]), m, space, replicas=30_000, seed=7
    )
    z2 = abs(d2.estimate - (h[2] - 2 * h[1] + h[0])) / d2.se
    oracle_ok = z1 <= 3.0 and z2 <= 3.0
    ok = residual_ok and oracle_ok
    announce(
        capsys, 4, ok,
        f"residual |z| = {', '.join(f'{z:.2f}' for z in zs)} at sizes 1,2,4 "
        f"(limit 3.0, 20000 replicas); linear-solve check z={z1:.2f}/{z2:.2f} "
        "for first/second differences (30000 replicas)",
    )
    assert ok


def test_criterion_5_bound_domination(capsys):
    """Estimated h-differences never exceed the closed-form factors."""
    ok = True
    details = []
    for lam, m in [(5.0, 1), (10.0, 2), (1.0, 1)]:
        report = verify.verify_delta_bounds(
            lam=lam, m=m, n_scenarios=20, replicas=1500, seed=0,
            nonuniform_offsets=(0, 3, 10),
        )
        margin = min(
            (r["bound"] + 3.0 * r["se"] - abs(r["estimate"])) for r in report["rows"]
        )
        details.append(f"(lam={lam:g},m={m}) rows={len(report['rows'])} min margin={margin:.3f}")
        ok = ok and report["passed"]
    announce(capsys, 5, ok, "; ".join(details))
    assert ok


def test_criterion_6_unconditional_consistency(capsys):
    """With no floor the machinery degrades to the unconditional chain."""
    space = unit_interval(2.0)
    xi = configuration_from_locations(space.sample(derive_stream(600, 0), 2))
    est = estimate_coalescence_time(
        xi, np.array([0.4]), m=0, space=space, replicas=10_000, seed=601
    )
    z = abs(est.estimate - 1.0) / est.se
    lifetime_ok = z <= 3.0 and est.capped == 0
    formula_ok = True
    for lam in (0.1, 0.5, 1.0, 1.76, 2.0, math.e, 5.0, 10.0, 50.0):
        want = min(1.0, (0.95 + max(0.0, math.log(lam))) / lam)
        formula_ok = formula_ok and first_diff_bound(lam, 0) == want
        formula_ok = formula_ok and k1(lam, 0) == want
    ok = lifetime_ok and formula_ok
    announce(
        capsys, 6, ok,
        f"surplus-point lifetime mean={est.estimate:.4f} (Exp(1) target, |z|={z:.2f}, "
        f"10000 replicas); no-floor bound formula {'exact' if formula_ok else 'FAIL'}",
    )
    assert ok


def test_criterion_7_reference_constants(capsys):
    """Hand-checked constants reproduce to the printed precision."""
    cases = [
        ("k1(10,1)", k1(10.0, 1), 0.3252585),
        ("first_diff_bound(10,1)", first_diff_bound(10.0, 1), 0.3725094),
        ("p_survival_analytic(2,1)", p_survival_analytic(2.0, 1), 0.3434823),
        ("bound2(100,0.05)", bernoulli_bound(100, 0.05)[1], 0.1101834),
    ]
    ok = True
    gaps = []
    for label, got, printed in cases:
        gap = abs(got - printed)
        gaps.append(f"{label}: |{got:.10f} - {printed}| = {gap:.1e}")
        ok = ok and gap <= 2e-7
    announce(capsys, 7, ok, "; ".join(gaps) + " (tolerance 2e-7)")
    assert ok


def test_criterion_8_bernoulli_experiment(capsys):
    """The discrete-site process sits within its distance bound at scale."""
    n, p, n_samples = 100, 0.05, 500
    lam = n * p
    space = unit_interval(lam)
    cal = self_distance_calibration(
        conditional_poisson_law(space, 1), n_samples=n_samples, replicas=8,
        seed=1_000_000, space=space,
    )
    allowance = calibrated_allowance(cal)
    fails = 0
    worst = -math.inf
    for seed in range(10):
        rep = run_experiment(n, p, n_samples, seed=seed, allowance=allowance)
        fails += not rep.passed
        worst = max(worst, rep.d2.estimate - rep.applicable_bound)
    shape_ok = True
    scaled0 = bernoulli_bound(50, 0.1)[1] * math.sqrt(50)
    for grid_n in (50, 100, 200, 400, 800):
        ratio = bernoulli_bound(grid_n, 0.1)[1] * math.sqrt(grid_n) / scaled0
        shape_ok = shape_ok and 0.5 <= ratio <= 2.5
    ok = fails == 0 and shape_ok
    announce(
        capsys, 8, ok,
        f"10 seeds at n={n}, p={p}, N={n_samples}: {10 - fails}/10 within bound "
        f"(allowance {allowance:.4f}, worst excess over raw bound {worst:+.4f}); "
        f"sqrt(n)-scaled bound stays in [0.5, 2.5] band: {shape_ok}",
    )
    assert ok


def test_criterion_9_reproducibility(capsys, tmp_path):
    """Same seed, same bytes: CLI artifacts and estimator floats."""
    invocations = [
        ("bounds", ["bounds", "--lambda", "10", "--m", "1", "--xi-size", "11"]),
        (
            "sample",
            ["sample", "--law", "cpoisson", "--lambda", "3", "--m", "2",
             "--count", "200", "--seed", "42"],
        ),
        (
            "simulate",
            ["simulate", "--lambda", "2", "--m", "1", "--t", "10",
             "--replicas", "20", "--seed", "42"],
        ),
        (
            "verify",
            ["verify", "p-survival", "--lambda", "2", "--replicas", "5000",
             "--seed", "42"],
        ),
        (
            "bernoulli",
            ["bernoulli", "--n", "50", "--p", "0.1", "--samples", "60",
             "--replicas", "3", "--seed", "42"],
        ),
    ]
    ok = True
    mismatched = []
    for name, argv in invocations:
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}"
            code = cli.main([*argv, "--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            ok = False
            mismatched.append(name)
    a = estimate_p_survival(2.0, 1, 0, replicas=10_000, seed=9)
    b = estimate_p_survival(2.0, 1, 0, replicas=10_000, seed=9)
    ok = ok and a == b
    announce(
        capsys, 9, ok,
        "byte-identical reruns for "
        + ", ".join(name for name, _ in invocations)
        + ("" if not mismatched else f"; MISMATCH in {mismatched}")
        + "; estimator floats bit-equal on rerun",
    )
    assert ok
