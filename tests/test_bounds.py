import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condpp import bounds, simulate
from condpp.coupling import p_survival_analytic
from oracles import binomial_tail_mp, p_survival_mp, poisson_tail_mp

LAM_GRID = [0.1, 0.5, 1.0, 1.76, 2.0, 5.0, 10.0, 25.0, 50.0]

TAIL_GRID = [(lam, k) for k in (0, 1, 2, 3, 5, 10, 20, 40) for lam in LAM_GRID]

# (lam, k) where the Poisson tail at k underflows or 1 - (R - k/lam) cancels.
FAR_PAST_MODE = [(0.5, 200), (0.001, 5), (1e-300, 2)]

# (n, p, m): m at 1, at n, and on both sides of the mean np.
BINOMIAL_GRID = sorted({
    (n, p, m)
    for n in (1, 2, 10, 100, 1000, 10_000)
    for p in (1e-4, 0.01, 0.05, 0.3, 0.5, 0.9, 0.999)
    for m in (1, math.floor(n * p), math.floor(n * p) + 1, n)
})


class TestTail:
    @pytest.mark.parametrize(
        "lam, k",
        [
            pytest.param(lam, k, id=f"{k}-{lam}")
            for lam, k in TAIL_GRID + FAR_PAST_MODE + [(700.0, 760)]
        ],
    )
    def test_tail_matches_high_precision(self, lam, k):
        got = bounds.poisson_tail(lam, k)
        want = float(poisson_tail_mp(lam, k))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(
        "lam, ks",
        [pytest.param(lam, range(1, 30), id=str(lam)) for lam in (0.5, 3.0, 10.0)]
        + [pytest.param(lam, [k], id=f"{lam}-k{k}") for lam, k in FAR_PAST_MODE],
    )
    def test_tail_ratio_matches_high_precision(self, lam, ks):
        for k in ks:
            got = bounds.poisson_tail_ratio(lam, k)
            want = float(poisson_tail_mp(lam, k - 1) / poisson_tail_mp(lam, k))
            assert got == pytest.approx(want, rel=1e-13)

    def test_tail_at_or_below_zero_is_one(self):
        assert bounds.poisson_tail(3.0, 0) == 1.0
        assert bounds.poisson_tail(3.0, -2) == 1.0

    def test_pmf_normalises(self):
        total = sum(bounds.poisson_pmf(4.0, j) for j in range(80))
        assert total == pytest.approx(1.0, abs=1e-14)


class TestBinomialTail:
    @pytest.mark.parametrize("n, p, m", BINOMIAL_GRID)
    def test_matches_high_precision(self, n, p, m):
        want = float(binomial_tail_mp(n, p, m))
        assert bounds.binomial_tail(n, p, m) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_edges_and_arguments(self):
        assert bounds.binomial_tail(5, 0.3, 0) == bounds.binomial_tail(5, 0.3, -1) == 1.0
        assert bounds.binomial_tail(5, 0.3, 6) == bounds.binomial_tail(0, 0.3, 1) == 0.0
        for args in [(5, 0.0, 1), (5, 1.0, 1), (-1, 0.3, 1), (2.5, 0.3, 1), (5, 0.3, 1.5)]:
            with pytest.raises(ValueError):
                bounds.binomial_tail(*args)

    def test_budget_error_exactly_where_scipy_puts_acceptance_below_floor(self):
        from scipy.stats import binom

        class AllFire:
            # Every indicator fires, so an accepted draw takes one attempt.
            def uniforms(self, n):
                return np.zeros(n)

        for n, p, m in BINOMIAL_GRID:
            if binom.sf(m - 1, n, p) < simulate._MIN_ACCEPTANCE:
                with pytest.raises(simulate.BudgetError):
                    simulate.sample_bernoulli_process(n, p, m, AllFire())
            else:
                assert simulate.sample_bernoulli_process(n, p, m, AllFire()).size == n


class TestConstants:
    """Values frozen from hand evaluation of the closed forms."""

    def test_k1_values(self):
        assert bounds.k1(10.0, 1) == pytest.approx(0.3252585092994046, abs=1e-15)
        assert bounds.k1(1.0, 2) == 0.5
        # min picks 1/m once lam is small enough that the log term loses
        assert bounds.k1(100.0, 1) == pytest.approx(
            (0.95 + math.log(100.0)) / 100.0, abs=1e-15
        )

    def test_k1_at_floor_zero(self):
        assert bounds.k1(10.0, 0) == pytest.approx(0.3252585092994046, abs=1e-15)
        assert bounds.k1(0.5, 0) == 1.0  # capped by the j >= 1 mass argument

    def test_k2_values(self):
        # below the threshold the 1/(m+1) branch is active
        assert bounds.k2(1.0, 3) == 0.25
        assert bounds.k2(1.5, 0) == 1.0
        # above it the 2 log(lam)/lam branch is active
        assert bounds.k2(math.e, 1) == pytest.approx(0.7357588823428847, abs=1e-15)
        assert bounds.k2(10.0, 1) == pytest.approx(
            2.0 * math.log(10.0) / 10.0, abs=1e-15
        )

    def test_l_values(self):
        assert bounds.l1(5.0, 3) == pytest.approx(0.3167376438773787, abs=1e-15)
        assert bounds.l2(5.0, 3) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert bounds.l1(5.0, 10) == pytest.approx(0.1986524106001829, abs=1e-15)
        # k = 0: the (1 - e^-x)/x form continues to its limit 1
        assert bounds.l1(5.0, 0) == 1.0

    def test_first_diff_values(self):
        assert bounds.first_diff_bound(10.0, 1) == pytest.approx(
            0.3725094547771162, abs=1e-15
        )
        assert bounds.first_diff_bound(1.0, 2) == 2.5
        assert bounds.first_diff_bound(10.0, 0) == pytest.approx(
            0.3252585092994046, abs=1e-15
        )

    def test_first_diff_candidates(self):
        cands = bounds.first_diff_candidates(10.0, 1)
        assert cands == pytest.approx(
            {"base": 0.7505170185988091, "supercritical": 0.3725094547771162}
        )
        # subcritical lam never offers the supercritical branch
        assert set(bounds.first_diff_candidates(1.0, 2)) == {"base"}

    def test_second_diff_candidates(self):
        cands = bounds.second_diff_candidates(10.0, 1)
        assert cands == pytest.approx(
            {
                "pair": 1.5010340371976183,
                "crossed": 0.827413471309391,
                "pair-supercritical": 0.7450189095542324,
                "crossed-supercritical": 0.6232477294268515,
            }
        )
        assert bounds.second_diff_bound(10.0, 1) == pytest.approx(
            0.6232477294268515, abs=1e-15
        )

    def test_second_diff_subcritical(self):
        cands = bounds.second_diff_candidates(1.0, 1)
        assert cands == pytest.approx(
            {"pair": 5.8, "crossed": 3.7444444444444445}
        )
        assert bounds.second_diff_bound(1.0, 1) == pytest.approx(
            3.7444444444444445, abs=1e-14
        )

    def test_floor_zero_second_diff(self):
        cands = bounds.second_diff_candidates(10.0, 0)
        assert set(cands) == {"pair", "unconditional"}
        assert cands["pair"] == pytest.approx(2.0 * bounds.k1(10.0, 0), abs=1e-15)
        assert cands["unconditional"] == pytest.approx(bounds.k2(10.0, 0), abs=1e-15)

    def test_nonuniform_values(self):
        cands = bounds.first_diff_nonuniform_candidates(5.0, 1, 10)
        assert cands == pytest.approx(
            {"base": 0.2711346670729434, "supercritical": 0.21677297471837303}
        )
        cands2 = bounds.second_diff_nonuniform_candidates(5.0, 1, 10)
        assert cands2 == pytest.approx(
            {
                "pair": 0.5422693341458868,
                "crossed": 0.2511737332654566,
                "pair-supercritical": 0.43354594943674607,
                "crossed-supercritical": 0.21358531858334026,
            }
        )

    def test_nonuniform_rejects_floor_zero(self):
        with pytest.raises(ValueError):
            bounds.first_diff_bound_nonuniform(5.0, 0, 3)
        with pytest.raises(ValueError):
            bounds.second_diff_bound_nonuniform(5.0, 0, 3)

    def test_nonuniform_rejects_size_below_floor(self):
        with pytest.raises(ValueError):
            bounds.first_diff_bound_nonuniform(5.0, 2, 1)


class TestStructure:
    @pytest.mark.parametrize("lam,m", [(5.0, 1), (10.0, 2), (1.0, 1), (3.0, 3)])
    def test_nonuniform_nonincreasing_in_size(self, lam, m):
        first = [
            bounds.first_diff_bound_nonuniform(lam, m, k) for k in range(m, 51)
        ]
        second = [
            bounds.second_diff_bound_nonuniform(lam, m, k) for k in range(m, 51)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(first, first[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(second, second[1:]))

    @pytest.mark.parametrize("lam,m", [(5.0, 1), (10.0, 2)])
    def test_uniform_dominates_nonuniform_at_floor_prefactor(self, lam, m):
        # at size == m the (m+1)/(k+1) prefactor is 1, so each candidate
        # equals its uniform counterpart with L factors in place of K
        cands = bounds.first_diff_nonuniform_candidates(lam, m, m)
        l1v = bounds.l1(lam, m)
        assert cands["base"] == pytest.approx(1.0 / lam + (m + 1) * l1v, abs=1e-13)

    def test_supercritical_candidates_gate_at_boundary(self):
        # the extra candidates switch on strictly above lam = m + 2; the
        # min can only drop there, never rise
        m = 1
        lam0 = m + 2.0
        assert "supercritical" not in bounds.first_diff_candidates(lam0, m)
        assert "supercritical" in bounds.first_diff_candidates(lam0 + 1e-8, m)
        below = bounds.first_diff_bound(lam0 - 1e-8, m)
        above = bounds.first_diff_bound(lam0 + 1e-8, m)
        assert above <= below + 1e-12

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            bounds.k1(0.0, 1)
        with pytest.raises(ValueError):
            bounds.k1(-3.0, 1)
        with pytest.raises(ValueError):
            bounds.k1(3.0, -1)
        with pytest.raises(ValueError):
            bounds.first_diff_bound(float("nan"), 1)
        with pytest.raises(ValueError):
            p_survival_analytic(2.0, 1.5)

    def test_replica_count_rule(self):
        assert bounds._check_replicas(2) == 2 and bounds._check_replicas(7.0) == 7
        assert type(bounds._check_replicas(7.0)) is int
        assert bounds._check_replicas(100, 100) == 100
        for count, minimum in [(1, 2), (0, 2), (99, 100)]:
            with pytest.raises(ValueError, match=f"need at least {minimum} replicas"):
                bounds._check_replicas(count, minimum)
        for count in (2.5, -3, float("nan"), float("inf"), "20", None):
            with pytest.raises(ValueError, match="replicas must be nonnegative and an integer"):
                bounds._check_replicas(count)


class TestPSurvival:
    def test_frozen_value(self):
        assert p_survival_analytic(2.0, 1) == pytest.approx(
            0.34348235725033427, abs=1e-15
        )

    def test_zero_at_origin(self):
        assert p_survival_analytic(3.0, 0) == 0.0

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 10])
    def test_dominated_by_closed_form(self, lam, k):
        p = p_survival_analytic(lam, k)
        assert 0.0 <= p <= min(k / lam, k / (k + 1)) + 1e-15

    @pytest.mark.parametrize("lam", [1e-70, 1e-8, 1e-3, 0.5, 1.0])
    def test_k1_small_lam_without_cancellation(self, lam):
        # 1 - (F(0)/F(1) - 1/lam) cancels about log10(1/lam) digits here.
        want = float(p_survival_mp(lam, 1))
        assert abs(p_survival_analytic(lam, 1) - want) <= 2e-16 * want

    def test_matches_tail_ratio_identity(self):
        # p = 1 - (tail(k-1)/tail(k) - k/lam), with the tails at enough digits
        grid = [(lam, k) for lam in (0.5, 2.0, 7.0) for k in range(1, 12)]
        for lam, k in grid + FAR_PAST_MODE:
            want = float(p_survival_mp(lam, k))
            assert p_survival_analytic(lam, k) == pytest.approx(want, abs=1e-13)


class TestSteinBoundsBundle:
    def test_bundle_consistency(self):
        b = bounds.compute_stein_bounds(10.0, 1, size=11)
        assert b.k1 == bounds.k1(10.0, 1)
        assert b.k2 == bounds.k2(10.0, 1)
        assert b.first_diff == bounds.first_diff_bound(10.0, 1)
        assert b.second_diff == bounds.second_diff_bound(10.0, 1)
        assert b.l1 == bounds.l1(10.0, 11)
        assert b.first_diff_nonuniform == bounds.first_diff_bound_nonuniform(
            10.0, 1, 11
        )
        assert b.supercritical is True
        assert b.second_diff_winner in bounds.second_diff_candidates(10.0, 1)

    def test_bundle_without_size_skips_nonuniform(self):
        b = bounds.compute_stein_bounds(3.0, 2)
        assert b.size is None
        assert b.l1 is None and b.first_diff_nonuniform is None
        assert b.supercritical is False


@settings(max_examples=300, deadline=None)
@given(
    lam=st.floats(min_value=0.05, max_value=60.0),
    m=st.integers(min_value=0, max_value=12),
)
def test_bounds_are_positive_and_min_of_candidates(lam, m):
    first = bounds.first_diff_candidates(lam, m)
    second = bounds.second_diff_candidates(lam, m)
    assert bounds.first_diff_bound(lam, m) == min(first.values())
    assert bounds.second_diff_bound(lam, m) == min(second.values())
    assert all(v > 0.0 for v in first.values())
    assert all(v > 0.0 for v in second.values())


@settings(max_examples=200, deadline=None)
@given(
    lam=st.floats(min_value=0.05, max_value=60.0),
    m=st.integers(min_value=1, max_value=8),
)
def test_nonuniform_bounds_win_for_large_configurations(lam, m):
    # the size-dependent form is not uniformly better (its L factors can
    # exceed K at small sizes) but the (m+1)/(k+1) prefactor must beat
    # the flat bound once the configuration is large
    size = m + 200
    non = bounds.first_diff_bound_nonuniform(lam, m, size)
    assert 0.0 < non <= bounds.first_diff_bound(lam, m) + 1e-12
    non2 = bounds.second_diff_bound_nonuniform(lam, m, size)
    assert 0.0 < non2 <= bounds.second_diff_bound(lam, m) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    lam=st.floats(min_value=0.05, max_value=40.0),
    k=st.integers(min_value=0, max_value=25),
)
def test_p_survival_in_unit_interval(lam, k):
    p = p_survival_analytic(lam, k)
    assert 0.0 <= p < 1.0
