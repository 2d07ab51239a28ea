import math

import numpy as np
import pytest

from condpp.bernoulli_app import (
    BernoulliReport,
    bernoulli_bound,
    calibrated_allowance,
    conditional_bernoulli_law,
    conditional_poisson_law,
    report_to_obj,
    run_experiment,
    self_distance_calibration,
)
from condpp.groundspace import derive_stream, unit_interval
from condpp.metrics import d2_bar_empirical


class TestBounds:
    def test_frozen_reference_values(self):
        b1, b2 = bernoulli_bound(100, 0.05)
        assert b1 == pytest.approx(0.17210276983309034, abs=1e-15)
        assert b2 == pytest.approx(0.11018330666047109, abs=1e-15)

    def test_second_bound_gated_on_mean(self):
        # lam = np must strictly exceed 3 for the sharper main term
        assert bernoulli_bound(30, 0.1)[1] is None  # lam = 3.0 exactly
        assert bernoulli_bound(31, 0.1)[1] is not None
        assert bernoulli_bound(10, 0.05)[1] is None

    def test_second_bound_wins_at_moderate_mean(self):
        b1, b2 = bernoulli_bound(20, 0.5)
        assert b2 is not None
        assert b2 < b1

    def test_bounds_positive_and_finite(self):
        for n, p in [(5, 0.01), (50, 0.2), (1000, 0.003), (200, 0.9)]:
            b1, b2 = bernoulli_bound(n, p)
            assert 0.0 < b1 < math.inf
            if b2 is not None:
                assert 0.0 < b2 < math.inf

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            bernoulli_bound(0, 0.1)
        with pytest.raises(ValueError):
            bernoulli_bound(10, 0.0)
        with pytest.raises(ValueError):
            bernoulli_bound(10, 1.0)
        with pytest.raises(ValueError, match="n must be nonnegative and an integer"):
            bernoulli_bound(2.5, 0.1)

    def test_small_p_limit_controlled_by_conditioning(self):
        # as p -> 0 at fixed n the prefactor ~ 1/(np) blows up; the bound
        # must follow suit rather than spuriously tighten
        b_small = bernoulli_bound(10, 1e-4)[0]
        assert b_small > 1.0  # vacuous regime


class TestCalibration:
    def test_identical_samples_have_zero_distance(self):
        lam = 2.0
        space = unit_interval(lam)
        law = conditional_poisson_law(space, 1)
        stream = derive_stream(0, 0)
        sample = [law(stream) for _ in range(12)]
        assert d2_bar_empirical(sample, list(sample), space).estimate == 0.0

    def test_self_distance_positive_but_small(self):
        lam = 2.0
        space = unit_interval(lam)
        cal = self_distance_calibration(
            conditional_poisson_law(space, 1), n_samples=32, replicas=8,
            seed=5, space=space,
        )
        assert 0.0 < cal.estimate < 0.5
        assert cal.se > 0.0
        assert cal.replicas == 8

    def test_bias_decays_with_sample_size(self):
        # empirical transport bias at N must shrink as N grows; average
        # over many replicates so the ordering is stable
        lam = 2.0
        space = unit_interval(lam)
        law = conditional_poisson_law(space, 1)
        means = [
            self_distance_calibration(
                law, n_samples=n, replicas=50, seed=9, space=space
            ).estimate
            for n in (8, 32, 128)
        ]
        assert means[0] > means[1] > means[2]

    def test_needs_two_samples_per_side(self):
        space = unit_interval(2.0)
        with pytest.raises(ValueError, match="2 samples"):
            self_distance_calibration(
                conditional_poisson_law(space, 1), n_samples=1, replicas=4, seed=5, space=space
            )

    def test_allowance_formula(self):
        cal = self_distance_calibration(
            conditional_bernoulli_law(30, 0.1, 1), n_samples=16, replicas=6,
            seed=3, space=unit_interval(3.0),
        )
        assert calibrated_allowance(cal) == pytest.approx(
            cal.estimate + 3.0 * cal.se, abs=1e-15
        )
        assert calibrated_allowance(cal, k_se=0.0) == pytest.approx(cal.estimate)


class TestLaws:
    def test_bernoulli_law_conditioning_floor(self):
        law = conditional_bernoulli_law(20, 0.05, 1)
        stream = derive_stream(12, 0)
        sizes = [law(stream).size for _ in range(300)]
        assert min(sizes) >= 1

    def test_matched_seeds_give_matched_counts(self):
        # the indicator core consumes the same uniforms for both laws'
        # rejection loops, so a shared seed aligns the accepted counts of
        # the bernoulli law with its own redraw
        law = conditional_bernoulli_law(25, 0.2, 1)
        a = [law(derive_stream(77, i)).size for i in range(50)]
        b = [law(derive_stream(77, i)).size for i in range(50)]
        assert a == b


class TestExperiment:
    def test_report_shape_and_determinism(self):
        rep = run_experiment(50, 0.1, n_samples=40, seed=2)
        assert isinstance(rep, BernoulliReport)
        assert rep.lam == pytest.approx(5.0)
        assert rep.d2.n_samples == 40
        assert rep.d2.seed == 2
        assert rep.applicable_bound == min(rep.bound1, rep.bound2)
        again = run_experiment(50, 0.1, n_samples=40, seed=2)
        assert again.d2.estimate == rep.d2.estimate

    def test_low_mean_uses_first_bound_only(self):
        rep = run_experiment(20, 0.1, n_samples=30, seed=3)
        assert rep.bound2 is None
        assert rep.applicable_bound == rep.bound1

    def test_vacuous_flag(self):
        rep = run_experiment(10, 1e-3, n_samples=8, seed=4)
        assert rep.vacuous
        assert rep.passed  # a bound above 1 cannot fail

    def test_allowance_loosens_the_comparison(self):
        rep = run_experiment(50, 0.1, n_samples=30, seed=5, allowance=2.0)
        assert rep.allowance == 2.0
        assert rep.passed

    def test_report_serialization(self):
        rep = run_experiment(50, 0.1, n_samples=30, seed=6, allowance=0.05)
        obj = report_to_obj(rep)
        assert obj["n"] == 50
        assert obj["p"] == 0.1
        assert obj["lambda"] == pytest.approx(5.0)
        assert obj["samples"] == 30
        assert obj["seed"] == 6
        assert obj["bound1"] == rep.bound1
        assert obj["bound2"] == rep.bound2
        assert obj["allowance"] == 0.05
        assert obj["pass"] == rep.passed
        assert obj["vacuous"] == rep.vacuous
        assert obj["d2"]["estimate"] == rep.d2.estimate
        assert obj["d2"]["n"] == 30
        assert obj["d2"]["seed"] == 6
        assert "note" in obj["d2"]
        assert obj["d2_estimate"] == rep.d2.estimate

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            run_experiment(50, 0.1, n_samples=1, seed=0)


class TestDominanceAtScale:
    @pytest.mark.parametrize("n,p", [(100, 0.05), (60, 0.1), (200, 0.03)])
    def test_distance_within_bound_plus_allowance(self, n, p):
        lam = n * p
        space = unit_interval(lam)
        cal = self_distance_calibration(
            conditional_poisson_law(space, 1), n_samples=150, replicas=8,
            seed=1000, space=space,
        )
        allowance = calibrated_allowance(cal)
        fails = 0
        for seed in range(10):
            rep = run_experiment(n, p, n_samples=150, seed=seed, allowance=allowance)
            fails += not rep.passed
        assert fails == 0

    def test_bound_shape_tracks_root_n(self):
        # at fixed p the sharper bound decays like 1/sqrt(n) up to logs;
        # the scaled sequence must stay within a band rather than drift
        p = 0.1
        ns = [50, 100, 200, 400, 800]
        scaled = [bernoulli_bound(n, p)[1] * math.sqrt(n) for n in ns]
        ratios = [s / scaled[0] for s in scaled]
        assert all(0.5 <= r <= 2.5 for r in ratios)
