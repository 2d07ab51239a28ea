import concurrent.futures

import pytest

from condpp import verify


def _must_not_run(*args, **kwargs):
    pytest.fail("an estimate ran before the arguments were checked")


class TestPSurvivalBattery:
    def test_small_battery_passes(self):
        report = verify.verify_p_survival(
            lams=(1.0, 2.0), ks=(1, 2), replicas=5000, seed=0
        )
        assert report["battery"] == "p-survival"
        assert report["m"] == 0
        assert len(report["rows"]) == 4
        assert report["passed"]
        for row in report["rows"]:
            assert set(row) >= {
                "scenario", "lambda", "k", "analytic", "estimate", "se",
                "bound", "pass",
            }
            assert row["bound"] == row["analytic"]
            assert abs(row["estimate"] - row["analytic"]) <= 3.0 * row["se"]

    def test_scenario_labels_are_distinct(self):
        report = verify.verify_p_survival(
            lams=(0.5, 5.0), ks=(1, 5), replicas=1000, seed=1
        )
        labels = [r["scenario"] for r in report["rows"]]
        assert len(set(labels)) == len(labels)

    def test_floor_above_k_rejected(self):
        with pytest.raises(ValueError):
            verify.verify_p_survival(lams=(2.0,), ks=(1,), m=2, replicas=1000)

    @pytest.mark.parametrize(
        "grid, named",
        [
            ({"lams": (1.0, float("nan"))}, "lam must be positive"),
            ({"ks": (5, -1)}, "k must be nonnegative"),
            ({"ks": (2, 1.5)}, "k must be nonnegative"),
            ({"ks": (2, 1), "m": 2}, "m <= k"),
            ({"replicas": 99}, "100 replicas"),
            ({"lams": ()}, "at least one"),
            ({"ks": ()}, "at least one"),
        ],
    )
    def test_bad_cell_or_empty_grid_rejected_before_any_run(self, monkeypatch, grid, named):
        # the whole grid is checked before the first cell's estimate runs
        monkeypatch.setattr(verify, "estimate_p_survival", _must_not_run)
        with pytest.raises(ValueError, match=named):
            verify.verify_p_survival(**{"replicas": 1000, **grid})


class TestSteinBattery:
    def test_small_battery_passes(self):
        report = verify.verify_stein(lam=2.0, m=1, sizes=(1, 2), replicas=2500, seed=0)
        assert report["battery"] == "stein"
        assert report["lambda"] == 2.0
        assert len(report["rows"]) == 2
        assert report["passed"]
        for row in report["rows"]:
            assert row["bound"] == 0.0
            assert row["capped"] == 0
            assert row["f"]

    def test_size_below_floor_rejected(self, monkeypatch):
        # before any row runs, not when the loop reaches the bad size
        monkeypatch.setattr(verify, "stein_residuals", _must_not_run)
        with pytest.raises(ValueError, match="floor"):
            verify.verify_stein(lam=2.0, m=2, sizes=(2, 3, 1), replicas=500)

    def test_no_sizes_rejected(self, monkeypatch):
        # an empty battery would pass with no rows
        monkeypatch.setattr(verify, "stein_residuals", _must_not_run)
        with pytest.raises(ValueError, match="sizes"):
            verify.verify_stein(lam=2.0, m=1, sizes=(), replicas=500)

    def test_negative_floor_rejected(self, monkeypatch):
        monkeypatch.setattr(verify, "stein_residuals", _must_not_run)
        with pytest.raises(ValueError, match="^m must be nonnegative"):
            verify.verify_stein(lam=2.0, m=-1, replicas=500)


class TestDeltaBoundsBattery:
    def test_small_battery_passes(self):
        report = verify.verify_delta_bounds(
            lam=3.0, m=1, n_scenarios=3, replicas=400, seed=0
        )
        assert report["battery"] == "delta-bounds"
        assert report["passed"]
        scenarios = {r["scenario"] for r in report["rows"]}
        # each random scenario contributes first- and second-order rows,
        # each pinned size contributes non-uniform rows
        assert any(s.startswith("uniform-") for s in scenarios)
        assert any(s.startswith("nonuniform-") for s in scenarios)
        for row in report["rows"]:
            assert abs(row["estimate"]) <= row["bound"] + 3.0 * row["se"]

    def test_worker_fanout_is_deterministic(self):
        one = verify.verify_delta_bounds(
            lam=3.0, m=1, n_scenarios=4, replicas=200, seed=3, workers=1
        )
        two = verify.verify_delta_bounds(
            lam=3.0, m=1, n_scenarios=4, replicas=200, seed=3, workers=2
        )
        assert one == two

    def test_floor_zero_rejected(self):
        with pytest.raises(ValueError):
            verify.verify_delta_bounds(lam=3.0, m=0, n_scenarios=1, replicas=200)

    def test_negative_scenario_count_rejected(self):
        with pytest.raises(ValueError, match="n_scenarios"):
            verify.verify_delta_bounds(lam=3.0, m=1, n_scenarios=-4, replicas=20)

    def test_empty_grid_rejected_before_any_run(self, monkeypatch):
        # no scenario and no pinned size would pass with no rows
        monkeypatch.setattr(verify, "estimate_delta_h", _must_not_run)
        with pytest.raises(ValueError, match="scenario"):
            verify.verify_delta_bounds(lam=3.0, m=1, n_scenarios=0, nonuniform_offsets=())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_replica_rejected_before_any_run(self, monkeypatch, workers):
        # no unit draws its xi, and no worker pool starts
        monkeypatch.setattr(verify, "sample_conditional_poisson", _must_not_run)
        monkeypatch.setattr(verify, "estimate_delta_h", _must_not_run)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _must_not_run)
        with pytest.raises(ValueError, match="2 replicas"):
            verify.verify_delta_bounds(
                lam=3.0, m=1, n_scenarios=3, replicas=1, workers=workers
            )

    def test_negative_offset_rejected_before_any_unit_runs(self, monkeypatch):
        monkeypatch.setattr(verify, "estimate_delta_h", _must_not_run)
        with pytest.raises(ValueError, match="nonuniform_offsets"):
            verify.verify_delta_bounds(
                lam=3.0, m=1, n_scenarios=2, replicas=20, nonuniform_offsets=(0, -1)
            )
