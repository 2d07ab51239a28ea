import inspect
import json

import pytest

from condpp import cli, coupling, verify
from condpp.io import read_configurations, read_trajectories


def run_cli(*argv):
    return cli.main(list(argv))


class TestBounds:
    def test_json_output_and_reference_value(self, capsys):
        assert run_cli("bounds", "--lambda", "10", "--m", "1") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["lambda"] == 10.0
        assert obj["m"] == 1
        assert obj["firstDiff"] == pytest.approx(0.3725094547771162, abs=1e-15)
        assert obj["supercritical"] is True
        assert obj["secondDiffWinner"] in (
            "pair", "crossed", "pair-supercritical", "crossed-supercritical"
        )

    def test_size_enables_nonuniform_block(self, capsys):
        assert run_cli("bounds", "--lambda", "5", "--m", "1", "--xi-size", "10") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["size"] == 10
        assert obj["firstDiffNonUniform"] == pytest.approx(0.21677297471837303)
        capsys.readouterr()
        assert run_cli("bounds", "--lambda", "5", "--m", "1", "--size", "10") == 0
        assert json.loads(capsys.readouterr().out) == obj

    def test_csv_output(self, capsys):
        assert run_cli("bounds", "--lambda", "2", "--m", "1", "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "firstDiff" in header and "K1" in header

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "bounds.json"
        assert run_cli("bounds", "--lambda", "2", "--m", "1", "--out", str(out)) == 0
        assert json.loads(out.read_text())["m"] == 1

    def test_invalid_lambda_is_usage_error(self, capsys):
        assert run_cli("bounds", "--lambda", "-3", "--m", "1") == 1


class TestSample:
    def test_conditional_poisson_draws(self, tmp_path):
        out = tmp_path / "draws.jsonl"
        code = run_cli(
            "sample", "--law", "cpoisson", "--lambda", "2", "--m", "1",
            "--count", "20", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        cfgs = read_configurations(out)
        assert len(cfgs) == 20
        assert all(c.size >= 1 for c in cfgs)

    def test_bernoulli_law_aliases(self, tmp_path):
        for law in ("bernoulli", "binomial"):
            out = tmp_path / f"{law}.jsonl"
            code = run_cli(
                "sample", "--law", law, "--n", "30", "--p", "0.2", "--m", "1",
                "--count", "10", "--seed", "5", "--out", str(out),
            )
            assert code == 0
            assert len(read_configurations(out)) == 10

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert run_cli(
                "sample", "--law", "poisson", "--lambda", "3", "--count", "25",
                "--seed", "11", "--out", str(path),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_count_below_one_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        for count in ("0", "-3"):
            assert run_cli(
                "sample", "--law", "poisson", "--lambda", "2", "--count", count,
                "--out", str(out),
            ) == 1
            assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_law_parameters_is_usage_error(self, tmp_path):
        out = tmp_path / "x.jsonl"
        assert run_cli(
            "sample", "--law", "bernoulli", "--count", "5", "--seed", "0", "--out", str(out)
        ) == 1

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--law", "cpoisson", "--lambda", "-1"), "--lambda"),
            (("--law", "poisson", "--lambda", "nan"), "--lambda"),
            (("--law", "cpoisson", "--lambda", "2", "--m", "-1"), "--m"),
            (("--law", "bernoulli", "--n", "30", "--p", "0.2", "--m", "-1"), "--m"),
        ],
    )
    def test_bad_flag_is_named_before_any_draw(self, argv, named, tmp_path, capsys, monkeypatch):
        draws = []
        monkeypatch.setattr(cli, "derive_stream", lambda *a: draws.append(a))
        out = tmp_path / "x.jsonl"
        assert run_cli("sample", *argv, "--count", "3", "--out", str(out)) == 1
        assert named in capsys.readouterr().err
        assert draws == [] and not out.exists()


class TestSimulate:
    def test_horizon_alias_and_trajectory_output(self, tmp_path):
        out = tmp_path / "trajs.jsonl"
        code = run_cli(
            "simulate", "--lambda", "2", "--m", "1", "--t", "5",
            "--replicas", "3", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        trajs = read_trajectories(out)
        assert len(trajs) == 3
        assert all(t.horizon == 5.0 and t.m == 1 for t in trajs)
        out2 = tmp_path / "trajs2.jsonl"
        code = run_cli(
            "simulate", "--lambda", "2", "--m", "1", "--horizon", "5",
            "--replicas", "3", "--seed", "7", "--out", str(out2),
        )
        assert code == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_replicas_below_one_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "trajs.jsonl"
        for replicas in ("0", "-1"):
            assert run_cli(
                "simulate", "--lambda", "2", "--t", "5", "--replicas", replicas,
                "--out", str(out),
            ) == 1
            assert "--replicas" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--lambda", "-1", "--t", "5"), "--lambda"),
            (("--lambda", "inf", "--t", "5"), "--lambda"),
            (("--lambda", "2", "--t", "0"), "--t"),
            (("--lambda", "2", "--t", "inf"), "--t"),
            (("--lambda", "2", "--t", "5", "--m", "-1"), "--m"),
        ],
    )
    def test_bad_flag_is_named_before_any_draw(self, argv, named, tmp_path, capsys, monkeypatch):
        draws = []
        monkeypatch.setattr(cli, "derive_stream", lambda *a: draws.append(a))
        out = tmp_path / "trajs.jsonl"
        assert run_cli("simulate", *argv, "--out", str(out)) == 1
        assert named in capsys.readouterr().err
        assert draws == [] and not out.exists()


class TestDistance:
    def test_d1_prints_bare_value(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"points": [[0.1], [0.5]]}')
        b.write_text('{"points": [[0.2]]}')
        assert run_cli("distance", "d1", "--a", str(a), "--b", str(b)) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.55)

    def test_d1_out_file(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"points": [[0.3]]}')
        b.write_text('{"points": [[0.3]]}')
        out = tmp_path / "d1.json"
        assert run_cli(
            "distance", "d1", "--a", str(a), "--b", str(b), "--out", str(out)
        ) == 0
        assert json.loads(out.read_text()) == {"d1": 0.0}

    def test_d1_requires_single_configurations(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.json"
        a.write_text('{"points": [[0.1]]}\n{"points": [[0.2]]}\n')
        b.write_text('{"points": [[0.3]]}')
        assert run_cli("distance", "d1", "--a", str(a), "--b", str(b)) == 1

    def test_d2_reports_sample_distance(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        rows = [{"points": [[0.1 * (i + 1)]]} for i in range(4)]
        a.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        b.write_text("\n".join(json.dumps(r) for r in reversed(rows)) + "\n")
        assert run_cli("distance", "d2", "--a", str(a), "--b", str(b)) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["estimate"] == pytest.approx(0.0, abs=1e-15)
        assert obj["n"] == 4
        assert "note" in obj

    def test_points_outside_the_space_rejected(self, tmp_path, capsys):
        inside = tmp_path / "inside.json"
        outside = tmp_path / "outside.json"
        inside.write_text('{"points": [[0.2]]}')
        outside.write_text('{"points": [[5.0], [-3.0]]}')
        assert run_cli("distance", "d1", "--a", str(outside), "--b", str(inside)) == 1
        assert "outside" in capsys.readouterr().err
        left = tmp_path / "left.jsonl"
        right = tmp_path / "right.jsonl"
        left.write_text('{"points": [[0.1, 0.2]]}\n{"points": [[0.3, 0.4]]}\n')
        right.write_text('{"points": [[0.1, 0.2]]}\n{"points": [[0.3, 1.5]]}\n')
        assert run_cli("distance", "d2", "--a", str(left), "--b", str(right)) == 1
        assert "outside" in capsys.readouterr().err

    def test_missing_file_is_reported(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text('{"points": [[0.1]]}')
        assert run_cli(
            "distance", "d1", "--a", str(a), "--b", str(tmp_path / "nope.json")
        ) == 1


class TestVerify:
    def test_p_survival_narrowed_grid(self, capsys):
        code = run_cli(
            "verify", "p-survival", "--lambda", "2",
            "--replicas", "2000", "--seed", "0",
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["battery"] == "p-survival"
        assert {r["lambda"] for r in obj["rows"]} == {2.0}
        assert obj["passed"] is True

    def test_csv_rows(self, capsys):
        code = run_cli(
            "verify", "p-survival", "--lambda", "2",
            "--replicas", "1000", "--format", "csv", "--seed", "0",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[0] == "scenario"
        assert len(lines) == 4  # header + three k values

    def test_p_survival_far_past_the_mode_reports(self, capsys):
        # The Poisson tail at k = 5 underflows at this lambda; the closed form
        # must still give a row, not a ZeroDivisionError.
        code = run_cli("verify", "p-survival", "--lambda", "1e-70", "--replicas", "100")
        assert code in (0, 2)
        obj = json.loads(capsys.readouterr().out)
        assert [r["k"] for r in obj["rows"]] == [1, 2, 5]

    def test_p_survival_small_lam_exits_zero(self, capsys):
        # At lambda = 1e-70 the k = 1 row is 1/2 to double precision.
        code = run_cli("verify", "p-survival", "--lambda", "1e-70", "--replicas", "100")
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0
        assert rows[0]["analytic"] == 0.5

    def test_failing_battery_exits_two(self, capsys, monkeypatch):
        def fake(**kwargs):
            return {
                "battery": "p-survival",
                "rows": [{"scenario": "forced", "pass": False}],
                "passed": False,
            }

        monkeypatch.setattr(verify, "verify_p_survival", fake)
        assert run_cli("verify", "p-survival", "--replicas", "100") == 2

    @pytest.mark.parametrize(
        "battery, name",
        [
            ("p-survival", "verify_p_survival"),
            ("stein", "verify_stein"),
            ("delta-bounds", "verify_delta_bounds"),
        ],
    )
    def test_unset_options_take_the_library_defaults(
        self, battery, name, capsys, monkeypatch
    ):
        signature = inspect.signature(getattr(verify, name))
        calls = []

        def record(**kwargs):
            bound = signature.bind(**kwargs)
            bound.apply_defaults()
            calls.append((kwargs, bound.arguments))
            return {"rows": [{"scenario": "recorded", "pass": True}], "passed": True}

        monkeypatch.setattr(verify, name, record)
        monkeypatch.delenv("CONDPP_SEED", raising=False)
        assert run_cli("--threads", "1", "verify", battery) == 0
        (passed, effective), = calls
        library = {
            key: param.default
            for key, param in signature.parameters.items()
            if param.default is not inspect.Parameter.empty
        }
        # The CLI sets only the floor, the seed and the pool size itself.
        for key in set(library) - {"m", "seed", "workers"}:
            assert key not in passed
            assert effective[key] == library[key]
        assert effective["m"] == 1 and effective["seed"] == 0
        if battery == "delta-bounds":
            assert effective["lam"] == 5.0

    def test_stein_sizes_follow_the_floor(self, capsys):
        assert run_cli("verify", "stein", "--m", "2", "--replicas", "200") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["m"] == 2
        assert [row["size"] for row in obj["rows"]] == [2, 3, 5]

    def test_negative_scenarios_is_usage_error(self, capsys):
        assert run_cli(
            "--threads", "1", "verify", "delta-bounds", "--scenarios", "-4",
            "--replicas", "20",
        ) == 1
        assert "--scenarios" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("stein", "--lambda", "-1"), "--lambda"),
            (("stein", "--lambda", "inf"), "--lambda"),
            (("stein", "--m", "-1"), "--m"),
            (("stein", "--replicas", "1"), "--replicas"),
            (("p-survival", "--lambda", "nan"), "--lambda"),
            (("delta-bounds", "--m", "-1"), "--m"),
            (("delta-bounds", "--scenarios", "-1"), "--scenarios"),
        ],
    )
    def test_bad_flag_is_named_before_any_draw(self, argv, named, tmp_path, capsys, monkeypatch):
        draws = []
        record = lambda *a: draws.append(a)
        monkeypatch.setattr(verify, "derive_stream", record)
        monkeypatch.setattr(coupling, "derive_stream", record)
        monkeypatch.setattr(coupling, "StreamRows", record)
        out = tmp_path / "report.json"
        assert run_cli("--threads", "1", "verify", *argv, "--out", str(out)) == 1
        assert named in capsys.readouterr().err
        assert draws == [] and not out.exists()

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CONDPP_SEED", "123")
        assert run_cli(
            "verify", "p-survival", "--lambda", "1", "--replicas", "500"
        ) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 123

    def test_bad_seed_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CONDPP_SEED", "not-a-number")
        assert run_cli(
            "verify", "p-survival", "--lambda", "1", "--replicas", "500"
        ) == 1

    def test_threads_do_not_change_results(self, capsys):
        outs = []
        for threads in ("1", "2"):
            code = run_cli(
                "--threads", threads, "verify", "delta-bounds",
                "--lambda", "3", "--m", "1", "--scenarios", "2",
                "--replicas", "150", "--seed", "4",
            )
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestBernoulli:
    def test_report_schema(self, capsys):
        code = run_cli(
            "bernoulli", "--n", "40", "--p", "0.2", "--samples", "60",
            "--replicas", "4", "--seed", "9",
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        for key in (
            "n", "p", "lambda", "samples", "seed", "bound1", "bound2",
            "d2", "d2_estimate", "allowance", "applicable_bound",
            "pass", "vacuous", "calibration",
        ):
            assert key in obj
        assert obj["n"] == 40
        assert obj["calibration"]["replicas"] == 4
        assert obj["allowance"] >= obj["calibration"]["mean"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli(
                "bernoulli", "--n", "30", "--p", "0.2", "--samples", "40",
                "--replicas", "3", "--seed", "2", "--out", str(path),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--n", "100", "--p", "1.5", "--samples", "200", "--replicas", "2"), "p=1.5"),
            (("--n", "100", "--p", "-0.1"), "p=-0.1"),
            (("--n", "0", "--p", "0.1"), "n=0"),
            (("--n", "100", "--p", "0.05", "--samples", "1"), "--samples"),
            (("--n", "100", "--p", "0.05", "--replicas", "1"), "--replicas"),
        ],
    )
    def test_bad_arguments_fail_before_calibrating(self, argv, named, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cli.bernoulli_app, "self_distance_calibration", lambda *a, **k: calls.append(a)
        )
        assert run_cli("bernoulli", *argv) == 1
        assert calls == []
        assert named in capsys.readouterr().err


class TestParser:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_threads_must_be_positive(self, capsys):
        assert run_cli("--threads", "0", "bounds", "--lambda", "1", "--m", "0") == 1
