import json
from dataclasses import dataclass

import numpy as np
import pytest

from condpp import io
from condpp.groundspace import (
    configuration_from_locations,
    derive_stream,
    empty_configuration,
    unit_cube,
    unit_interval,
)
from condpp.simulate import Trajectory, simulate_cid_chain


def random_configs(n, seed=0, max_size=6):
    space = unit_interval(2.0)
    stream = derive_stream(seed, 0)
    out = []
    for _ in range(n):
        size = stream.integer(max_size + 1)
        if size == 0:
            out.append(empty_configuration())
        else:
            out.append(configuration_from_locations(space.sample(stream, size)))
    return out


class TestConfigurationRoundTrip:
    def test_many_configs_survive_exactly(self, tmp_path):
        cfgs = random_configs(1000, seed=1)
        path = tmp_path / "configs.jsonl"
        io.write_configurations(path, cfgs)
        back = io.read_configurations(path)
        assert len(back) == 1000
        for a, b in zip(cfgs, back):
            assert a == b  # multiset equality, bit-exact coordinates

    def test_writes_are_byte_stable(self, tmp_path):
        cfgs = random_configs(50, seed=2)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        io.write_configurations(p1, cfgs)
        io.write_configurations(p2, cfgs)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_object_json_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"points": [[0.25], [0.75]]}, indent=2))
        (cfg,) = io.read_configurations(path)
        assert cfg.size == 2
        assert cfg.dimension == 1

    def test_json_array_file(self, tmp_path):
        path = tmp_path / "many.json"
        path.write_text(json.dumps([{"points": [[0.1]]}, {"points": []}]))
        a, b = io.read_configurations(path)
        assert a.size == 1 and b.size == 0

    def test_explicit_dimension_checked(self):
        cfg = io.config_from_obj({"points": [[0.1, 0.2]], "dimension": 2})
        assert cfg.dimension == 2
        with pytest.raises(io.SchemaError):
            io.config_from_obj({"points": [[0.1, 0.2]], "dimension": 3})

    def test_empty_points_defaults_to_dimension_one(self):
        cfg = io.config_from_obj({"points": []})
        assert cfg.size == 0 and cfg.dimension == 1

    def test_schema_errors_name_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"points": [[0.1]]}\n{"points": "oops"}\n')
        with pytest.raises(io.SchemaError, match="line 2"):
            io.read_configurations(path)

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"points": [[0.1]]}\n{not json\n')
        with pytest.raises(io.SchemaError, match="line 2"):
            io.read_configurations(path)

    def test_missing_points_key_rejected(self):
        with pytest.raises(io.SchemaError):
            io.config_from_obj({"locations": [[0.1]]})


class TestTrajectoryRoundTrip:
    def _trajectories(self, n=3):
        space = unit_interval(3.0)
        stream = derive_stream(5, 0)
        out = []
        for _ in range(n):
            init = configuration_from_locations(space.sample(stream, 2))
            out.append(simulate_cid_chain(init, 1, 4.0, space, stream))
        return out

    def test_events_survive_exactly(self, tmp_path):
        trajs = self._trajectories()
        path = tmp_path / "trajs.jsonl"
        io.write_trajectories(path, trajs)
        back = io.read_trajectories(path)
        assert len(back) == len(trajs)
        for a, b in zip(trajs, back):
            assert a.m == b.m
            assert a.horizon == b.horizon
            assert a.initial == b.initial
            assert a.events == b.events
            assert a.final_configuration() == b.final_configuration()

    def test_from_events_round_trip(self):
        for traj in self._trajectories():
            back = Trajectory.from_events(traj.initial, traj.horizon, traj.m, traj.events)
            assert back.events == traj.events
            assert back == traj
        a, b = self._trajectories(2)
        assert a != b

    def test_empty_start_off_the_line_survives(self, tmp_path):
        space = unit_cube(2.0, dimension=2)
        traj = simulate_cid_chain(empty_configuration(2), 0, 3.0, space, derive_stream(6, 0))
        path = tmp_path / "trajs.jsonl"
        io.write_trajectories(path, [traj])
        assert io.read_trajectories(path) == [traj]

    @pytest.mark.parametrize(
        "events, named",
        [
            # the next immigrant of a start tagged 0 and 1 is tagged 2
            ([[0.1, "immigration", 2, [0.3]], [0.2, "immigration", 5, [0.4]]], "event 1"),
            ([[0.1, "immigration", 0, [0.3]]], "event 0"),
            # a death must remove a point that is alive
            ([[0.1, "death", 0, None], [0.2, "death", 0, None]], "event 1"),
            ([[0.1, "immigration", 2, [0.3]], [0.2, "death", 7, None]], "event 1"),
            ([[0.1, "immigration", 2, [0.3, 0.4]]], "event 0"),
        ],
    )
    def test_tags_the_columns_cannot_hold_rejected(self, events, named):
        obj = {"m": 0, "horizon": 1.0, "initial": {"points": [[0.2], [0.7]]}, "events": events}
        with pytest.raises(io.SchemaError, match=named):
            io.trajectory_from_obj(obj)

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"horizon": -5.0}, "horizon"),
            ({"horizon": float("nan")}, "horizon"),
            ({"m": -1}, "m must be nonnegative"),
            ({"m": 1.5}, "m must be nonnegative"),  # not read as m = 1
            ({"m": 3}, "floor"),  # a start of two points below the floor 3
            ({"events": [[0.4, "death", 0, None], [0.3, "death", 1, None]]}, "event 1: time"),
            ({"events": [[float("nan"), "death", 0, None]]}, "event 0: time"),
            ({"events": [[-0.1, "death", 0, None]]}, "event 0: time"),
            ({"events": [[0.5, "immigration", 2, [0.3]], [1.0, "death", 0, None]]}, "event 1"),
            (
                {"m": 1, "events": [[0.1, "death", 0, None], [0.2, "death", 1, None]]},
                "event 1: death at the floor",
            ),
        ],
    )
    def test_what_no_chain_run_writes_is_refused(self, change, named):
        obj = {"m": 0, "horizon": 1.0, "initial": {"points": [[0.2], [0.7]]}, "events": []}
        obj.update(change)
        with pytest.raises(io.SchemaError, match=named):
            io.trajectory_from_obj(obj)

    def test_event_kind_validated(self):
        obj = {
            "m": 0,
            "horizon": 1.0,
            "initial": {"points": []},
            "events": [[0.5, "teleport", 0, [0.1]]],
        }
        with pytest.raises(io.SchemaError, match="kind"):
            io.trajectory_from_obj(obj)

    def test_death_with_location_rejected(self):
        obj = {
            "m": 0,
            "horizon": 1.0,
            "initial": {"points": [[0.2]]},
            "events": [[0.5, "death", 0, [0.2]]],
        }
        with pytest.raises(io.SchemaError):
            io.trajectory_from_obj(obj)

    def test_missing_field_rejected(self):
        with pytest.raises(io.SchemaError, match="horizon"):
            io.trajectory_from_obj({"m": 0, "initial": {"points": []}, "events": []})


class TestJsonHelpers:
    def test_canonical_is_one_line_sorted(self):
        s = io.dumps_canonical({"b": 1, "a": [2, 3]})
        assert s == '{"a":[2,3],"b":1}'

    def test_report_form_is_indented_and_terminated(self):
        s = io.dumps_report({"a": 1})
        assert s.endswith("\n")
        assert '\n  "a": 1' in s

    def test_nan_refused(self):
        with pytest.raises(ValueError):
            io.dumps_canonical({"x": float("nan")})

    def test_to_jsonable_handles_numpy_and_dataclasses(self):
        @dataclass
        class Row:
            x: float
            flag: bool

        obj = {
            "arr": np.array([1.5, 2.5]),
            "f64": np.float64(0.25),
            "i64": np.int64(7),
            "b": np.bool_(True),
            "row": Row(x=1.0, flag=False),
            "nested": [np.int32(1), (2, 3)],
        }
        out = io.to_jsonable(obj)
        assert out == {
            "arr": [1.5, 2.5],
            "f64": 0.25,
            "i64": 7,
            "b": True,
            "row": {"x": 1.0, "flag": False},
            "nested": [1, [2, 3]],
        }
        json.dumps(out)  # round-trippable by the stock encoder

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.json"
        io.write_report(path, {"value": np.float64(1.5)})
        assert json.loads(path.read_text()) == {"value": 1.5}
