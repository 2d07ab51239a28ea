"""JSON serialization for configurations, trajectories, and reports.

Artifacts are byte-stable: keys are sorted, separators fixed, and floats go
through Python's shortest round-trip repr, so equal inputs and seeds yield
byte-identical files.  A configuration is its point list; a trajectory's
event tags are point indices (initial rows 0..n-1, then immigrants in order
of arrival).  Malformed input raises SchemaError with the offending line or
field named.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .groundspace import Configuration
from .simulate import Trajectory

__all__ = [
    "SchemaError",
    "dumps_canonical",
    "dumps_report",
    "config_to_obj",
    "config_from_obj",
    "write_configurations",
    "read_configurations",
    "trajectory_to_obj",
    "trajectory_from_obj",
    "write_trajectories",
    "read_trajectories",
    "to_jsonable",
    "write_report",
]


class SchemaError(ValueError):
    """Input file does not match the expected schema."""


def dumps_canonical(obj: Any) -> str:
    """One-line canonical JSON (sorted keys, fixed separators, no NaN)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dumps_report(obj: Any) -> str:
    """Readable canonical JSON for report files."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_to_obj(cfg: Configuration) -> dict:
    obj = {"points": [list(map(float, row)) for row in cfg.locations]}
    if cfg.size == 0 and cfg.dimension != 1:  # no point says what it is
        obj["dimension"] = cfg.dimension
    return obj


def config_from_obj(obj: Any, where: str = "configuration") -> Configuration:
    if not isinstance(obj, dict) or "points" not in obj:
        raise SchemaError(f"{where}: expected an object with 'points'")
    points = obj["points"]
    if not isinstance(points, list):
        raise SchemaError(f"{where}: 'points' must be a list")
    dim = obj.get("dimension")
    if dim is None:
        dim = len(points[0]) if points and isinstance(points[0], list) else 1
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"{where}: 'dimension' must be a positive integer")
    for i, row in enumerate(points):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{where}: point {i} is not a length-{dim} coordinate list")
    return Configuration(np.asarray(points, dtype=float).reshape(len(points), dim))


def write_configurations(path, cfgs: Iterable[Configuration]) -> None:
    with open(path, "w") as fh:
        for cfg in cfgs:
            fh.write(dumps_canonical(config_to_obj(cfg)) + "\n")


def read_configurations(path) -> list[Configuration]:
    """Load configurations from JSONL, or a single-object/array .json file."""
    text = Path(path).read_text()
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict):
        return [config_from_obj(whole, where=str(path))]
    if isinstance(whole, list) and whole and all(isinstance(o, dict) for o in whole):
        return [
            config_from_obj(o, where=f"{path}: entry {i}") for i, o in enumerate(whole)
        ]
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: line {lineno}: {exc.msg}") from exc
        out.append(config_from_obj(obj, where=f"{path}: line {lineno}"))
    return out


def trajectory_to_obj(traj: Trajectory) -> dict:
    events = []
    for time, kind, tag, loc in traj.events:
        events.append(
            [float(time), kind, int(tag), None if loc is None else list(map(float, loc))]
        )
    return {
        "m": traj.m,
        "horizon": float(traj.horizon),
        "initial": config_to_obj(traj.initial),
        "events": events,
    }


def trajectory_from_obj(obj: Any, where: str = "trajectory") -> Trajectory:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    for key in ("m", "horizon", "initial", "events"):
        if key not in obj:
            raise SchemaError(f"{where}: missing '{key}'")
    initial = config_from_obj(obj["initial"], where=f"{where}: initial")
    events = []
    for i, ev in enumerate(obj["events"]):
        if not (isinstance(ev, list) and len(ev) == 4):
            raise SchemaError(f"{where}: event {i} is not a 4-element array")
        time, kind, tag, loc = ev
        if kind not in ("immigration", "death"):
            raise SchemaError(f"{where}: event {i} has unknown kind '{kind}'")
        if kind == "immigration":
            if not (isinstance(loc, list) and len(loc) == initial.dimension):
                raise SchemaError(
                    f"{where}: event {i} immigration needs a length-{initial.dimension} location"
                )
            loc = tuple(float(x) for x in loc)
        else:
            if loc is not None:
                raise SchemaError(f"{where}: event {i} death carries a location")
        events.append((float(time), kind, int(tag), loc))
    try:
        return Trajectory.from_events(initial, obj["horizon"], obj["m"], events)
    except ValueError as exc:  # a trajectory no chain run gives
        raise SchemaError(f"{where}: {exc}") from exc


def write_trajectories(path, trajs: Iterable[Trajectory]) -> None:
    with open(path, "w") as fh:
        for traj in trajs:
            fh.write(dumps_canonical(trajectory_to_obj(traj)) + "\n")


def read_trajectories(path) -> list[Trajectory]:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: line {lineno}: {exc.msg}") from exc
            out.append(trajectory_from_obj(obj, where=f"{path}: line {lineno}"))
    return out


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses, arrays, and numpy scalars to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_report(path, obj: Any) -> None:
    Path(path).write_text(dumps_report(to_jsonable(obj)))
