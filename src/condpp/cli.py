"""Command-line interface.

Subcommands: simulate, sample, distance, bounds, verify, bernoulli.  Exit
codes: 0 success, 1 invalid input, 2 a verification battery or experiment
check failed.  The master seed resolves from --seed, then the CONDPP_SEED
environment variable, then 0; equal seeds give byte-identical artifacts for
any --threads value, since parallel work units are combined in index order.
Flat tables (bounds, verification grids) can be emitted as CSV with
--format csv; nested reports are JSON only.
"""

from __future__ import annotations

import argparse
import csv
import io as _stringio
import os
import sys
from dataclasses import dataclass

from . import bernoulli_app, io, verify
from .bounds import SteinBounds, compute_stein_bounds
from .groundspace import derive_stream, unit_cube, unit_interval
from .metrics import d1_bar, d2_bar_empirical
from .simulate import (
    BudgetError,
    sample_bernoulli_process,
    sample_binomial_process,
    sample_conditional_poisson,
    sample_poisson_process,
    simulate_cid_chain,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("CONDPP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"CONDPP_SEED is not an integer: {env!r}") from exc
    return 0


@dataclass(frozen=True)
class SimulateConfig:
    lam: float
    m: int
    horizon: float
    replicas: int
    seed: int
    out: str


@dataclass(frozen=True)
class SampleConfig:
    law: str
    count: int
    seed: int
    out: str
    lam: float | None
    m: int
    n: int | None
    p: float | None


@dataclass(frozen=True)
class DistanceConfig:
    which: str
    left: str
    right: str
    out: str | None
    workers: int


@dataclass(frozen=True)
class BoundsConfig:
    lam: float
    m: int
    size: int | None
    fmt: str
    out: str | None


@dataclass(frozen=True)
class VerifyConfig:
    battery: str
    lam: float | None
    m: int
    replicas: int
    scenarios: int
    seed: int
    fmt: str
    out: str | None
    workers: int


@dataclass(frozen=True)
class BernoulliConfig:
    n: int
    p: float
    samples: int
    replicas: int
    seed: int
    out: str | None
    workers: int


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(obj, out: str | None) -> None:
    _write_text(io.dumps_report(io.to_jsonable(obj)), out)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_csv(rows: list[dict], out: str | None) -> None:
    """Flat table as CSV; column order follows the first row's keys."""
    if not rows:
        raise UsageError("no rows to write as CSV")
    fields = list(rows[0])
    buf = _stringio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_csv_cell(row.get(name)) for name in fields])
    _write_text(buf.getvalue(), out)


def stein_bounds_to_obj(b: SteinBounds) -> dict:
    """Closed-form bound bundle as a JSON-ready dict with stable field names."""
    return {
        "lambda": b.lam,
        "m": b.m,
        "size": b.size,
        "K1": b.k1,
        "K2": b.k2,
        "L1": b.l1,
        "L2": b.l2,
        "firstDiff": b.first_diff,
        "secondDiff": b.second_diff,
        "firstDiffWinner": b.first_diff_winner,
        "secondDiffWinner": b.second_diff_winner,
        "firstDiffNonUniform": b.first_diff_nonuniform,
        "secondDiffNonUniform": b.second_diff_nonuniform,
        "firstDiffNonUniformWinner": b.first_diff_nonuniform_winner,
        "secondDiffNonUniformWinner": b.second_diff_nonuniform_winner,
        "supercritical": b.supercritical,
    }


def _cmd_simulate(cfg: SimulateConfig) -> int:
    space = unit_interval(cfg.lam)
    trajs = []
    for r in range(cfg.replicas):
        stream = derive_stream(cfg.seed, r)
        initial = sample_conditional_poisson(space, cfg.m, stream)
        trajs.append(simulate_cid_chain(initial, cfg.m, cfg.horizon, space, stream))
    io.write_trajectories(cfg.out, trajs)
    return 0


def _cmd_sample(cfg: SampleConfig) -> int:
    draws = []
    if cfg.law in ("poisson", "cpoisson"):
        if cfg.lam is None:
            raise UsageError(f"--lambda is required for law '{cfg.law}'")
        space = unit_interval(cfg.lam)
        for r in range(cfg.count):
            stream = derive_stream(cfg.seed, r)
            if cfg.law == "poisson":
                draws.append(sample_poisson_process(space, stream))
            else:
                draws.append(sample_conditional_poisson(space, cfg.m, stream))
    else:
        if cfg.n is None or cfg.p is None:
            raise UsageError(f"--n and --p are required for law '{cfg.law}'")
        for r in range(cfg.count):
            stream = derive_stream(cfg.seed, r)
            if cfg.law == "bernoulli":
                draws.append(sample_bernoulli_process(cfg.n, cfg.p, cfg.m, stream))
            else:
                draws.append(sample_binomial_process(cfg.n, cfg.p, cfg.m, stream))
    io.write_configurations(cfg.out, draws)
    return 0


def _space_for(configs):
    """The unit space of the configurations' dimension; every point must lie in it."""
    dim = max(cfg.dimension for cfg in configs)
    space = unit_interval(1.0) if dim == 1 else unit_cube(1.0, dim)
    for cfg in configs:
        if not all(space.contains(x) for x in cfg.locations):
            raise UsageError(f"distance input has a point outside {space.label}")
    return space


def _cmd_distance(cfg: DistanceConfig) -> int:
    if cfg.which == "d1":
        left = io.read_configurations(cfg.left)
        right = io.read_configurations(cfg.right)
        if len(left) != 1 or len(right) != 1:
            raise UsageError("distance d1 expects exactly one configuration per file")
        value = d1_bar(left[0], right[0], _space_for([left[0], right[0]]))
        print(repr(value))
        if cfg.out is not None:
            _emit_json({"d1": value}, cfg.out)
        return 0
    ps = io.read_configurations(cfg.left)
    qs = io.read_configurations(cfg.right)
    if not ps or len(ps) != len(qs):
        raise UsageError("distance d2 expects equal-size non-empty samples")
    est = d2_bar_empirical(ps, qs, _space_for(ps + qs), workers=cfg.workers)
    obj = {"estimate": est.estimate, "n": est.n_samples, "seed": est.seed, "note": est.note}
    _emit_json(obj, None)
    if cfg.out is not None:
        _emit_json(obj, cfg.out)
    return 0


def _cmd_bounds(cfg: BoundsConfig) -> int:
    obj = stein_bounds_to_obj(compute_stein_bounds(cfg.lam, cfg.m, cfg.size))
    if cfg.fmt == "csv":
        _emit_csv([obj], cfg.out)
    else:
        _emit_json(obj, cfg.out)
    return 0


def _cmd_verify(cfg: VerifyConfig) -> int:
    if cfg.battery == "p-survival":
        kwargs = dict(m=cfg.m, replicas=cfg.replicas, seed=cfg.seed)
        if cfg.lam is not None:
            kwargs["lams"] = (cfg.lam,)
        report = verify.verify_p_survival(**kwargs)
    elif cfg.battery == "stein":
        report = verify.verify_stein(
            lam=cfg.lam if cfg.lam is not None else 3.0,
            m=cfg.m,
            replicas=cfg.replicas,
            seed=cfg.seed,
        )
    else:
        report = verify.verify_delta_bounds(
            lam=cfg.lam if cfg.lam is not None else 5.0,
            m=cfg.m,
            n_scenarios=cfg.scenarios,
            replicas=cfg.replicas,
            seed=cfg.seed,
            workers=cfg.workers,
        )
    if cfg.fmt == "csv":
        _emit_csv(report["rows"], cfg.out)
    else:
        _emit_json(report, cfg.out)
    return 0 if report["passed"] else 2


def _cmd_bernoulli(cfg: BernoulliConfig) -> int:
    lam = cfg.n * cfg.p
    space = unit_interval(lam)
    calibration = bernoulli_app.self_distance_calibration(
        bernoulli_app.conditional_poisson_law(space, 1),
        cfg.samples,
        cfg.replicas,
        cfg.seed + 1_000_000,
        space,
        workers=cfg.workers,
    )
    allowance = bernoulli_app.calibrated_allowance(calibration)
    report = bernoulli_app.run_experiment(
        cfg.n, cfg.p, cfg.samples, cfg.seed, allowance=allowance, workers=cfg.workers
    )
    obj = bernoulli_app.report_to_obj(report)
    obj["calibration"] = {
        "mean": calibration.estimate,
        "se": calibration.se,
        "replicas": calibration.replicas,
        "seed": calibration.seed,
    }
    _emit_json(obj, cfg.out)
    return 0 if report.passed else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="condpp", description=__doc__)
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker cap for parallelizable stages (default: all cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="conditional immigration-death trajectories")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--t", "--horizon", dest="horizon", type=float, required=True)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="draws from the point process laws")
    p.add_argument(
        "--law",
        choices=("poisson", "cpoisson", "bernoulli", "binomial"),
        required=True,
    )
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("distance", help="configuration and sample distances")
    p.add_argument("which", choices=("d1", "d2"))
    p.add_argument("--a", required=True, help="left file (configuration JSON/JSONL)")
    p.add_argument("--b", required=True, help="right file (configuration JSON/JSONL)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="closed-form Stein-factor bounds")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--xi-size", "--size", dest="size", type=int, default=None)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="simulation-vs-analytic batteries")
    p.add_argument("battery", choices=("p-survival", "stein", "delta-bounds"))
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--scenarios", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bernoulli", help="conditional Bernoulli approximation experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument(
        "--replicas",
        type=int,
        default=8,
        help="self-distance calibration replicas for the bias allowance",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


_VERIFY_DEFAULT_REPLICAS = {"p-survival": 100_000, "stein": 20_000, "delta-bounds": 1500}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError("--threads must be at least 1")
        if args.command == "simulate":
            return _cmd_simulate(
                SimulateConfig(
                    lam=args.lam,
                    m=args.m,
                    horizon=args.horizon,
                    replicas=args.replicas,
                    seed=_resolve_seed(args.seed),
                    out=args.out,
                )
            )
        if args.command == "sample":
            return _cmd_sample(
                SampleConfig(
                    law=args.law,
                    count=args.count,
                    seed=_resolve_seed(args.seed),
                    out=args.out,
                    lam=args.lam,
                    m=args.m,
                    n=args.n,
                    p=args.p,
                )
            )
        if args.command == "distance":
            return _cmd_distance(
                DistanceConfig(
                    which=args.which,
                    left=args.a,
                    right=args.b,
                    out=args.out,
                    workers=args.threads,
                )
            )
        if args.command == "bounds":
            return _cmd_bounds(
                BoundsConfig(
                    lam=args.lam, m=args.m, size=args.size, fmt=args.fmt, out=args.out
                )
            )
        if args.command == "verify":
            replicas = (
                args.replicas
                if args.replicas is not None
                else _VERIFY_DEFAULT_REPLICAS[args.battery]
            )
            return _cmd_verify(
                VerifyConfig(
                    battery=args.battery,
                    lam=args.lam,
                    m=args.m,
                    replicas=replicas,
                    scenarios=args.scenarios,
                    seed=_resolve_seed(args.seed),
                    fmt=args.fmt,
                    out=args.out,
                    workers=args.threads,
                )
            )
        if args.command == "bernoulli":
            return _cmd_bernoulli(
                BernoulliConfig(
                    n=args.n,
                    p=args.p,
                    samples=args.samples,
                    replicas=args.replicas,
                    seed=_resolve_seed(args.seed),
                    out=args.out,
                    workers=args.threads,
                )
            )
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"condpp: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, BudgetError, io.SchemaError, OSError) as exc:
        print(f"condpp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
