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
import math
import os
import sys

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


def _cmd_simulate(args) -> int:
    space = unit_interval(args.lam)
    trajs = []
    for r in range(args.replicas):
        stream = derive_stream(args.seed, r)
        initial = sample_conditional_poisson(space, args.m, stream)
        trajs.append(simulate_cid_chain(initial, args.m, args.horizon, space, stream))
    io.write_trajectories(args.out, trajs)
    return 0


def _cmd_sample(args) -> int:
    draws = []
    if args.law in ("poisson", "cpoisson"):
        if args.lam is None:
            raise UsageError(f"--lambda is required for law '{args.law}'")
        space = unit_interval(args.lam)
        for r in range(args.count):
            stream = derive_stream(args.seed, r)
            if args.law == "poisson":
                draws.append(sample_poisson_process(space, stream))
            else:
                draws.append(sample_conditional_poisson(space, args.m, stream))
    else:
        if args.n is None or args.p is None:
            raise UsageError(f"--n and --p are required for law '{args.law}'")
        for r in range(args.count):
            stream = derive_stream(args.seed, r)
            if args.law == "bernoulli":
                draws.append(sample_bernoulli_process(args.n, args.p, args.m, stream))
            else:
                draws.append(sample_binomial_process(args.n, args.p, args.m, stream))
    io.write_configurations(args.out, draws)
    return 0


def _space_for(configs):
    """The unit space of the configurations' dimension; every point must lie in it."""
    dim = max(cfg.dimension for cfg in configs)
    space = unit_interval(1.0) if dim == 1 else unit_cube(1.0, dim)
    for cfg in configs:
        if not all(space.contains(x) for x in cfg.locations):
            raise UsageError(f"distance input has a point outside {space.label}")
    return space


def _cmd_distance(args) -> int:
    if args.which == "d1":
        left = io.read_configurations(args.a)
        right = io.read_configurations(args.b)
        if len(left) != 1 or len(right) != 1:
            raise UsageError("distance d1 expects exactly one configuration per file")
        value = d1_bar(left[0], right[0], _space_for([left[0], right[0]]))
        print(repr(value))
        if args.out is not None:
            _emit_json({"d1": value}, args.out)
        return 0
    ps = io.read_configurations(args.a)
    qs = io.read_configurations(args.b)
    if not ps or len(ps) != len(qs):
        raise UsageError("distance d2 expects equal-size non-empty samples")
    est = d2_bar_empirical(ps, qs, _space_for(ps + qs), workers=args.threads)
    obj = {"estimate": est.estimate, "n": est.n_samples, "seed": est.seed, "note": est.note}
    _emit_json(obj, None)
    if args.out is not None:
        _emit_json(obj, args.out)
    return 0


def _cmd_bounds(args) -> int:
    obj = stein_bounds_to_obj(compute_stein_bounds(args.lam, args.m, args.size))
    if args.fmt == "csv":
        _emit_csv([obj], args.out)
    else:
        _emit_json(obj, args.out)
    return 0


def _cmd_verify(args) -> int:
    # Options left unset fall through to the battery's own defaults, so its
    # signature is their one source; delta-bounds has no default lambda.
    kwargs = {"m": args.m, "seed": args.seed}
    if args.replicas is not None:
        kwargs["replicas"] = args.replicas
    if args.battery == "p-survival":
        if args.lam is not None:
            kwargs["lams"] = (args.lam,)
        report = verify.verify_p_survival(**kwargs)
    elif args.battery == "stein":
        if args.lam is not None:
            kwargs["lam"] = args.lam
        report = verify.verify_stein(**kwargs)
    else:
        if args.scenarios is not None:
            kwargs["n_scenarios"] = args.scenarios
        lam = 5.0 if args.lam is None else args.lam
        report = verify.verify_delta_bounds(lam=lam, workers=args.threads, **kwargs)
    if args.fmt == "csv":
        _emit_csv(report["rows"], args.out)
    else:
        _emit_json(report, args.out)
    return 0 if report["passed"] else 2


def _cmd_bernoulli(args) -> int:
    bernoulli_app.bernoulli_bound(args.n, args.p)  # checks n and p before the calibration runs
    space = unit_interval(args.n * args.p)
    calibration = bernoulli_app.self_distance_calibration(
        bernoulli_app.conditional_poisson_law(space, 1),
        args.samples,
        args.replicas,
        args.seed + 1_000_000,
        space,
        workers=args.threads,
    )
    allowance = bernoulli_app.calibrated_allowance(calibration)
    report = bernoulli_app.run_experiment(
        args.n, args.p, args.samples, args.seed, allowance=allowance, workers=args.threads
    )
    obj = bernoulli_app.report_to_obj(report)
    obj["calibration"] = {
        "mean": calibration.estimate,
        "se": calibration.se,
        "replicas": calibration.replicas,
        "seed": calibration.seed,
    }
    _emit_json(obj, args.out)
    return 0 if report.passed else 2


def _positive_int(text: str, least: int = 1) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _at_least_two(text: str) -> int:
    return _positive_int(text, 2)


def _nonnegative_int(text: str) -> int:
    return _positive_int(text, 0)


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="condpp", description=__doc__)
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="size of the worker process pool of verify delta-bounds and of "
        "distance d2 outside the unit interval (cost matrices on the unit "
        "interval, bernoulli's included, are built in one process); results "
        "do not depend on it (default: all cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="conditional immigration-death trajectories")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--lambda", dest="lam", type=_positive_finite, required=True)
    p.add_argument("--m", type=_nonnegative_int, default=0)
    p.add_argument("--t", "--horizon", dest="horizon", type=_positive_finite, required=True)
    p.add_argument("--replicas", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="draws from the point process laws")
    p.set_defaults(run=_cmd_sample)
    p.add_argument(
        "--law",
        choices=("poisson", "cpoisson", "bernoulli", "binomial"),
        required=True,
    )
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", type=_positive_finite, default=None)
    p.add_argument("--m", type=_nonnegative_int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("distance", help="configuration and sample distances")
    p.set_defaults(run=_cmd_distance)
    p.add_argument("which", choices=("d1", "d2"))
    p.add_argument("--a", required=True, help="left file (configuration JSON/JSONL)")
    p.add_argument("--b", required=True, help="right file (configuration JSON/JSONL)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="closed-form Stein-factor bounds")
    p.set_defaults(run=_cmd_bounds)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--xi-size", "--size", dest="size", type=int, default=None)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="simulation-vs-analytic batteries")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("battery", choices=("p-survival", "stein", "delta-bounds"))
    p.add_argument("--lambda", dest="lam", type=_positive_finite, default=None)
    p.add_argument("--m", type=_nonnegative_int, default=1)
    p.add_argument("--replicas", type=_at_least_two, default=None)
    p.add_argument("--scenarios", type=_nonnegative_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bernoulli", help="conditional Bernoulli approximation experiment")
    p.set_defaults(run=_cmd_bernoulli)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--samples", type=_at_least_two, default=500)
    p.add_argument(
        "--replicas",
        type=_at_least_two,
        default=8,
        help="self-distance calibration replicas for the bias allowance",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if "seed" in args:
            args.seed = _resolve_seed(args.seed)
        return args.run(args)
    except (UsageError, ValueError, BudgetError, io.SchemaError, OSError) as exc:
        print(f"condpp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
