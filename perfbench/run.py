"""Benchmark of condpp: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload delta_count --seed 0 --seconds 35 --trace 0

Workloads: bernoulli_d2, delta_count and chain_stationary; workloads.py
says what each exercises and why.  --trace 0 times the workload with
tracing off and reports the end-to-end metrics BENCHMARK.json names;
--trace 1 wraps the calls into each library layer and reports the
per-layer metrics.  Every measurement runs in a child process of its own,
with one worker and BLAS held to one thread.  A run repeats its workload's
pass for the given seconds.  Every set-up and pass time is scaled to the
host's speed at rest by a reference loop timed next to it (reference.py
says why), and a metric is the median of the scaled times; the report
keeps the raw times too.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the full report:
timings, scaled and raw, as median, tail percentile and sample count,
every result with its gate, the failed fraction, digests, work counts and
provenance.  It is also written under .bench_out/.  Exit status is 0 when
every gate and check passed, 1 when one failed and 2 when no measurement
could be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from summary import (
    at_reference_speed,
    failed_fraction,
    passes_at_reference_speed,
    time_to_accuracy,
    timing,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# Set-up samples per untraced run: set-up-only processes before and after
# the timed one, plus its own set-up, so that they span the whole run.
# setup_s is the median of their scaled times.
SETUP_PROCESSES_EACH_SIDE = 2

# Every run ends within 180 s; children get what is left of this.
DEADLINE_S = 170.0

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunError(Exception):
    """No measurement could be made."""


def child(args, mode: str, deadline: float) -> dict:
    """Run worker.py in one mode and return the JSON object it printed."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), "--out-dir", str(OUT_DIR),
    ]
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": os.pathsep.join(path)}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"the {mode} process ran past the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"the {mode} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """sha256 of the library and benchmark sources, standing in for a commit."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def counts_match_earlier(args, counters: dict, source: str) -> bool:
    """Compare work counts with an earlier run of the same sources and seed."""
    path = OUT_DIR / "counters" / f"{args.workload}-seed{args.seed}-{source[:16]}.json"
    if path.exists():
        return json.loads(path.read_text()) == counters
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True))
    return True


def setup_at_reference_speed(run: dict) -> float:
    return at_reference_speed(run["setup_s"], statistics.median(run["setup_refs"]))


def untraced(args, deadline: float) -> tuple[dict, dict, dict, dict]:
    setup_only = lambda: child(args, "setup", deadline)
    runs = [setup_only() for _ in range(SETUP_PROCESSES_EACH_SIDE)]
    timed = child(args, "time", deadline)
    runs.append(timed)
    runs += [setup_only() for _ in range(SETUP_PROCESSES_EACH_SIDE)]
    setups = [setup_at_reference_speed(r) for r in runs]
    walls = passes_at_reference_speed(timed["walls"], timed["refs"])
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "time_to_accuracy_s": time_to_accuracy(wall, timed["se_targets"]),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    checks = {"results repeat at one seed": len(timed["digests"]) == 1}
    detail = {
        "timings": {
            "setup_s": timing(setups),
            "wall_s": timing(walls),
            "raw_setup_s": timing([r["setup_s"] for r in runs]),
            "raw_wall_s": timing(timed["walls"]),
            "reference_s": timing(timed["refs"]),
        },
    }
    return timed, metrics, checks, detail


def traced(args, deadline: float, source: str) -> tuple[dict, dict, dict, dict]:
    run = child(args, "trace", deadline)
    metrics = dict(run["layers"])
    untraced_walls = passes_at_reference_speed(run["untraced_walls"], run["untraced_refs"])
    traced_walls = passes_at_reference_speed(run["traced_walls"], run["traced_refs"])
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    checks = {
        "results repeat at one seed, traced or not": len(run["digests"]) == 1,
        "work counts repeat across passes": run["counters_repeat"],
        "work counts match earlier runs at this seed": counts_match_earlier(
            args, run["counters"], source
        ),
        "every wrapper removed": run["wrappers_removed"],
    }
    detail = {
        "timings": {
            "untraced_wall_s": timing(untraced_walls),
            "traced_wall_s": timing(traced_walls),
            "raw_untraced_wall_s": timing(run["untraced_walls"]),
            "raw_traced_wall_s": timing(run["traced_walls"]),
        },
        "work_counters": run["counters"],
        "spans_file": run["spans_file"],
    }
    return run, metrics, checks, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "condpp" / "__init__.py").is_file():
        print(f"no condpp sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    source = source_digest()
    try:
        if args.trace:
            run, metrics, checks, detail = traced(args, deadline, source)
        else:
            run, metrics, checks, detail = untraced(args, deadline)
    except RunError as err:
        print(err, file=sys.stderr)
        return 2
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"the run did not measure {missing}", file=sys.stderr)
        return 2

    attempted, failed = run["attempted"], run["failed"]
    correct = failed == 0 and all(checks.values())
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "failed_fraction": failed_fraction(attempted, failed),
        "results": run["results"],
        "failed_results": sorted({r["name"] for r in run["results"] if not r["passed"]}),
        "digests": run["digests"],
        "checks": checks,
        **detail,
        "provenance": {
            "seed": args.seed,
            "seconds": args.seconds,
            "workers": run["workers"],
            "blas_threads": int(PINNED_ENV["OMP_NUM_THREADS"]),
            **run["versions"],
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "source_sha256": source,
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
