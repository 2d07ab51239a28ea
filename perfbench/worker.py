"""One benchmark process: set up a workload, then time it or trace it.

run.py starts one of these per measurement, so that set-up time and peak
memory belong to one workload alone:

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --out-dir DIR

MODE is `setup` (set up and stop), `time` (repeat the workload untraced for
S seconds) or `trace` (half the time untraced, half traced).  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import struct
import sys
import time
from pathlib import Path

# Traced passes made at least, so that work counts can be compared.
MIN_TRACED_PASSES = 2
# Untraced passes made at least, so that result digests can be compared.
MIN_TIMED_PASSES = 2
# Reference loops timed right after set-up; set-up is scaled by their median.
SETUP_REFERENCE_LOOPS = 5


def digest(results) -> str:
    """sha256 over every result's name and (estimate, se) float bits."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.name.encode())
        h.update(struct.pack("<dd", r.estimate, math.nan if r.se is None else r.se))
    return h.hexdigest()


def repeat(run, seconds: float, min_passes: int, after=None):
    """Call run() until `seconds` have gone by.

    Returns the passes' wall times, the reference loop's times (one before
    the first pass and one after each) and the passes' results.  after(), if
    given, runs between passes, outside the timed region.
    """
    from reference import reference_time

    walls, refs, passes = [], [reference_time()], []
    began = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - began < seconds:
        t = time.perf_counter()
        passes.append(run())
        walls.append(time.perf_counter() - t)
        refs.append(reference_time())
        if after is not None:
            after()
    return walls, refs, passes


def gate_counts(passes) -> tuple[int, int]:
    gated = [r for results in passes for r in results if r.gated]
    return len(gated), sum(1 for r in gated if not r.passed)


def result_rows(results) -> list[dict]:
    return [
        {"name": r.name, "estimate": r.estimate, "se": r.se, "gated": r.gated,
         "passed": r.passed, **r.detail}
        for r in results
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    began = time.perf_counter()
    import workloads  # imports condpp, numpy and scipy: part of set-up

    source = Path(workloads.condpp.__file__).resolve()
    checkout_src = Path(__file__).resolve().parents[1] / "src"
    if not source.is_relative_to(checkout_src):
        print(f"condpp was imported from {source}, not from {checkout_src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    inputs = workload.setup(args.seed)
    out = {"setup_s": time.perf_counter() - began}
    # Imported only now: it loads numpy, which set-up has to pay for itself.
    from reference import reference_time

    out["setup_refs"] = [reference_time() for _ in range(SETUP_REFERENCE_LOOPS)]
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import numpy
    import scipy

    out["workers"] = workloads.WORKERS
    out["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    oracle = workload.oracle(inputs)
    targets = workloads.SE_TARGETS[args.workload]

    run = lambda: workload.run(inputs, oracle)
    if args.mode == "time":
        walls, refs, passes = repeat(run, args.seconds, MIN_TIMED_PASSES)
        first = passes[0]
        out.update(
            walls=walls,
            refs=refs,
            results=result_rows(first),
            se_targets=[[r.se, targets[r.name]] for r in first if r.name in targets],
            digests=sorted({digest(p) for p in passes}),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        import layers
        from spans import Tracer

        half = args.seconds / 2.0
        untraced_walls, untraced_refs, untraced = repeat(run, half, 1)
        tracer = Tracer()
        per_pass, counters = [], []

        def traced_run():
            tracer.reset()
            return run()

        def record():
            per_pass.append(layers.layer_metrics(tracer))
            counters.append({k: tracer.counters[k] for k in layers.WORK_COUNTERS})

        layers.install(tracer, inputs.spaces)
        try:
            traced_walls, traced_refs, passes = repeat(
                traced_run, half, MIN_TRACED_PASSES, after=record
            )
        finally:
            restored = tracer.uninstall()
        args.out_dir.mkdir(parents=True, exist_ok=True)
        spans_file = args.out_dir / f"spans-{args.workload}.npz"
        tracer.save(spans_file)
        out.update(
            untraced_walls=untraced_walls,
            untraced_refs=untraced_refs,
            traced_walls=traced_walls,
            traced_refs=traced_refs,
            layers={k: statistics.median([p[k] for p in per_pass]) for k in per_pass[0]},
            counters=counters[0],
            counters_repeat=all(c == counters[0] for c in counters),
            digests=sorted({digest(p) for p in untraced + passes}),
            wrappers_removed=restored,
            results=result_rows(passes[0]),
            spans_file=str(spans_file),
        )
        passes = untraced + passes
    out["attempted"], out["failed"] = gate_counts(passes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
