"""Where the traced run hooks into condpp, and the per-layer metrics it yields.

Every probe wraps a public function at the name its caller looks it up by:
verify imports stein_residual by name, so it is wrapped as
condpp.verify.stein_residual; metrics reaches pairwise_d1_matrix and
solve_balanced_transport through its module globals, coupling reaches
run_coupled_chains the same way.  coupling binds metrics._d1_locs directly,
so per-event matching work is timed through
MatchingDistanceTestFunction.from_locations.  Ground-space distances are a
field of each GroundSpace, so the spaces the benchmark built are wrapped one
by one and run_experiment's own space through the unit_interval name it
calls.
"""

from __future__ import annotations

import inspect
import statistics
import types

from condpp import bernoulli_app, coupling, metrics, simulate, verify
from condpp.groundspace import GroundSpace, RandomStream

from spans import Tracer
from summary import tail

# Exact work counts compared across repeats and runs at one seed.
WORK_COUNTERS = (
    "groundspace.draws",
    "simulate.chain_events",
    "coupling.events",
    "coupling.replicas",
    "metrics.d1_pairs",
    "metrics.cost_entries",
)


def _draw_one(c, args, kwargs, result):
    c["groundspace.draws"] += 1


def _draw_many(c, args, kwargs, result):
    c["groundspace.draws"] += len(result)


def _chain(c, args, kwargs, trajectory):
    c["simulate.chain_events"] += len(trajectory.events)


def _estimate(c, args, kwargs, est):
    c["coupling.replicas"] += est.replicas
    c["coupling.capped"] += est.capped


_STEIN_SIGNATURE = inspect.signature(coupling.stein_residual)


def _stein(c, args, kwargs, est):
    # One coupled replica per replica for the immigration term, plus one per
    # point of xi for the death terms when xi sits above the floor.
    call = _STEIN_SIGNATURE.bind(*args, **kwargs).arguments
    size, floor = call["xi"].size, call["m"]
    c["coupling.replicas"] += est.replicas * (1 + (size if size > floor else 0))
    c["coupling.capped"] += est.capped


def _coupled_run(c, args, kwargs, run):
    c["coupling.events"] += run.events
    if run.coalescence_time is not None:
        c["coupling.coalesced_runs"] += 1
        c["coupling.coalescence_sum"] += run.coalescence_time


_MATRIX_SIGNATURE = inspect.signature(metrics.pairwise_d1_matrix)


def _matrix(c, args, kwargs, costs):
    call = _MATRIX_SIGNATURE.bind(*args, **kwargs).arguments
    ps, qs = call["ps"], call["qs"]
    c["metrics.d1_pairs"] += len(ps) * len(qs)
    # An exact matcher reads |p| x |q| ground costs for every pair.
    c["metrics.cost_entries"] += sum(p.size for p in ps) * sum(q.size for q in qs)


def _from_locations(c, args, kwargs, value):
    test_function, locations = args[0], args[1]
    c["metrics.d1_pairs"] += 1
    c["metrics.cost_entries"] += len(locations) * test_function.reference.size


def _solve(c, args, kwargs, plan):
    c["transport.n"] = max(c["transport.n"], plan.n_rows)


def _battery(c, args, kwargs, report):
    c["verify.rows"] += len(report["rows"])
    c["verify.failed_rows"] += sum(1 for row in report["rows"] if not row["pass"])


# (owner, attribute, group, hook) for every probe on a module or class.
_PROBES = (
    (RandomStream, "uniform", "draw", _draw_one),
    (RandomStream, "uniforms", "draw", _draw_many),
    (RandomStream, "exponential", "draw", None),
    (RandomStream, "integer", "draw", None),
    (GroundSpace, "sample", "sample", None),
    (GroundSpace, "sample_one", "sample", None),
    (simulate, "simulate_cid_chain", "chain", _chain),
    (simulate.Trajectory, "configuration_at", "config_at", None),
    (simulate.Trajectory, "final_configuration", "config_at", None),
    (bernoulli_app, "sample_bernoulli_process", "sampler", None),
    (bernoulli_app, "sample_conditional_poisson", "sampler", None),
    (coupling, "sample_conditional_poisson", "sampler", None),
    (coupling, "estimate_delta_h", "estimator", _estimate),
    (coupling, "estimate_delta2_h", "estimator", _estimate),
    (verify, "stein_residual", "estimator", _stein),
    (coupling, "run_coupled_chains", "run", _coupled_run),
    (coupling.CountTestFunction, "from_count", "testfn", None),
    (coupling.MatchingDistanceTestFunction, "from_locations", "testfn", _from_locations),
    (metrics, "pairwise_d1_matrix", "matrix", _matrix),
    (metrics, "solve_balanced_transport", "solve", _solve),
    (bernoulli_app, "self_distance_calibration", "calibration", None),
    (bernoulli_app, "run_experiment", "experiment", None),
    (verify, "verify_stein", "battery", _battery),
)

ROW_SPAN = "verify.stein_residual"


def _label(owner) -> str:
    if isinstance(owner, types.ModuleType):
        return owner.__name__.removeprefix("condpp.")
    return f"{owner.__module__.removeprefix('condpp.')}.{owner.__qualname__}"


def install(tracer: Tracer, spaces) -> None:
    """Wrap every probe, the given spaces' distances, and new Bernoulli spaces."""
    for owner, attr, group, hook in _PROBES:
        tracer.wrap(owner, attr, f"{_label(owner)}.{attr}", group, hook)
    for i, space in enumerate(spaces):
        tracer.wrap(space, "pairwise", f"space{i}.pairwise", "pairwise")
    make_space = bernoulli_app.unit_interval
    recorders = {}

    def unit_interval(total_mass):
        space = make_space(total_mass)
        original = space.pairwise
        if original not in recorders:
            recorders[original] = tracer.recorder(
                original, "bernoulli_app.unit_interval.pairwise", "pairwise"
            )
        object.__setattr__(space, "pairwise", recorders[original])
        return space

    tracer.patch(bernoulli_app, "unit_interval", unit_interval)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    s = tracer.summary()
    c = tracer.counters
    g = lambda group, key: s[group][key]
    events = c["simulate.chain_events"]
    replicas = c["coupling.replicas"]
    pairs = c["metrics.d1_pairs"]
    rows = tracer.durations(ROW_SPAN) or [0.0]
    # Three rows a pass are too few for a tail percentile; then the slowest.
    row_tail = tail(rows) or (100.0, max(rows))
    from_locations_s = sum(
        tracer.durations("coupling.MatchingDistanceTestFunction.from_locations")
    )
    return {
        "groundspace.draws": c["groundspace.draws"],
        "groundspace.draw_calls": g("draw", "calls"),
        "groundspace.draw_self_s": g("draw", "self_s"),
        "groundspace.sample_calls": g("sample", "calls"),
        "groundspace.sample_self_s": g("sample", "self_s"),
        "simulate.chain_calls": g("chain", "calls"),
        "simulate.chain_events": events,
        "simulate.chain_self_s": g("chain", "self_s"),
        "simulate.us_per_event": 1e6 * g("chain", "total_s") / events if events else 0.0,
        "simulate.config_at_s": g("config_at", "total_s"),
        "simulate.sampler_calls": g("sampler", "calls"),
        "simulate.sampler_self_s": g("sampler", "self_s"),
        "coupling.estimate_calls": g("estimator", "calls"),
        "coupling.replicas": replicas,
        "coupling.us_per_replica": 1e6 * g("estimator", "total_s") / replicas if replicas else 0.0,
        "coupling.run_calls": g("run", "calls"),
        "coupling.events": c["coupling.events"],
        "coupling.events_per_replica": c["coupling.events"] / replicas if replicas else 0.0,
        "coupling.run_self_s": g("run", "self_s"),
        "coupling.capped_fraction": c["coupling.capped"] / replicas if replicas else 0.0,
        "coupling.coalescence_mean": (
            c["coupling.coalescence_sum"] / c["coupling.coalesced_runs"]
            if c["coupling.coalesced_runs"] else 0.0
        ),
        "coupling.testfn_calls": g("testfn", "calls"),
        "coupling.testfn_self_s": g("testfn", "self_s"),
        "metrics.d1_pairs": pairs,
        "metrics.matrix_s": g("matrix", "total_s"),
        "metrics.us_per_d1_pair": 1e6 * (g("matrix", "total_s") + from_locations_s) / pairs if pairs else 0.0,
        "metrics.pairwise_calls": g("pairwise", "calls"),
        "metrics.cost_entries": c["metrics.cost_entries"],
        "transport.solve_calls": g("solve", "calls"),
        "transport.solve_s": g("solve", "total_s"),
        "transport.n": c["transport.n"],
        "bernoulli_app.calibration_s": g("calibration", "total_s"),
        "bernoulli_app.experiment_s": g("experiment", "total_s"),
        "verify.rows": c["verify.rows"],
        "verify.failed_rows": c["verify.failed_rows"],
        "verify.row_p50_s": statistics.median(rows),
        "verify.row_tail_s": row_tail[1],
    }
