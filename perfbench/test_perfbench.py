"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import types

import pytest

from spans import Tracer, self_times
from summary import (
    REFERENCE_S,
    at_reference_speed,
    failed_fraction,
    passes_at_reference_speed,
    tail,
    time_to_accuracy,
    timing,
)


def test_self_time_of_nested_children():
    # a [0, 10] holds b [2, 8], which holds c [3, 5].
    got = self_times([0.0, 2.0, 3.0], [10.0, 8.0, 5.0], [-1, 0, 1])
    assert list(got) == pytest.approx([4.0, 4.0, 2.0])


def test_self_time_of_back_to_back_children():
    # a [0, 10] holds b [1, 4] and then c [4, 9].
    got = self_times([0.0, 1.0, 4.0], [10.0, 4.0, 9.0], [-1, 0, 0])
    assert list(got) == pytest.approx([2.0, 3.0, 5.0])


class _Stream:
    def draw(self):
        return 1.0

    def pair(self):
        return self.draw() + self.draw()


class _Child(_Stream):
    pass


def test_tracer_records_nesting_counts_and_restores():
    module = types.SimpleNamespace(work=lambda n: sum(_Stream().pair() for _ in range(n)))
    originals = (module.work, _Stream.draw, _Stream.pair)
    tracer = Tracer()
    tracer.wrap(module, "work", "work", "top")
    tracer.wrap(_Stream, "draw", "draw", "draw", hook=lambda c, a, k, r: c.__setitem__("draws", c["draws"] + 1))
    tracer.wrap(_Stream, "pair", "pair", "draw")
    tracer.wrap(_Child, "draw", "child.draw", "draw")
    assert module.work(3) == 6.0
    summary = tracer.summary()
    assert summary["top"]["calls"] == 1
    # Three pairs enter the draw group; the six draws inside them do not.
    assert summary["draw"] == {**summary["draw"], "spans": 9, "calls": 3}
    assert tracer.counters["draws"] == 6
    total = tracer.end[0] - tracer.start[0]
    assert summary["top"]["self_s"] + summary["draw"]["self_s"] == pytest.approx(total)
    assert tracer.uninstall()
    assert (module.work, _Stream.draw, _Stream.pair) == originals
    assert "draw" not in vars(_Child)


def test_time_to_accuracy_scales_by_squared_se_ratio():
    # (0.1 / 0.05)^2 = 4 and (0.02 / 0.02)^2 = 1 average to 2.5.
    assert time_to_accuracy(2.0, [(0.1, 0.05), (0.02, 0.02)]) == pytest.approx(5.0)
    assert time_to_accuracy(2.0, []) == 2.0
    with pytest.raises(ValueError):
        time_to_accuracy(2.0, [(0.1, 0.0)])


def test_tail_needs_ten_samples_beyond():
    assert tail(range(1, 20)) is None
    assert tail(range(1, 21)) == (50.0, 10)
    assert tail(range(1, 101)) == (90.0, 90)
    assert tail(range(1, 1001)) == (99.0, 990)
    assert timing([3.0, 1.0, 2.0]) == {
        "median": 2.0, "tail_percentile": None, "tail": None, "samples": 3,
        "values": [3.0, 1.0, 2.0],
    }


def test_passes_scale_by_the_reference_times_around_them():
    # Pass 0 sits between references at 1x and 1x, pass 1 between 1x and 3x.
    refs = [REFERENCE_S, REFERENCE_S, 3.0 * REFERENCE_S]
    assert passes_at_reference_speed([2.0, 3.0], refs) == pytest.approx([2.0, 1.5])
    assert at_reference_speed(1.0, 2.0 * REFERENCE_S) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        passes_at_reference_speed([2.0, 3.0], refs[:2])
    with pytest.raises(ValueError):
        at_reference_speed(1.0, 0.0)


def test_failed_fraction_counts_a_fabricated_failing_row():
    from condpp.estimates import MCEstimate

    import worker
    import workloads

    close = MCEstimate(estimate=0.101, se=0.001, replicas=1000, seed=0)
    far = MCEstimate(estimate=0.2, se=0.001, replicas=1000, seed=0)
    capped = MCEstimate(estimate=0.1, se=0.001, replicas=1000, seed=0, capped=1)
    rows = [
        workloads._against_exact("close", close, 0.1),
        workloads._against_exact("far", far, 0.1),
        workloads._against_exact("capped", capped, 0.1),
        workloads.Result("ungated", 1.0, None, gated=False, passed=False),
    ]
    assert [r.passed for r in rows[:3]] == [True, False, False]
    attempted, failed = worker.gate_counts([rows, rows])
    assert (attempted, failed) == (6, 4)
    assert failed_fraction(attempted, failed) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        failed_fraction(0, 0)
