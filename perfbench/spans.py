"""In-memory spans for the benchmark's traced run.

The tracer replaces library functions, at the names their callers look them
up by, with wrappers that record one span per call: name, start, end and the
span open when the call began.  Spans live in flat arrays during the run and
are summarised or written out after it; every wrapper is removed afterwards.
Everything here is single-threaded, like the benchmark.
"""

from __future__ import annotations

import array
import dataclasses
import functools
from collections import defaultdict
from time import perf_counter

import numpy as np


def _set(owner, attr, value) -> None:
    try:
        setattr(owner, attr, value)
    except dataclasses.FrozenInstanceError:
        object.__setattr__(owner, attr, value)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    parent[i] is the index of span i's parent, or -1 at the root.  Spans
    come from one thread's call stack, so the children of one span never
    overlap and the time they cover is the sum of their durations; a
    grandchild's time is already inside its own parent.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    return dur - covered


class Tracer:
    """Span recorder plus the patches that feed it.

    wrap() installs a recording wrapper; its optional hook sees each call's
    arguments and result and updates `counters`, which is how exact work
    counts are taken at the same boundary as the span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans and counters; wrappers stay installed."""
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(int)

    def patch(self, owner, attr: str, value) -> None:
        """Set owner.attr, remembering what to put back on uninstall()."""
        namespace = vars(owner)
        self._patches.append((owner, attr, namespace.get(attr), attr in namespace))
        _set(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, group: str, hook=None):
        """Record a span in `group` around every call of owner.attr."""
        wrapper = self.recorder(getattr(owner, attr), name, group, hook)
        self.patch(owner, attr, wrapper)
        return wrapper

    def recorder(self, original, name: str, group: str, hook=None):
        """A function that calls `original` and records a span for the call."""
        nid = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def uninstall(self) -> bool:
        """Put back every patched attribute, newest first; True if all are back."""
        undone = []
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                _set(owner, attr, original)
            else:
                delattr(owner, attr)
            undone.append((owner, attr, original, owned))
        return all(
            vars(owner).get(attr) is original if owned else attr not in vars(owner)
            for owner, attr, original, owned in undone
        )

    def summary(self) -> dict[str, dict]:
        """Per group: spans, calls entering it, inclusive and self seconds.

        A call enters a group when its parent span belongs to another group
        (or there is none); inclusive time sums those entering calls, so
        recursion inside a group is not counted twice.
        """
        groups = sorted(set(self.groups))
        out = {g: {"spans": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0} for g in groups}
        if not self.start:
            return out
        nid = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        selfs = self_times(start, self.end, parent)
        group_of_name = np.array([groups.index(g) for g in self.groups])
        gid = group_of_name[nid]
        parent_gid = np.where(parent >= 0, gid[np.maximum(parent, 0)], -1)
        entering = parent_gid != gid
        for i, g in enumerate(groups):
            mine = gid == i
            out[g] = {
                "spans": int(mine.sum()),
                "calls": int((mine & entering).sum()),
                "total_s": float(dur[mine & entering].sum()),
                "self_s": float(selfs[mine].sum()),
            }
        return out

    def durations(self, name: str) -> list[float]:
        """Durations of every span recorded under one name."""
        if name not in self.names:
            return []
        mine = np.asarray(self.name_id) == self.names.index(name)
        return (np.asarray(self.end)[mine] - np.asarray(self.start)[mine]).tolist()

    def save(self, path) -> None:
        """Write the recorded spans as flat arrays (numpy .npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            groups=np.array(self.groups),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
