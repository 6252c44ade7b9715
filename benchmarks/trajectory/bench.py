"""Measurement primitives: clocks, order statistics, memory, spans.

Nothing here knows about the engine; the workloads and the layer probes
are built on it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

clock = time.perf_counter


def cpu_seconds() -> float:
    """Process CPU, self plus reaped children, user plus system."""
    children = os.times()
    return time.process_time() + children.children_user + children.children_system


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Seconds the yardstick below takes on the 2-vCPU box the benchmark was
#: written on, when that box is quiet.
YARDSTICK_S = 0.00145


class _Node:
    __slots__ = ("value", "children")

    def __init__(self, value: int) -> None:
        self.value = value
        self.children: list["_Node"] = []


def _yardstick() -> float:
    """Seconds for a fixed piece of engine-independent interpreter work:
    dictionary and tuple traffic, then building and walking a tree of
    small objects (allocation and pointer chasing, as the engine does)."""
    start = clock()
    table = {}
    for i in range(4000):
        table[i & 255] = (i, str(i & 15))
    total = sum(pair[0] for pair in table.values())
    nodes = [_Node(0)]
    for i in range(1, 3000):
        parent = nodes[(i * 7919) % len(nodes)] if i % 7 else nodes[-1]
        child = _Node(i)
        parent.children.append(child)
        nodes.append(child)
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        total += node.value
        stack.extend(node.children)
    return clock() - start


def slowdown() -> float:
    """How much slower than when quiet the machine is *right now*: the
    median of three yardsticks ÷ ``YARDSTICK_S``.

    The box this runs on is two hardware threads of a shared host.  With
    nothing else running in the guest, the same work takes up to twice as
    long whenever the neighbours are busy — for tens of milliseconds at a
    time, or for minutes.  Every timed stretch is divided by the slowdown
    sampled just before and just after it, so it reads as time on the
    quiet box and two runs of the same code agree; the undivided timings
    are kept in the result file.

    What the yardstick is made of matters more than how the divided
    samples are then summarised.  Over forty runs in mixed weather four
    workloads' times rose as the 1.0-1.1th power of this yardstick's and
    as the 1.2-1.8th power of a pure-arithmetic loop's: the neighbours
    slow arithmetic far less than they slow allocation and pointer chasing.

    The collector is paused for the yardsticks: their allocations would
    otherwise trigger full collections whose cost is the workload's heap,
    not the machine's speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return median([_yardstick() for _ in range(3)]) / YARDSTICK_S
    finally:
        if was_enabled:
            gc.enable()


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def supported_tail(count: int) -> float:
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    for q in (99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def timed_median(function: Callable[[], Any], repeat: int = 5) -> float:
    """Median seconds of ``repeat`` calls (the result is consumed by the call)."""
    samples = []
    for _ in range(repeat):
        start = clock()
        function()
        samples.append(clock() - start)
    return median(samples)


class Tracer:
    """In-memory spans, written out as JSON lines when the run ends.

    One span per layer boundary the benchmark crosses: ``name`` (a layer
    name from ``layers.py``), ``start``/``end`` in seconds since the
    tracer was made, ``parent`` (span id or ``None``), and the ``op_id``
    every span of one operation shares.  A layer's self time is its
    span minus the part its children cover (:meth:`self_times`).
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._origin = clock()
        self.op_id = -1

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[dict[str, Any]]:
        record: dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op_id": self.op_id,
            "workload": self.workload,
            **attributes,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = clock() - self._origin
        try:
            yield record
        finally:
            record["end"] = clock() - self._origin
            self._stack.pop()

    @contextmanager
    def op(self, key: str) -> Iterator[dict[str, Any]]:
        """The root span of one operation; allots the next ``op_id``."""
        self.op_id += 1
        with self.span("op", key=key) as record:
            yield record

    def durations(self, name: str, **where: Any) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in where.items())
        ]

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name (span minus its children)."""
        child_total = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_total[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_total[s["id"]]
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
