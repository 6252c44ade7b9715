"""Per-operator runtime metrics for plan execution (EXPLAIN ANALYZE).

A :class:`PlanMetrics` registry holds one :class:`OperatorMetrics` per
plan node, keyed by the node's *path* — the tuple of child indexes from
the plan root (``()`` is the root, ``(0,)`` its first child, …).  Paths
identify operators positionally, so two structurally equal nodes at
different places in the plan get separate metrics.

Each physical operator gets its record from :meth:`PlanMetrics.register`
at ``open()`` and feeds it per pull (``PhysicalOp.next_batch()``):

* the run's counter events (index probes, predicate evaluations, engine
  counters flushed via :func:`repro.context.emit_many`) are added
  to the :attr:`OperatorMetrics.counters` of the operator whose
  generator is running — plain ints, through the run's
  :class:`~repro.storage.stats.RunCounters` — exclusively, i.e. a parent
  does not re-count its children's work;
* wall time is measured (inclusive of children; :meth:`self_seconds`
  subtracts them back out);
* the operator's output cardinality grows with every row it yields.

The registration table is lock-guarded; attribution lives on the run's
own counters (one execution, one thread), so concurrent evaluations
against one database do not corrupt each other's attribution.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaMultiset, AquaSet
from ..core.aqua_tree import AquaTree

#: Path of a plan node: child indexes from the root (root = ``()``).
Path = tuple[int, ...]


def cardinality(value: Any) -> int:
    """How many "rows" a value contributes as an operator's output.

    Sets and lists count members, trees count nodes (the unit the §4
    narrowing argument is about), everything else is one row.
    """
    if isinstance(value, AquaTree):
        return value.size()
    if isinstance(value, (AquaSet, AquaMultiset, AquaList)):
        return len(value)
    return 1


@dataclass
class OperatorMetrics:
    """What one plan operator actually did during evaluation."""

    path: Path
    head: str
    counters: Counter = field(default_factory=Counter)
    rows_out: int | None = None
    wall_seconds: float = 0.0  # inclusive of children
    calls: int = 0
    #: Largest number of rows this operator held materialized at once:
    #: only buffers it actually accumulates (tree select / intersect /
    #: difference buffers and the result sink), never rows streamed
    #: straight through to the parent.
    peak_buffered: int = 0
    #: Durable observations about this operator ("misestimate" when
    #: EXPLAIN ANALYZE flagged its row estimate).  OR-ed by :meth:`
    #: PlanMetrics.merge`, so a flag raised by any run survives
    #: aggregation.
    flags: set = field(default_factory=set)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record (benchmark harness output)."""
        record = {
            "path": list(self.path),
            "operator": self.head,
            "rows_out": self.rows_out,
            "wall_seconds": self.wall_seconds,
            "calls": self.calls,
            "peak_buffered": self.peak_buffered,
            "counters": dict(self.counters),
        }
        if self.flags:
            record["flags"] = sorted(self.flags)
        return record


class PlanMetrics:
    """Registry of per-operator metrics for one plan evaluation."""

    def __init__(self) -> None:
        self.operators: dict[Path, OperatorMetrics] = {}
        self._lock = threading.Lock()

    # -- collection ---------------------------------------------------------

    def register(self, path: Path, head: str) -> OperatorMetrics:
        """Get-or-create the record for a physical operator at ``path``.

        Operators call this once per ``open()`` (each call counts as
        one ``calls``); counters and wall time are then fed by
        ``PhysicalOp.next_batch()``, which points the run's counters at this
        record for the length of each pull.
        """
        with self._lock:
            op = self.operators.get(path)
            if op is None:
                op = self.operators[path] = OperatorMetrics(path, head)
        op.calls += 1
        return op

    @staticmethod
    def note_buffered(op: OperatorMetrics, buffered: int) -> None:
        """Record that ``op`` currently holds ``buffered`` rows in memory."""
        if buffered > op.peak_buffered:
            op.peak_buffered = buffered

    def merge(self, other: "PlanMetrics") -> "PlanMetrics":
        """Fold another registry into this one, path by path, as if the
        two runs had been one sequential run.

        Counters, ``rows_out``, ``calls`` and wall times sum (work done
        is work done); ``peak_buffered`` takes the max (the registry
        tracks the largest single buffer, not their total); ``flags`` OR
        together so a misestimate observed by either run survives.
        Nothing in the engine folds registries — each execution owns
        one — so this is a tool for callers that aggregate repeated
        runs themselves.
        """
        with self._lock:
            for path, theirs in sorted(other.operators.items()):
                mine = self.operators.get(path)
                if mine is None:
                    mine = self.operators[path] = OperatorMetrics(path, theirs.head)
                mine.counters.update(theirs.counters)
                if theirs.rows_out is not None:
                    mine.rows_out = (mine.rows_out or 0) + theirs.rows_out
                mine.calls += theirs.calls
                mine.peak_buffered = max(mine.peak_buffered, theirs.peak_buffered)
                mine.wall_seconds += theirs.wall_seconds
                mine.flags |= theirs.flags
        return self

    def peak_intermediate(self) -> int:
        """The largest per-operator resident buffer seen during the run.

        This is the quantity the §4 pipelining argument is about:
        evaluating operator by operator would make the peak the largest
        operator output anywhere in the plan, while the pipeline's is
        only what it truly accumulated (typically just the final result
        sink).
        """
        return max(
            (op.peak_buffered for op in self.operators.values()), default=0
        )

    # -- reporting ----------------------------------------------------------

    def __getitem__(self, path: Path) -> OperatorMetrics:
        return self.operators[path]

    def get(self, path: Path) -> OperatorMetrics | None:
        return self.operators.get(path)

    def children_of(self, path: Path) -> list[OperatorMetrics]:
        return [
            op
            for p, op in sorted(self.operators.items())
            if len(p) == len(path) + 1 and p[: len(path)] == path
        ]

    def self_seconds(self, path: Path) -> float:
        """Wall time spent in the operator itself, children excluded."""
        op = self.operators[path]
        return max(
            0.0,
            op.wall_seconds - sum(c.wall_seconds for c in self.children_of(path)),
        )

    def rows_in(self, path: Path) -> int | None:
        """Input cardinality: the children's combined output (None for sources)."""
        children = self.children_of(path)
        if not children:
            return None
        if any(c.rows_out is None for c in children):
            return None
        return sum(c.rows_out or 0 for c in children)

    def total(self, name: str) -> int:
        """A counter summed over all operators."""
        return sum(op.counters[name] for op in self.operators.values())

    def totals(self) -> dict[str, int]:
        merged: Counter = Counter()
        for op in self.operators.values():
            merged.update(op.counters)
        return dict(merged)

    def to_records(self) -> list[dict[str, Any]]:
        """JSON-ready per-operator records, root first."""
        return [op.to_dict() for _, op in sorted(self.operators.items())]

    def __repr__(self) -> str:
        return f"PlanMetrics({len(self.operators)} operators, {self.totals()})"
