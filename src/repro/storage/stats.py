"""Instrumentation counters for the storage, pattern and query layers.

The paper's optimization argument (§4 "Why Split?") is about *work
avoided*: an index on a cheap anchor predicate "drastically narrows the
search space".  1995 wall-clocks are gone, but the narrowing itself is
directly observable: we count predicate evaluations, nodes scanned and
index probes, and the benchmark harness reports both counters and time.

Two mechanisms live here:

* :class:`Instrumentation` — a thread-safe bag of named counters, the
  sink a :class:`~repro.storage.database.Database` owns.  ``scope()``
  isolates a measurement (counters start at zero inside, the previous
  values are restored on exit), replacing the fragile
  ``reset()``-and-hope pattern benchmarks used to rely on.
* :class:`RunCounters` — the counters one plan execution owns: plain
  ints in a dict, added to with no lock by the thread running the plan.
  While ``EXPLAIN ANALYZE`` collects, the operator whose ``next_batch()`` is
  running also has its own counters credited (:attr:`RunCounters.operator`),
  which is how it knows which operator caused which probe.  The run folds
  into its sink once, when the plan closes — after the last row, on a
  budget trip, before the pool hands the result back — under the sink's
  lock: one lock take per run, not one per counted event.

Layers with no database handle count through :func:`repro.context.emit`,
which credits the receivers of the thread's query context: a running
plan's :class:`RunCounters`, or a sink a caller credits.

Counter vocabulary (see EXPERIMENTS.md for the full glossary):
``predicate_evals``, ``nodes_scanned``, ``positions_scanned``,
``objects_scanned``, ``index_probes``, ``index_candidates``,
``index_builds``, ``full_scans``, ``backtrack_steps``.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, Mapping


class Instrumentation:
    """A thread-safe bag of named counters.

    Thread model: the bag is lock-protected, so any number of threads may
    bump it or fold into it at once.  Plan executions do not bump it per
    event: each run counts into its own :class:`RunCounters` (plain ints,
    owned by the one thread running the plan), and :meth:`merge` folds
    them in here once, when the plan closes.  Sharing one sink across a pool
    therefore costs one lock take per query and mixes all workers'
    totals into one bag; workloads that want per-query isolation give
    each snapshot its own sink (``db.snapshot(stats=Instrumentation())``)
    and fold the results together afterwards with :meth:`merge`.
    """

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self._lock = threading.Lock()

    @property
    def sink(self) -> "Instrumentation":
        """The bag a receiver's counts end up in (itself, for a sink)."""
        return self

    # -- core counting -----------------------------------------------------

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def add_many(self, counts: Mapping[str, int]) -> None:
        """Credit a batch under one lock take (zero amounts skipped)."""
        with self._lock:
            for name, amount in counts.items():
                if amount:
                    self.counters[name] += amount

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self.counters[name]

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counters)

    def merge(self, other: "Instrumentation | Mapping[str, int]") -> None:
        """Fold another sink's counters (or a run's) into this one.

        Every plan execution ends here: its :class:`RunCounters` fold in
        once, when the plan closes.  A harness that gave each pinned
        snapshot a private sink merges those back the same way.
        Thread-safe on both sides — ``other`` is snapshotted first, then
        folded in under this sink's lock.
        """
        counts = other.snapshot() if isinstance(other, Instrumentation) else other
        with self._lock:
            for name, amount in counts.items():
                self.counters[name] += amount

    # -- scoping -----------------------------------------------------------

    @contextmanager
    def scope(self) -> Iterator["Instrumentation"]:
        """Run a measurement in isolation.

        Counters read zero on entry; whatever the block accumulates is
        visible inside it; the pre-existing values are restored on exit,
        so nothing leaks across benchmarks that share a sink (the old
        failure mode of forgetting ``reset()`` on ``GLOBAL_STATS``).
        """
        with self._lock:
            saved = dict(self.counters)
            self.counters.clear()
        try:
            yield self
        finally:
            with self._lock:
                self.counters.clear()
                self.counters.update(saved)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.snapshot().items()))
        return f"Instrumentation({inner})"


class RunCounters:
    """The counters one plan execution owns: plain ints, no lock.

    Only the thread running the plan adds to them — the operators
    directly (:meth:`bump`), the engines through
    :func:`repro.context.emit` while the run's context lists them as a
    receiver (in place of their sink, so each event reaches it once).  While
    ``EXPLAIN ANALYZE`` collects, ``PhysicalOp.next_batch()`` points
    :attr:`operator` at the pulling operator's counters for the length of
    the pull, so each event is credited to the innermost operator too
    (exclusive counts: a parent does not re-count its children's work).
    :meth:`fold` hands the totals to :attr:`sink` in one lock take.
    """

    __slots__ = ("sink", "counts", "operator")

    def __init__(self, sink: Instrumentation) -> None:
        self.sink = sink
        self.counts: Counter = Counter()
        #: The running operator's counters, or ``None`` when no operator
        #: is collected (or none is pulling).
        self.operator: Counter | None = None

    def bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount
        operator = self.operator
        if operator is not None:
            operator[name] += amount

    def add_many(self, counts: Mapping[str, int]) -> None:
        own, operator = self.counts, self.operator
        for name, amount in counts.items():
            if amount:
                own[name] += amount
                if operator is not None:
                    operator[name] += amount

    def fold(self) -> None:
        """Hand the run's counts to the sink and start again from zero."""
        if self.counts:
            self.sink.merge(self.counts)
            self.counts = Counter()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"RunCounters({inner})"


#: A process-wide default instrumentation sink; benchmarks typically make
#: their own instance (or use ``scope()``), but casual measurements can
#: use this one.
GLOBAL_STATS = Instrumentation()
