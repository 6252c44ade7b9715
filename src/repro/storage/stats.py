"""Instrumentation counters for the storage, pattern and query layers.

The paper's optimization argument (§4 "Why Split?") is about *work
avoided*: an index on a cheap anchor predicate "drastically narrows the
search space".  1995 wall-clocks are gone, but the narrowing itself is
directly observable: we count predicate evaluations, nodes scanned and
index probes, and the benchmark harness reports both counters and time.

Three mechanisms cooperate here:

* :class:`Instrumentation` — a thread-safe bag of named counters, the
  sink a :class:`~repro.storage.database.Database` owns.  ``scope()``
  isolates a measurement (counters start at zero inside, the previous
  values are restored on exit), replacing the fragile
  ``reset()``-and-hope pattern benchmarks used to rely on.
* **Attribution frames** — while the interpreter evaluates a plan node
  it registers that operator's :class:`~repro.query.metrics`
  sink via :meth:`Instrumentation.attribute_to`; every ``bump`` is then
  *also* credited to the innermost active operator, which is how
  ``EXPLAIN ANALYZE`` knows which operator caused which probe.
* :func:`emit` / :func:`emit_many` — module-level hooks for layers that
  have no database handle (the pattern engines).  A sink receives those
  events only while :meth:`Instrumentation.activated` is in effect,
  which the interpreter guarantees during plan evaluation.

Counter vocabulary (see EXPERIMENTS.md for the full glossary):
``predicate_evals``, ``nodes_scanned``, ``positions_scanned``,
``objects_scanned``, ``index_probes``, ``index_candidates``,
``index_builds``, ``full_scans``, ``backtrack_steps``,
``dfa_cache_hits``, ``dfa_cache_misses``, ``dfa_cache_evictions``.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Protocol


class CounterSink(Protocol):
    """Anything counter events can be credited to (duck-typed)."""

    counters: Counter


_local = threading.local()


def _active_sinks() -> list["Instrumentation"]:
    sinks = getattr(_local, "sinks", None)
    if sinks is None:
        sinks = _local.sinks = []
    return sinks


def emit(name: str, amount: int = 1) -> None:
    """Credit ``amount`` to every activated instrumentation sink.

    Used by layers with no database handle (pattern engines); a no-op
    unless some :class:`Instrumentation` is :meth:`~Instrumentation.activated`
    on this thread.
    """
    for sink in _active_sinks():
        sink.bump(name, amount)


def receiving() -> bool:
    """Is any sink activated on this thread?  An engine asks before it
    builds a counter batch, so an unobserved run builds none."""
    return bool(getattr(_local, "sinks", None))


def emit_many(counts: Mapping[str, int]) -> None:
    """Credit a batch of counters to every activated sink.

    Engines accumulate plain-int counters in their hot loops and flush
    them here when they hand a match (or a batch) to their consumer,
    keeping per-element overhead at a single integer increment.
    """
    sinks = _active_sinks()
    if not sinks:
        return
    for name, amount in counts.items():
        if amount:
            for sink in sinks:
                sink.bump(name, amount)


class Instrumentation:
    """A thread-safe bag of named counters with attribution hooks.

    Thread model: the counter bag itself is lock-protected and may be
    bumped from any number of threads concurrently, while attribution
    frames, collectors and activation are **thread-local** — each worker
    thread attributes to its own operator stack, so sharing one sink
    across a thread pool is safe but mixes all workers' totals into one
    bag.  Workloads that want per-query isolation give each snapshot its
    own sink (``db.snapshot(stats=Instrumentation())``) and fold the
    results together afterwards with :meth:`merge`.
    """

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self._lock = threading.RLock()
        self._frames = threading.local()

    # -- core counting -----------------------------------------------------

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount
        frames = getattr(self._frames, "stack", None)
        if frames:
            frames[-1].counters[name] += amount

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
        """Fold another sink's counters into this one.

        The concurrent serving path gives each pinned snapshot its own
        private sink (so parallel queries never interleave attribution
        frames); after the futures resolve, a harness merges the
        per-worker sinks back into the database's own for one combined
        report.  Thread-safe on both sides — ``other`` is snapshotted
        first, then folded in under this sink's lock.
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

    @contextmanager
    def attribute_to(self, sink: CounterSink) -> Iterator[None]:
        """Credit bumps on this thread to ``sink`` while the block runs.

        Frames nest; only the innermost frame is credited, so operator
        counters are *exclusive* (a parent does not re-count its
        children's work).
        """
        stack = getattr(self._frames, "stack", None)
        if stack is None:
            stack = self._frames.stack = []
        stack.append(sink)
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def collecting(self, collector: Any) -> Iterator[None]:
        """Install a per-operator collector (a
        :class:`~repro.query.metrics.PlanMetrics`) for this thread.

        The interpreter consults :attr:`collector` on every node it
        evaluates, so installing one turns a plain ``evaluate`` into an
        instrumented run without changing any call signatures.
        """
        previous = getattr(self._frames, "collector", None)
        self._frames.collector = collector
        try:
            yield
        finally:
            self._frames.collector = previous

    @property
    def collector(self) -> Any:
        return getattr(self._frames, "collector", None)

    @contextmanager
    def activated(self) -> Iterator["Instrumentation"]:
        """Receive :func:`emit` events from engine layers on this thread.

        Idempotent: re-entering with the same sink already active is a
        no-op, so recursive plan evaluation costs one list lookup.
        """
        sinks = _active_sinks()
        if self in sinks:
            yield self
            return
        sinks.append(self)
        try:
            yield self
        finally:
            sinks.remove(self)

    # -- predicate wrapping -------------------------------------------------

    def counting(
        self, predicate: Callable[[Any], bool], name: str = "predicate_evals"
    ) -> Callable[[Any], bool]:
        """Wrap ``predicate`` so each evaluation bumps ``name``."""

        def counted(obj: Any) -> bool:
            self.bump(name)
            return predicate(obj)

        # Preserve opacity/decomposition attributes when wrapping an
        # alphabet-predicate for counting-only purposes.
        for attribute in ("describe", "conjuncts", "indexable_terms", "attributes"):
            if hasattr(predicate, attribute):
                setattr(counted, attribute, getattr(predicate, attribute))
        return counted

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.snapshot().items()))
        return f"Instrumentation({inner})"


#: A process-wide default instrumentation sink; benchmarks typically make
#: their own instance (or use ``scope()``), but casual measurements can
#: use this one.
GLOBAL_STATS = Instrumentation()
