"""The physical-operator substrate: Volcano-style streaming execution.

The logical algebra (:mod:`repro.plan.expr`) says *what* a query means;
this layer says *how* it runs.  Each logical node lowers
(:mod:`repro.physical.lower`) to one :class:`PhysicalOp` — an iterator
with the classic ``open() / next_batch() / close()`` lifecycle, backed
by a Python generator of row batches — and execution pulls batches
from the plan root.  The
payoff is the paper's §4 pipelining argument made concrete: a
``sub_select`` no longer materializes its full result set before its
parent sees the first subtree, so peak intermediate cardinality drops
from "largest operator output anywhere in the plan" to "what the plan
truly buffers" (the final result sink, plus the explicit buffers of
:class:`~repro.physical.operators.IntersectPipe` /
:class:`~repro.physical.operators.DiffPipe` /
:class:`~repro.physical.operators.TreeSelectOp`).

Execution semantics are those of the :mod:`repro.algebra` operator
definitions, which ``tests/reference.py`` composes into the reference
evaluator the pipeline is property-tested against:

* row order and deduplication follow the AQUA collection types exactly —
  set-shaped streams are deduplicated *at the producer* under the same
  :class:`~repro.core.equality.Equality` notion the algebra function's
  ``AquaSet`` result carries, and the notion is threaded through
  select/apply/union/… with the same inheritance rules;
* instrumentation counters are credited to the operator that did the
  work (the matchers flush their counters once per batch of matches
  handed to the operator, and at stream end, and a match stream runs
  only inside its operator's ``next_batch()``, so mid-stream attribution
  credits the pulling operator); they are the run's own plain ints
  (:class:`~repro.storage.stats.RunCounters`), which the engines reach
  through :func:`repro.context.emit` and which fold into the database's
  sink once, when the plan closes;
* rows are handed over in batches of up to :data:`BATCH`, and the
  per-pull bookkeeping (guard tick, row count, ``max_results`` check,
  EXPLAIN ANALYZE timer, counter attribution) runs once per batch with
  its totals — the block-at-a-time cure for per-tuple interpretation
  cost;
* the active :class:`~repro.guardrails.Guard` is ticked one step per
  row handed over (plus one for the exhausting pull) and storage scans
  charge it row by row.  While the guard arms a limit a row can trip
  (anything but the deadline and the cancellation token), a batch is
  one row and its pull is charged before it runs, so budgets trip
  *mid-stream* on the same row, spent value and operator as a
  row-at-a-time pull would.

Shapes: every operator declares how its rows relate to its AQUA value —
``"set"`` streams members (reassembled as ``AquaSet(rows, equality)``),
``"list"`` streams cells (reassembled as ``AquaList(cells)``), and
``"value"`` yields exactly one row (trees, roots, literals).  Sources
yield *references* to stored values, which is why they do not count as
buffers; operators that construct a materialized value record it via
:meth:`~repro.plan.metrics.PlanMetrics.note_buffered`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Any, Iterable, Iterator

from .. import context
from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaSet
from ..core.aqua_tree import AquaTree
from ..core.equality import DEFAULT, Equality
from ..errors import QueryError, ResourceExhaustedError
from ..guardrails import Guard
from ..plan import expr as E
from ..plan.metrics import OperatorMetrics, PlanMetrics, cardinality
from ..storage.database import Database
from ..storage.stats import RunCounters

#: Rows an operator hands over per pull (a module constant, not a knob).
BATCH = 256


def batch_size(guard: Guard | None) -> int:
    """:data:`BATCH`, or 1 while ``guard`` arms a limit a row can trip.

    Under ``max_steps``, ``max_results``, ``max_nodes_scanned`` or
    ``max_backtrack_depth`` every row is its own pull, so a trip lands
    where the row-at-a-time pull put it; a deadline or a cancellation
    token is noticed within a batch.
    """
    if guard is None:
        return BATCH
    budget = guard.budget
    limits = (
        budget.max_steps,
        budget.max_results,
        budget.max_nodes_scanned,
        budget.max_backtrack_depth,
    )
    return 1 if any(limit is not None for limit in limits) else BATCH


def chunked(rows: Iterable[Any], size: int) -> Iterator[list[Any]]:
    """``rows`` in lists of ``size`` (the last one shorter), none empty."""
    rows = iter(rows)
    while batch := list(islice(rows, size)):
        yield batch


@dataclass
class ExecutionContext:
    """Everything one plan execution shares across its operators.

    Built once by the driver (:meth:`repro.query.prepare.PreparedQuery.run`)
    and handed to every operator at ``open()``, so the guard is read
    once per query, not per node.  ``counters`` are the run's own plain
    ints (by default counting into ``db.stats``): operators bump them
    directly, the engines reach them through :func:`repro.context.emit`
    (:meth:`PhysicalPlan.execute` lists them as a receiver of the run's
    :class:`~repro.context.QueryContext`), and they fold into their sink
    once, when the plan closes.  ``batch`` is the run's batch size
    (:func:`batch_size` of the guard).
    """

    db: Database
    guard: Guard | None = None
    metrics: PlanMetrics | None = None
    counters: RunCounters | None = None
    batch: int = field(init=False)

    def __post_init__(self) -> None:
        if self.counters is None:
            self.counters = RunCounters(self.db.stats)
        self.batch = batch_size(self.guard)


class PhysicalOp:
    """One streaming operator: ``open() / next_batch() / close()``.

    Subclasses implement :meth:`batches` — a generator producing the
    operator's output as non-empty lists of rows — or :meth:`rows`, one
    row at a time, which the default :meth:`batches` chunks; either way
    they declare :attr:`shape`.  The base class wraps each generator
    resume with the per-pull bookkeeping, once per batch: guard ticks,
    counter attribution, wall-time and ``rows_out`` accumulation,
    incremental ``max_results`` checks, and budget-trip annotation
    (innermost operator wins).

    **Contract for set-shaped subclasses**: the generator must assign
    ``self.result_equality`` before its first ``yield`` (and before
    returning when it yields nothing), and must deduplicate its own
    output under that notion — consumers rely on set streams being
    duplicate-free, exactly as callers of the algebra rely on ``AquaSet``.
    """

    #: Physical operator name (rendered in the lowered-pipeline view).
    name = "op"
    #: "set" | "list" | "value" — how rows relate to the AQUA value.
    shape = "set"

    def __init__(self, logical: E.Expr, children: tuple["PhysicalOp", ...] = ()) -> None:
        self.logical = logical
        self.children = tuple(children)
        self.path: tuple[int, ...] = ()
        #: Logical nodes from the plan root down; rendered only for an error.
        self.lineage: tuple[E.Expr, ...] = (logical,)
        self.ctx: ExecutionContext | None = None
        self.op_metrics: OperatorMetrics | None = None
        self.result_equality: Equality = DEFAULT
        self._gen: Iterator[list[Any]] | None = None
        self._count = 0

    # -- plan wiring --------------------------------------------------------

    def assign_positions(
        self, path: tuple[int, ...] = (), lineage: tuple[E.Expr, ...] = ()
    ) -> None:
        """Derive each operator's plan path and lineage from the root."""
        self.path = path
        self.lineage = (*lineage, self.logical)
        for index, child in enumerate(self.children):
            child.assign_positions((*path, index), self.lineage)

    # -- lifecycle ----------------------------------------------------------

    def open(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx
        self.result_equality = DEFAULT
        self._count = 0
        if ctx.metrics is not None:
            self.op_metrics = ctx.metrics.register(self.path, self.logical.head())
        for child in self.children:
            child.open(ctx)
        self._gen = self.batches()

    def next_batch(self) -> list[Any]:
        """Pull the next batch of rows; an empty list once exhausted.

        The guard is ticked one step per row handed over, or one for the
        exhausting pull — before the pull, when the run's batch is one
        row, so a step trip lands on the operator it always did.
        """
        ctx = self.ctx
        assert ctx is not None and self._gen is not None, "next_batch() before open()"
        guard = ctx.guard
        try:
            if guard is not None and ctx.batch == 1:
                # A limit is armed and the batch is one row: charge it
                # before the pull runs, as the row-at-a-time pull did.
                guard.tick(ctx.batch, "executor pull")
            op = self.op_metrics
            if op is None:
                batch = next(self._gen, [])
            else:
                # Credit this pull's events to this operator (the one
                # whose generator runs), then hand back to the puller's.
                counters = ctx.counters
                outer, counters.operator = counters.operator, op.counters
                started = time.perf_counter()
                try:
                    batch = next(self._gen, [])
                finally:
                    counters.operator = outer
                    op.wall_seconds += time.perf_counter() - started
            if guard is not None and ctx.batch > 1:
                guard.tick(len(batch) or 1, "executor pull")
            if not batch:
                if op is not None and not self._count:
                    op.rows_out = 0
                return batch
            self._count += len(batch)
            if op is not None:  # EXPLAIN counts a value's nodes, a budget its rows
                op.rows_out = cardinality(batch[-1]) if self.shape == "value" else self._count
            if guard is not None and guard.budget.max_results is not None:
                guard.check_results(self._count, self.logical.head())
            return batch
        except ResourceExhaustedError as exc:
            self._annotate_trip(exc)
            raise

    def close(self) -> None:
        gen, self._gen = self._gen, None
        if gen is not None:
            gen.close()
        for child in self.children:
            child.close()

    def batches(self) -> Iterator[list[Any]]:
        """The output in non-empty batches: by default :meth:`rows` in
        chunks of the run's batch size."""
        return chunked(self.rows(), self.ctx.batch)

    def rows(self) -> Iterator[Any]:
        raise NotImplementedError

    # -- pulling helpers (for subclasses) ------------------------------------

    def stream(self) -> Iterator[Any]:
        """Iterate this operator's rows, pulled a batch at a time."""
        for batch in iter(self.next_batch, []):
            yield from batch

    def collect(self) -> Any:
        """Fully drain this operator into its natural AQUA value."""
        if self.shape == "value":
            rows = list(self.stream())
            if not rows:
                raise QueryError(
                    f"{self.logical.describe()} produced no value"
                    f" (plan path: {self._trail_text()})"
                )
            return rows[0]
        if self.shape == "list":
            return AquaList(list(self.stream()))
        return AquaSet.distinct(list(self.stream()), self.result_equality)

    def set_source(self, child: "PhysicalOp") -> tuple[Iterator[list[Any]], Equality]:
        """``child`` as batches of a deduplicated member stream plus its
        equality.

        A set-shaped child streams directly (its first batch is primed so
        the equality notion — assigned by the child's setup — is known
        even for empty streams).  A value- or list-shaped child is fully
        collected and coerced (a non-set raises the plan-path error).
        """
        if child.shape == "set":
            first = child.next_batch()
            equality = child.result_equality
            if not first:
                return iter(()), equality
            return chain((first,), iter(child.next_batch, [])), equality
        collection = self.as_set(child.collect())
        return chunked(collection, self.ctx.batch), collection.equality

    # -- input coercion (satellite: errors carry the plan path) --------------

    def _trail_text(self) -> str:
        return " → ".join(node.head() for node in self.lineage)

    def _coerce_error(self, expected: str, value: Any) -> QueryError:
        return QueryError(
            f"{self.logical.describe()} expects a {expected} input,"
            f" got {type(value).__name__} (plan path: {self._trail_text()})"
        )

    def as_tree(self, value: Any) -> AquaTree:
        if not isinstance(value, AquaTree):
            raise self._coerce_error("tree", value)
        return value

    def as_list(self, value: Any) -> AquaList:
        if not isinstance(value, AquaList):
            raise self._coerce_error("list", value)
        return value

    def as_set(self, value: Any) -> AquaSet:
        if not isinstance(value, AquaSet):
            raise self._coerce_error("set", value)
        return value

    def input_tree(self) -> AquaTree:
        return self.as_tree(self.children[0].collect())

    def input_list(self) -> AquaList:
        return self.as_list(self.children[0].collect())

    # -- bookkeeping helpers -------------------------------------------------

    def note_buffered(self, buffered: int) -> None:
        """Record a real resident buffer (see ``OperatorMetrics.peak_buffered``)."""
        ctx = self.ctx
        if ctx is not None and ctx.metrics is not None and self.op_metrics is not None:
            ctx.metrics.note_buffered(self.op_metrics, buffered)

    def _annotate_trip(self, exc: ResourceExhaustedError) -> None:
        ctx = self.ctx
        if ctx is not None and ctx.metrics is not None and exc.metrics is None:
            exc.metrics = ctx.metrics
        if exc.plan_path is None:
            exc.plan_path = self.path
            exc.operator = self.logical.head()

    # -- rendering -----------------------------------------------------------

    def access_path(self) -> str:
        """One-line description of the chosen access path, or ''."""
        return ""

    def describe_physical(self) -> str:
        access = self.access_path()
        return f"{self.name}  [{access}]" if access else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.logical.head()}>"


def dedup(batches: Iterable[list[Any]], equality: Equality) -> Iterator[list[Any]]:
    """Stream ``batches`` keeping the first occurrence under ``equality``.

    This is ``AquaSet.add`` as a pipeline stage: set-shaped producers run
    their output through it so consumers see exactly the members the
    algebra function's result set would hold, in the same order.  Each
    row is keyed once; a batch left empty is not handed on.
    """
    seen: set[Any] = set()
    key, add = equality.key, seen.add
    for batch in batches:
        # ``add`` returns None: a row is kept iff its key was unseen.
        kept = [row for row in batch if (k := key(row)) not in seen and not add(k)]
        if kept:
            yield kept


class PhysicalPlan:
    """A lowered plan: the physical operator tree plus its logical source."""

    def __init__(self, root: PhysicalOp, logical: E.Expr) -> None:
        self.root = root
        self.logical = logical
        root.assign_positions()

    def execute(self, ctx: ExecutionContext) -> Any:
        """Drive the plan to completion and assemble the result value.

        The result sink's accumulation is the one buffer a fully
        pipelined plan cannot avoid; it is charged to the root operator
        so ``PlanMetrics.peak_intermediate()`` reflects it.
        """
        counters = ctx.counters
        try:
            with context.entered(receiver=counters):
                return self._drive(ctx)
        finally:
            # The one fold per run — after the last row, on a budget
            # trip or any other error alike — so the sink has every
            # count before the result (or the error) reaches the caller.
            counters.fold()

    def _drive(self, ctx: ExecutionContext) -> Any:
        root = self.root
        root.open(ctx)
        try:
            if root.shape == "value":
                rows = list(root.stream())
                if not rows:
                    raise QueryError(
                        f"{root.logical.describe()} produced no value"
                    )
                return rows[0]
            collected: list[Any] = []
            for batch in iter(root.next_batch, []):
                collected.extend(batch)
                root.note_buffered(len(collected))
            if root.shape == "list":
                return AquaList(collected)
            # Deduplicated by the root (the set-shaped contract above).
            return AquaSet.distinct(collected, root.result_equality)
        finally:
            root.close()

    def render(self) -> str:
        """The lowered pipeline as an indented operator tree."""
        lines: list[str] = []

        def walk(op: PhysicalOp, depth: int) -> None:
            lines.append("  " * depth + op.describe_physical())
            for child in op.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def operators(self) -> Iterator[PhysicalOp]:
        stack = [self.root]
        while stack:
            op = stack.pop()
            yield op
            stack.extend(op.children)

    def __repr__(self) -> str:
        return f"PhysicalPlan({self.root.describe_physical()})"
