"""The physical-operator substrate: Volcano-style streaming execution.

The logical algebra (:mod:`repro.query.expr`) says *what* a query means;
this layer says *how* it runs.  Each logical node lowers
(:mod:`repro.physical.lower`) to one :class:`PhysicalOp` — an iterator
with the classic ``open() / next() / close()`` lifecycle, backed by a
Python generator — and the driver pulls rows from the plan root.  The
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
  work (the matchers flush their counters at hand-over — as each match
  reaches the operator, and at stream end — and the work between two
  hand-overs runs inside one ``next()``, so mid-stream attribution
  credits the pulling operator); they are the run's own plain ints
  (:class:`~repro.storage.stats.RunCounters`), which the engines reach
  through :func:`repro.context.emit` and which fold into the database's
  sink once, when the plan closes;
* the active :class:`~repro.guardrails.Guard` is ticked on every
  ``next()`` pull and storage scans charge it row by row, so budgets
  trip *mid-stream* — before an operator-at-a-time evaluation would even
  have finished materializing the operator's input.

Shapes: every operator declares how its rows relate to its AQUA value —
``"set"`` streams members (reassembled as ``AquaSet(rows, equality)``),
``"list"`` streams cells (reassembled as ``AquaList(cells)``), and
``"value"`` yields exactly one row (trees, roots, literals).  Sources
yield *references* to stored values, which is why they do not count as
buffers; operators that construct a materialized value record it via
:meth:`~repro.query.metrics.PlanMetrics.note_buffered`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterator

from .. import context
from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaSet
from ..core.aqua_tree import AquaTree
from ..core.equality import DEFAULT, Equality
from ..errors import QueryError, ResourceExhaustedError
from ..query.metrics import cardinality
from ..storage.stats import RunCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..guardrails import Guard
    from ..query import expr as E
    from ..query.metrics import OperatorMetrics, PlanMetrics
    from ..storage.database import Database

#: Sentinel distinguishing "stream exhausted" from a legitimate row.
_EXHAUSTED = object()


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
    once, when the plan closes.
    """

    db: "Database"
    guard: "Guard | None" = None
    metrics: "PlanMetrics | None" = None
    counters: RunCounters | None = None

    def __post_init__(self) -> None:
        if self.counters is None:
            self.counters = RunCounters(self.db.stats)


class PhysicalOp:
    """One streaming operator: ``open() / next() / close()``.

    Subclasses implement :meth:`rows` — a generator producing the
    operator's output rows — and declare :attr:`shape`.  The base class
    wraps each generator resume with the per-pull bookkeeping: guard
    ticks, counter attribution, wall-time and ``rows_out``
    accumulation, incremental ``max_results`` checks, and budget-trip
    annotation (innermost operator wins).

    **Contract for set-shaped subclasses**: ``rows()`` must assign
    ``self.result_equality`` before its first ``yield`` (and before
    returning when it yields nothing), and must deduplicate its own
    output under that notion — consumers rely on set streams being
    duplicate-free, exactly as callers of the algebra rely on ``AquaSet``.
    """

    #: Physical operator name (rendered in the lowered-pipeline view).
    name = "op"
    #: "set" | "list" | "value" — how rows relate to the AQUA value.
    shape = "set"

    def __init__(self, logical: "E.Expr", children: tuple["PhysicalOp", ...] = ()) -> None:
        self.logical = logical
        self.children = tuple(children)
        self.path: tuple[int, ...] = ()
        #: Logical nodes from the plan root down; rendered only for an error.
        self.lineage: tuple["E.Expr", ...] = (logical,)
        self.ctx: ExecutionContext | None = None
        self.op_metrics: "OperatorMetrics | None" = None
        self.result_equality: Equality = DEFAULT
        self._gen: Iterator[Any] | None = None
        self._count = 0

    # -- plan wiring --------------------------------------------------------

    def assign_positions(
        self, path: tuple[int, ...] = (), lineage: tuple["E.Expr", ...] = ()
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
        self._gen = self.rows()

    def next(self) -> Any:
        """Pull one row; raises ``StopIteration`` when exhausted."""
        ctx = self.ctx
        assert ctx is not None and self._gen is not None, "next() before open()"
        try:
            if ctx.guard is not None:
                ctx.guard.tick(1, "executor pull")
            op = self.op_metrics
            if op is None:
                try:
                    row = next(self._gen)
                except StopIteration:
                    raise
            else:
                # Credit this pull's events to this operator (the one
                # whose generator runs), then hand back to the puller's.
                counters = ctx.counters
                outer, counters.operator = counters.operator, op.counters
                started = time.perf_counter()
                try:
                    row = next(self._gen)
                except StopIteration:
                    op.wall_seconds += time.perf_counter() - started
                    if not self._count:
                        op.rows_out = 0
                    raise
                except BaseException:
                    op.wall_seconds += time.perf_counter() - started
                    raise
                finally:
                    counters.operator = outer
                op.wall_seconds += time.perf_counter() - started
            self._count += 1
            if op is not None:  # EXPLAIN counts a value's nodes, a budget its rows
                op.rows_out = cardinality(row) if self.shape == "value" else self._count
            guard = ctx.guard
            if guard is not None and guard.budget.max_results is not None:
                guard.check_results(self._count, self.logical.head())
            return row
        except ResourceExhaustedError as exc:
            self._annotate_trip(exc)
            raise

    def close(self) -> None:
        gen, self._gen = self._gen, None
        if gen is not None:
            gen.close()
        for child in self.children:
            child.close()

    def rows(self) -> Iterator[Any]:
        raise NotImplementedError

    # -- pulling helpers (for subclasses) ------------------------------------

    def stream(self) -> Iterator[Any]:
        """Iterate this operator's rows through the instrumented ``next()``."""
        while True:
            try:
                row = self.next()
            except StopIteration:
                return
            yield row

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

    def set_source(self, child: "PhysicalOp") -> tuple[Iterator[Any], Equality]:
        """``child`` as a deduplicated member stream plus its equality.

        A set-shaped child streams directly (its first row is primed so
        the equality notion — assigned by the child's setup — is known
        even for empty streams).  A value- or list-shaped child is fully
        collected and coerced (a non-set raises the plan-path error).
        """
        if child.shape == "set":
            rows = child.stream()
            first = next(rows, _EXHAUSTED)
            equality = child.result_equality
            if first is _EXHAUSTED:
                return iter(()), equality
            return chain((first,), rows), equality
        value = child.collect()
        collection = self.as_set(value)
        return iter(collection), collection.equality

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


def dedup(rows: Iterator[Any], equality: Equality) -> Iterator[Any]:
    """Stream ``rows`` keeping the first occurrence under ``equality``.

    This is ``AquaSet.add`` as a pipeline stage: set-shaped producers run
    their output through it so consumers see exactly the members the
    algebra function's result set would hold, in the same order.
    """
    seen: set[Any] = set()
    for row in rows:
        key = equality.key(row)
        if key in seen:
            continue
        seen.add(key)
        yield row


class PhysicalPlan:
    """A lowered plan: the physical operator tree plus its logical source."""

    def __init__(self, root: PhysicalOp, logical: "E.Expr") -> None:
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
            for row in root.stream():
                collected.append(row)
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
