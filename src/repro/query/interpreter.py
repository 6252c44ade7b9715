"""Query evaluation: the function-style entry points.

Gives semantics to :mod:`repro.plan.expr` nodes against a
:class:`~repro.storage.Database`.  There is one execution path: the
expression is lowered to a Volcano-style physical plan
(:mod:`repro.physical`) and rows are pulled through
``open()/next_batch()/close()`` pipelines.  Budgets are ticked on every pull,
so a ``max_nodes_scanned`` or ``max_results`` limit trips mid-stream
instead of after an operator materialized its whole output, and every
predicate evaluation is counted — in the run's own counters, folded
into the database's :class:`~repro.storage.Instrumentation` sink when
the plan closes — so plans can be compared by work as well as by
wall-clock.

The reference semantics the pipeline is property-tested against is the
paper's own operator definitions in :mod:`repro.algebra`, composed by
the plain recursive evaluator in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..guardrails import Budget
from ..plan import expr as E
from ..plan.metrics import PlanMetrics
from ..storage.database import Database
from .session import default_session


def evaluate(
    node: E.Expr,
    db: Database,
    budget: Budget | None = None,
    params: "Mapping[str, Any] | None" = None,
) -> Any:
    """Evaluate a query expression against ``db``.

    ``db`` may be a :class:`~repro.storage.Database` or a pinned
    :class:`~repro.storage.snapshot.DatabaseSnapshot` — operators resolve
    roots, extents and indexes through the view at runtime, so a snapshot
    evaluates exactly as the base did at pin time.

    A thin wrapper over the default :class:`~repro.query.session.Session`: the
    expression is prepared (planned once, served from the process-wide
    plan cache on repeats — lazily invalidated when any of the plan's
    per-resource version counters move) and executed.  The guard, the
    run's counters and the tree-match registry are armed **once** per
    run and threaded through the pipeline; :func:`evaluate_with_metrics`
    also hands the run a :class:`~repro.plan.metrics.PlanMetrics`,
    filled by per-pull accounting in ``PhysicalOp.next_batch()``.

    A tripped limit raises
    :class:`~repro.errors.ResourceExhaustedError` annotated with the
    operator being evaluated and, during an instrumented run, the
    partial :class:`~repro.plan.metrics.PlanMetrics`.
    """
    return default_session(db).query(node, params, budget=budget)


def evaluate_with_metrics(
    expr: E.Expr,
    db: Database,
    metrics: PlanMetrics | None = None,
    budget: Budget | None = None,
    params: "Mapping[str, Any] | None" = None,
) -> tuple[Any, PlanMetrics]:
    """Evaluate ``expr`` collecting per-operator runtime metrics.

    Returns ``(result, metrics)`` where ``metrics`` holds one
    :class:`~repro.plan.metrics.OperatorMetrics` record per plan node:
    output cardinality, wall time, and the counters (index probes,
    predicate evaluations, pattern-engine work) attributable to that
    operator alone.  On a budget trip the raised
    :class:`~repro.errors.ResourceExhaustedError` carries the same
    (partial) ``metrics`` object, so callers can render what ran.
    """
    return default_session(db).query_with_metrics(
        expr, params, budget=budget, metrics=metrics
    )
