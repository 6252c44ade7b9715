"""EXPLAIN for query plans: estimates, and EXPLAIN ANALYZE: actuals.

``explain(expr, db)`` renders a plan the way database shells do::

    flatten  (cost≈12, total≈152)
      sapply[per_subtree]  (cost≈10, total≈140)
        split[d]  (cost≈120, total≈130)
          root(T)  (cost≈1, size≈15)

Costs come from the optimizer's :class:`~repro.optimizer.cost.CostModel`
(abstract predicate-evaluation units); sizes are the model's input-size
estimates, exact when the source is a bound root or literal.
``explain_diff`` renders the before/after story of an optimization run,
including the rewrite trace.

``explain_analyze(expr, db)`` *runs* the plan through the instrumented
executor and prints estimated vs. actual columns per operator — rows,
cost units and wall time — plus the counters each operator caused
(index probes, predicate evaluations, pattern-engine work).  Operators
whose row estimate is off by more than ``MISESTIMATE_FACTOR`` are
flagged, which is how a mispriced rewrite shows itself at runtime.

Plan lines render each node's :meth:`~repro.plan.expr.Expr.head` —
built structurally from the node's own fields, never by excising child
text from ``describe()`` strings (the old string surgery silently
corrupted lines whenever a child's rendering occurred inside a pattern
or predicate).
"""

from __future__ import annotations

from typing import Iterator

from ..optimizer.cost import CostModel, actual_cost_units
from ..optimizer.engine import Optimizer
from ..physical import lower
from ..plan import expr as E
from ..plan.metrics import PlanMetrics
from ..storage.database import Database

#: Estimate/actual row ratio beyond which an operator is flagged.
MISESTIMATE_FACTOR = 10.0


def _node_line(node: E.Expr, model) -> str:
    local = model.local_cost(node)
    total = model.cost(node)
    if isinstance(node, (E.Root, E.Extent, E.Literal)):
        size = model.input_size(node)
        return f"{node.head()}  (cost≈{local:.0f}, size≈{size:.0f})"
    return f"{node.head()}  (cost≈{local:.0f}, total≈{total:.0f})"


def explain(expr: E.Expr, db: Database, indent: int = 0) -> str:
    """Render ``expr`` as an indented plan tree with cost annotations."""
    model = CostModel(db)
    lines: list[str] = []

    def walk(node: E.Expr, depth: int) -> None:
        lines.append("  " * depth + _node_line(node, model))
        for child in node.children():
            walk(child, depth + 1)

    walk(expr, indent)
    return "\n".join(lines)


def explain_physical(
    expr: E.Expr,
    db: Database,
    indent: int = 0,
    *,
    choose_access_paths: bool = True,
) -> str:
    """Render the lowered physical pipeline for ``expr``.

    One line per streaming operator — its physical name plus the access
    path the lowering chose (full scan, index probe, shift-AND pass) —
    indented to mirror the logical tree it was lowered from.  Access
    paths are chosen by default (that is what an optimized execution
    runs); pass ``choose_access_paths=False`` to see the plain
    structure-mirroring lowering instead.
    """
    plan = lower(expr, db, choose_access_paths=choose_access_paths)
    pad = "  " * indent
    return "\n".join(pad + line for line in plan.render().splitlines())


def explain_optimization(expr: E.Expr, db: Database) -> str:
    """The full before/after story: logical plan, rewrites, physical plan."""
    plan, trace = Optimizer(db).optimize(expr)
    parts = [
        "Logical plan:",
        explain(expr, db, indent=1),
        "",
        "Rewrites:",
    ]
    if trace.steps:
        parts.extend(f"  {step}" for step in trace.steps)
    else:
        parts.append("  (none applied)")
    parts.extend(
        [
            "",
            f"Physical plan (cost {trace.initial_cost:.0f} → {trace.final_cost:.0f}):",
            explain(plan, db, indent=1),
            "",
            "Lowered pipeline:",
            explain_physical(plan, db, indent=1),
        ]
    )
    return "\n".join(parts)


# -- EXPLAIN ANALYZE ----------------------------------------------------------


def _walk_paths(node: E.Expr, path: tuple[int, ...] = ()) -> Iterator[
    tuple[tuple[int, ...], E.Expr]
]:
    yield path, node
    for index, child in enumerate(node.children()):
        yield from _walk_paths(child, (*path, index))


def _flag(estimated: float, actual: int | None) -> str:
    if actual is None:
        return ""
    low, high = sorted((max(estimated, 1.0), float(max(actual, 1))))
    if high / low > MISESTIMATE_FACTOR:
        return f"  ⚠ rows {high / low:.0f}× off"
    return ""


def render_analysis(
    expr: E.Expr,
    db: Database,
    metrics: PlanMetrics,
    *,
    timings: bool = True,
) -> str:
    """Render the estimated-vs-actual plan tree for collected metrics.

    Split from :func:`explain_analyze` so tests can render
    deterministically (``timings=False`` drops the wall-time column) and
    so callers that already ran :func:`~repro.query.interpreter
    .evaluate_with_metrics` need not evaluate twice.
    """
    model = CostModel(db)
    lines: list[str] = []
    for path, node in _walk_paths(expr):
        op = metrics.get(path)
        estimated_rows = model.estimated_rows(node)
        estimated_cost = model.local_cost(node)
        indent = "  " * len(path)
        if op is None:
            lines.append(
                f"{indent}{node.head()}  (est rows≈{estimated_rows:.0f},"
                f" cost≈{estimated_cost:.0f} | never executed)"
            )
            continue
        actual = f"act rows={op.rows_out}" if op.rows_out is not None else "act rows=?"
        units = actual_cost_units(op.counters)
        time_part = (
            f", time={metrics.self_seconds(path) * 1e3:.1f}ms" if timings else ""
        )
        flag = _flag(estimated_rows, op.rows_out)
        if flag:
            # Persist the observation on the record itself so merges
            # of repeated runs OR it forward.
            op.flags.add("misestimate")
        lines.append(
            f"{indent}{node.head()}  (est rows≈{estimated_rows:.0f},"
            f" cost≈{estimated_cost:.0f} | {actual},"
            f" units={units:.0f}{time_part})"
            f"{flag}"
        )
        counters = ", ".join(
            f"{name}={value}" for name, value in sorted(op.counters.items()) if value
        )
        if counters:
            lines.append(f"{indent}  · {counters}")
    return "\n".join(lines)


def explain_analyze(
    expr: E.Expr, db: Database, *, timings: bool = True
) -> str:
    """Run ``expr`` through the instrumented executor and render the plan
    with estimated vs. actual rows, cost units and per-operator time."""
    # explain ↔ session: a session renders its EXPLAIN with this module.
    from .interpreter import evaluate_with_metrics

    _, metrics = evaluate_with_metrics(expr, db)
    return render_analysis(expr, db, metrics, timings=timings)


#: The planning-side counters the footer renders, in display order.
PLANNING_COUNTERS = (
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_invalidations",
    "plan_cache_replans",
    "optimizer_rewrites",
    "pattern_compilations",
)


def render_planning(planning) -> str:
    """The one-line planning footer for EXPLAIN ANALYZE.

    ``planning`` is the :class:`~repro.storage.stats.Instrumentation`
    sink credited around ``prepare()`` — a warm plan cache
    renders ``plan_cache_hits=1`` with every other counter at zero.
    """
    parts = " ".join(f"{name}={planning[name]}" for name in PLANNING_COUNTERS)
    return f"planning: {parts}"
