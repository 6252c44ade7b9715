"""Prepared queries: plan once, execute many times.

``prepare(source, db)`` runs the whole planning pipeline — AQL parse,
optimizer rewrite, pattern compilation, logical→physical lowering — and
captures the result in a :class:`PreparedQuery`: the optimized logical
plan plus the :class:`~repro.physical.lower.PipelineFactory` whose
``instantiate()`` yields a fresh executable pipeline with **no planning
work at all**.  Prepared queries are cached in a
:class:`~repro.query.plan_cache.PlanCache` keyed by the query's
structural fingerprint, so repeated ``prepare`` calls for the same shape
(including repeated AQL text, via the cache's alias table) skip
everything.

Parameterized queries make the cache earn its keep: ``$name`` slots
(:mod:`repro.params`) are part of the plan's *structure*, and the bound
values arrive at :meth:`PreparedQuery.run` — one plan, many bindings.
One guard protects that bargain: the lowering's access-path analysis may
have committed to an index probe on a ``$param`` equality term
(:func:`~repro.optimizer.anchors.tree_split_anchors` presumes an
unbound param servable).  The lowering factory records which slots back
such anchors (``PipelineFactory.anchor_params``), and a binding that
cannot be an index key (an unhashable value) triggers a **re-plan for
that run only** — counted as ``plan_cache_replans`` — planned under the
armed bindings so the binding-aware analysis picks the safe full-scan
shape instead.

Execution semantics are identical to
:func:`repro.query.interpreter.evaluate` (which is a wrapper over this
path) — a cached plan and a freshly planned one give bit-identical
results and counters, which the plan-cache property suite asserts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable, Mapping

from .. import config, guardrails
from ..errors import QueryError
from ..guardrails import Budget
from ..params import bound_params, current_bindings, is_bindable
from ..patterns.tree_memo import match_scope
from ..storage.database import Database
from . import expr as E
from .metrics import PlanMetrics
from .plan_cache import DEFAULT_CACHE, PlanCache, plan_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..physical.lower import PipelineFactory


def _plan_dependencies(expr: E.Expr, plan: E.Expr) -> tuple[str, ...]:
    """The version-map tags this query's validity depends on.

    Every extent and named root the expression (or its optimized plan —
    rewrites can only preserve or drop references, but the union is
    cheap insurance) reads contributes a tag; index create/drop and
    ``analyze`` stamp the extent tag too, so access-path choices are
    covered.  A query that touches no stored resource depends only on
    the blanket tag, which moves on bare ``bump_epoch()`` calls.
    """
    from ..storage.database import GLOBAL_RESOURCE, extent_resource, root_resource

    tags: set[str] = {GLOBAL_RESOURCE}
    for node in list(expr.walk()) + list(plan.walk()):
        if isinstance(node, E.Root):
            tags.add(root_resource(node.name))
        elif isinstance(node, E.Extent):
            tags.add(extent_resource(node.name))
    return tuple(sorted(tags))


def _plan(
    expr: E.Expr, db: Database, optimize: bool
) -> tuple[E.Expr, "PipelineFactory"]:
    """The planning pipeline shared by cold prepares and re-plans.

    ``optimize`` controls both the algebraic rewrite pass and the
    lowering's access-path choice: an optimized prepare commits to index
    anchors / conjunct decompositions in the factory, an unoptimized one
    (the degradation ladder's last rung) mirrors the logical tree.
    """
    from ..optimizer.engine import Optimizer
    from ..physical.lower import lower_factory

    plan = expr
    if optimize:
        plan, _ = Optimizer(db).optimize(expr)
    return plan, lower_factory(plan, db, choose_access_paths=optimize)


class PreparedQuery:
    """An execution-ready query: optimized plan + physical factory.

    Produced by :func:`prepare`; do not construct directly.  ``run()``
    may be called any number of times, with different parameter bindings
    each time.  Instances are immutable from the caller's perspective
    and safe to share across threads (each run instantiates its own
    operator tree).
    """

    def __init__(
        self,
        *,
        expr: E.Expr,
        plan: E.Expr,
        factory: "PipelineFactory",
        db: Database,
        epoch: int,
        optimize: bool,
        fingerprint: Hashable,
        cache: PlanCache | None,
        deps: tuple[str, ...] | None = None,
        dep_versions: tuple[int, ...] | None = None,
    ) -> None:
        self.expr = expr
        self.plan = plan
        self.factory = factory
        self.db = db
        self.epoch = epoch
        self.optimize = optimize
        self.fingerprint = fingerprint
        self.cache = cache
        self.deps = deps if deps is not None else _plan_dependencies(expr, plan)
        self.dep_versions = (
            dep_versions if dep_versions is not None else db.versions(self.deps)
        )
        self.anchor_params = factory.anchor_params
        self.param_slots = frozenset(
            node.name for node in expr.walk() if isinstance(node, E.Param)
        )

    # -- the re-plan guard -----------------------------------------------------

    def _needs_replan(self) -> bool:
        """Does some armed binding break a recorded anchor assumption?"""
        if not self.anchor_params:
            return False
        bindings = current_bindings() or {}
        return any(
            name in bindings and not is_bindable(bindings[name])
            for name in self.anchor_params
        )

    def _factory_for_bindings(self, view: Database) -> "PipelineFactory":
        if not self._needs_replan():
            return self.factory
        # Re-plan under the armed bindings: the binding-aware anchor
        # analysis now sees the unhashable constant and keeps the scan
        # shape.  The result serves this run only — the cached entry
        # stays correct for bindings that honour the assumption.
        if self.cache is not None:
            self.cache.note_replan()
        return _plan(self.expr, view, self.optimize)[1]

    # -- execution -------------------------------------------------------------

    def run(
        self,
        params: Mapping[str, Any] | None = None,
        *,
        budget: Budget | None = None,
        parallel: str | None = None,
        db: Database | None = None,
    ) -> Any:
        """Execute with ``params`` bound; semantics match ``evaluate()``.

        The knob keywords are the same set :meth:`repro.api.Session.query`
        and :meth:`repro.api.SessionPool.submit` take — ``budget``
        overrides the session/env/default resolution for this run only;
        ``parallel`` is validated and has no effect (see
        :func:`repro.config.validated_parallel`).  ``db`` overrides the
        execution *view*: operators resolve roots, extents and indexes at
        runtime through the context database, so a plan prepared against
        one view (and served from the shared cache) executes correctly
        against another — in particular against a pinned
        :class:`~repro.storage.snapshot.DatabaseSnapshot` of the same
        base database.
        """
        config.validated_parallel(parallel)
        return self._execute(params, budget, db, None)

    def run_with_metrics(
        self,
        params: Mapping[str, Any] | None = None,
        *,
        metrics: PlanMetrics | None = None,
        budget: Budget | None = None,
        parallel: str | None = None,
        db: Database | None = None,
    ) -> tuple[Any, PlanMetrics]:
        """Like :meth:`run`, collecting per-operator runtime metrics."""
        config.validated_parallel(parallel)
        metrics = metrics if metrics is not None else PlanMetrics()
        return self._execute(params, budget, db, metrics), metrics

    def _execute(
        self,
        params: Mapping[str, Any] | None,
        budget: Budget | None,
        db: Database | None,
        metrics: PlanMetrics | None,
    ) -> Any:
        from ..physical import ExecutionContext

        view = db if db is not None else self.db
        with bound_params(params):
            factory = self._factory_for_bindings(view)
            with guardrails.guarded(budget) as guard, match_scope():
                ctx = ExecutionContext(
                    db=view, guard=guard, metrics=metrics, stats=view.stats
                )
                return factory.instantiate().execute(ctx)

    def describe(self) -> str:
        return self.plan.describe()

    def __repr__(self) -> str:
        slots = ", ".join(sorted(self.param_slots)) or "none"
        return (
            f"PreparedQuery<{self.plan.describe()};"
            f" params: {slots}; epoch {self.epoch}>"
        )


def _as_expr(source: Any) -> E.Expr:
    """Coerce a prepare/query source (Expr | Q | AQL already handled)."""
    if isinstance(source, E.Expr):
        return source
    node = getattr(source, "node", None)  # a Q builder
    if isinstance(node, E.Expr):
        return node
    raise QueryError(
        f"cannot prepare {type(source).__name__!r}:"
        " expected an Expr, a Q builder, or AQL text"
    )


def prepare(
    source: Any,
    db: Database,
    *,
    optimize: bool = True,
    cache: PlanCache | None = DEFAULT_CACHE,
) -> PreparedQuery:
    """Prepare ``source`` (Expr | Q | AQL text) for repeated execution.

    Served from ``cache`` when a structurally identical query was
    prepared against the same database at the current epoch; planned
    from scratch (and stored) otherwise.  Pass ``cache=None`` to bypass
    caching entirely.  Cache traffic is observable via the cache's own
    counters and, for callers that activated a stats sink, the
    ``plan_cache_*`` emissions.
    """
    text: str | None = None
    expr: E.Expr | None = None
    missed: Hashable | None = None
    if isinstance(source, str):
        text = source
        # The alias table lets warm AQL text skip even the parse (and
        # therefore every pattern compilation the parse would do).
        if cache is not None:
            fingerprint = cache.lookup_alias(db, text, optimize)
            if fingerprint is not None:
                prepared = cache.lookup(db, fingerprint)
                if prepared is not None:
                    return prepared
                missed = fingerprint
        from .aql import parse_aql

        expr = parse_aql(text)
    else:
        expr = _as_expr(source)

    fingerprint = plan_fingerprint(expr, optimize=optimize)
    if cache is not None and fingerprint != missed:
        prepared = cache.lookup(db, fingerprint)
        if prepared is not None:
            if text is not None:
                cache.store_alias(db, text, optimize, fingerprint)
            return prepared

    # Capture the version cut BEFORE planning: a write that lands while
    # the optimizer runs then makes this entry immediately stale (it
    # re-plans on next lookup) instead of being served as current — the
    # conservative side of the race.
    token = db.version_token()
    plan, factory = _plan(expr, db, optimize)
    deps = _plan_dependencies(expr, plan)
    prepared = PreparedQuery(
        expr=expr,
        plan=plan,
        factory=factory,
        db=db,
        epoch=token.epoch,
        optimize=optimize,
        fingerprint=fingerprint,
        cache=cache,
        deps=deps,
        dep_versions=token.versions(deps),
    )
    if cache is not None:
        cache.store(db, fingerprint, prepared)
        if text is not None:
            cache.store_alias(db, text, optimize, fingerprint)
    return prepared
