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

AQL literals are plan parameters.  A text is parsed into its shape —
every constant lifted into a hidden slot ``$0``, ``$1``, … — and the
shape is planned once, with the first text's literals armed as
bindings, so the cost model, the anchor analysis and the columnar
choice read real constants.  The alias table maps each text to its
**bound view** (:meth:`PreparedQuery.bound`): the shared entry's plan
and factory plus the text's own literals, which every run merges with
the user's ``$params``.  The one choice priced on a constant — probe an
anchor's index or scan the tree (``PipelineFactory.gates``) — is
re-priced for each new text of a shape; a text whose constants flip it
is planned on its own (one ``plan_cache_replans``), so every text runs
the plan it would have got alone.

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
run's bindings so the binding-aware analysis picks the safe full-scan
shape instead.

Execution semantics are identical to
:func:`repro.query.interpreter.evaluate` (which is a wrapper over this
path) — a cached plan and a freshly planned one give bit-identical
results and counters, which the plan-cache property suite asserts.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping

from .. import config, context, guardrails
from ..errors import QueryError
from ..guardrails import Budget
from ..optimizer.engine import Optimizer
from ..params import is_bindable
from ..patterns.tree_memo import MatchContextRegistry
from ..physical import ExecutionContext
from ..physical.lower import PipelineFactory, lower_factory
from ..plan import expr as E
from ..plan.metrics import PlanMetrics
from ..storage.database import GLOBAL_RESOURCE, Database, extent_resource, root_resource
from .aql import parse_aql, parse_aql_shape
from .plan_cache import DEFAULT_CACHE, PlanCache, plan_fingerprint


def _plan_dependencies(expr: E.Expr, plan: E.Expr) -> tuple[str, ...]:
    """The version-map tags this query's validity depends on.

    Every extent and named root the expression (or its optimized plan —
    rewrites can only preserve or drop references, but the union is
    cheap insurance) reads contributes a tag; index create/drop and
    ``analyze`` stamp the extent tag too, so access-path choices are
    covered.  A query that touches no stored resource depends only on
    the blanket tag, which moves on bare ``bump_epoch()`` calls.
    """
    tags: set[str] = {GLOBAL_RESOURCE}
    for node in list(expr.walk()) + list(plan.walk()):
        if isinstance(node, E.Root):
            tags.add(root_resource(node.name))
        elif isinstance(node, E.Extent):
            tags.add(extent_resource(node.name))
    return tuple(sorted(tags))


def _plan(
    expr: E.Expr, db: Database, optimize: bool
) -> tuple[E.Expr, PipelineFactory]:
    """The planning pipeline shared by cold prepares and re-plans.

    ``optimize`` controls both the algebraic rewrite pass and the
    lowering's access-path choice: an optimized prepare commits to index
    anchors / conjunct decompositions in the factory, an unoptimized one
    (the serving layer's last degraded retry) mirrors the logical tree.
    """
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

    An AQL text is prepared as a **bound view**: the plan and factory of
    its shape's cached entry (:func:`~repro.query.aql.parse_aql_shape`)
    plus the text's own ``literals``, armed as bindings by every run.
    ``expr``, ``plan``, ``describe()`` and ``repr`` show the text's own
    constants, never a hidden slot.
    """

    def __init__(
        self,
        *,
        expr: E.Expr,
        plan: E.Expr,
        factory: PipelineFactory,
        db: Database,
        epoch: int,
        optimize: bool,
        fingerprint: Hashable,
        cache: PlanCache | None,
        deps: tuple[str, ...] | None = None,
        dep_versions: tuple[int, ...] | None = None,
    ) -> None:
        self._expr = expr
        self._plan = plan
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
        #: The cache entry this query is a view of (itself for an entry).
        self.shared = self
        #: The AQL text and its lifted constants, by hidden slot name.
        self.text: str | None = None
        self.literals: Mapping[str, Any] = {}
        self._shown: tuple[E.Expr, E.Expr] | None = None

    def bound(self, text: str | None, literals: Mapping[str, Any]) -> "PreparedQuery":
        """This entry's view for ``text``: same plan, ``literals`` armed."""
        if not literals:
            return self
        view = object.__new__(PreparedQuery)
        view.__dict__.update(self.__dict__)
        view.text = text
        view.literals = literals
        return view

    # -- what the query shows --------------------------------------------------

    def _with_constants(self) -> tuple[E.Expr, E.Expr]:
        """The text's own ``(expr, plan)``: its constants where the shape
        holds slots.  Built on first display, off the run path — the
        optimizer's choices never read a constant, so this is the
        cached plan's structure, operator for operator."""
        shown = self._shown
        if shown is None:
            expr = parse_aql(self.text)
            plan = Optimizer(self.db).optimize(expr)[0] if self.optimize else expr
            shown = self._shown = (expr, plan)
        return shown

    @property
    def expr(self) -> E.Expr:
        """The logical query, as written."""
        return self._with_constants()[0] if self.literals else self._expr

    @property
    def plan(self) -> E.Expr:
        """The optimized logical plan, with the query's own constants."""
        return self._with_constants()[1] if self.literals else self._plan

    # -- the re-plan guard -----------------------------------------------------

    def _factory_for_bindings(
        self, view: Database, params: Mapping[str, Any] | None
    ) -> PipelineFactory:
        """The cached factory, unless a binding of this run breaks a
        recorded anchor assumption (an unhashable index-probe key).
        Lifted literals are never watched: they are always hashable."""
        if not self.anchor_params:
            return self.factory
        with context.entered(bindings=params) as bound:
            bindings = bound.bindings or {}
            if all(is_bindable(bindings[n]) for n in self.anchor_params if n in bindings):
                return self.factory
            # Re-plan under the run's bindings: the binding-aware anchor
            # analysis now sees the unhashable constant and keeps the
            # scan shape.  The result serves this run only — the cached
            # entry stays correct for bindings that honour the assumption.
            if self.cache is not None:
                self.cache.note_replan()
            return _plan(self._expr, view, self.optimize)[1]

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

        The knob keywords are the same set :meth:`repro.query.session.Session.query`
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
        view = db if db is not None else self.db
        # The text's own constants are laid over the user's bindings: no
        # ``$name`` is spelled like a lifted slot, and a stray ``"0"`` key
        # cannot stand in for a constant.
        bindings = params
        if self.literals:
            bindings = {**params, **self.literals} if params else self.literals
        factory = self._factory_for_bindings(view, bindings)
        # One context for the run (joining an outer run's guard and
        # registry), undone in one ``finally``, a budget trip included;
        # the plan adds its counters as the run's receiver.
        with context.entered(
            budget.arm if budget is not None else None,
            default=guardrails.env_guard,
            registry=MatchContextRegistry,
            bindings=bindings,
        ) as run:
            ctx = ExecutionContext(db=view, guard=run.guard, metrics=metrics)
            return factory.instantiate().execute(ctx)

    def describe(self) -> str:
        return self.plan.describe()

    def __repr__(self) -> str:
        # ``param_slots`` holds user slots only: lifted literals live in
        # predicates and patterns, never as ``E.Param`` nodes.
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
    from scratch (and stored) otherwise.  AQL text is keyed by its
    shape, so texts differing only in constants share one entry, each
    served as a bound view.  Pass ``cache=None`` to bypass caching
    entirely.  Cache traffic is observable via the cache's own counters
    and, for callers that credit a stats sink, the ``plan_cache_*``
    emissions.
    """
    text: str | None = None
    literals: Mapping[str, Any] = {}
    entry: PreparedQuery | None = None
    looked_up: Hashable | None = None
    if isinstance(source, str):
        text = source
        # The alias table lets warm AQL text skip even the parse (and
        # therefore every pattern compilation the parse would do).
        if cache is not None:
            view = cache.lookup_alias(db, text, optimize)
            if view is not None:
                entry = cache.lookup(db, view.fingerprint)
                if entry is view.shared:
                    return view
                looked_up = view.fingerprint
        expr, literals = parse_aql_shape(text)
    else:
        expr = _as_expr(source)

    fingerprint = plan_fingerprint(expr, optimize=optimize)
    if cache is not None and fingerprint != looked_up:
        entry = cache.lookup(db, fingerprint)
    if entry is None:
        entry = _planned(expr, db, optimize, fingerprint, cache, literals)
        if cache is not None:
            cache.store(db, fingerprint, entry)
        view = entry.bound(text, literals)
    else:
        view = _view(entry, expr, text, literals, db, cache)
    if cache is not None and text is not None:
        cache.store_alias(db, text, optimize, view)
    return view


def _planned(
    expr: E.Expr,
    db: Database,
    optimize: bool,
    fingerprint: Hashable,
    cache: PlanCache | None,
    literals: Mapping[str, Any],
) -> PreparedQuery:
    """Plan ``expr`` with ``literals`` armed, so the cost model, the
    anchor analysis and the columnar choice read the text's constants."""
    # Capture the version cut BEFORE planning: a write that lands while
    # the optimizer runs then makes this entry immediately stale (it
    # re-plans on next lookup) instead of being served as current — the
    # conservative side of the race.
    token = db.version_token()
    with context.entered(bindings=literals):
        plan, factory = _plan(expr, db, optimize)
    deps = _plan_dependencies(expr, plan)
    return PreparedQuery(
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


def _view(
    entry: PreparedQuery,
    expr: E.Expr,
    text: str | None,
    literals: Mapping[str, Any],
    db: Database,
    cache: PlanCache | None,
) -> PreparedQuery:
    """``entry`` bound to ``text``'s literals — unless those constants
    price one of the shape's access-path choices the other way (an index
    probe for one text is a full scan for another): then the text gets a
    plan of its own, counted as a re-plan, kept by its alias."""
    factory = entry.factory
    if literals and factory.gates:
        with context.entered(bindings=literals):
            holds = factory.gates_hold(db)
        if not holds:
            if cache is not None:
                cache.note_replan()
            own = _planned(expr, db, entry.optimize, entry.fingerprint, cache, literals)
            own.shared = entry
            return own.bound(text, literals)
    return entry.bound(text, literals)
