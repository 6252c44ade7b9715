"""The Session: one database handle, one knob-precedence story.

Every way of running a query — ``evaluate()``, ``Q.run()``,
``run_aql()``, the shell, the benchmarks — funnels through a
:class:`Session`, which is the *single* place the execution knobs are
resolved.  Precedence, highest first:

1. a per-call keyword (``session.query(q, budget=Budget(max_steps=...))``);
2. the Session's own keyword (``Session(db, budget=...)``);
3. the ``AQUA_*`` environment variables (``AQUA_MAX_STEPS`` and the
   other budget knobs, via :meth:`repro.guardrails.Budget.from_env`);
4. the built-in default (unlimited).

Values are validated by :mod:`repro.config`; a typo raises a one-line
:class:`~repro.errors.QueryError` naming the knob and the accepted
values instead of failing deep in the stack.

Each query runs on the calling thread through one sequential pipeline;
running several queries at once is :class:`~repro.api.SessionPool`'s
job alone.  The ``parallel=`` keyword (``on`` | ``off``) is still
accepted and validated, for call compatibility only: both values run
the same plan.

A Session owns a :class:`~repro.query.plan_cache.PlanCache` (shared
process-wide by default), so ``session.query(...)`` transparently
prepares-and-caches: repeated shapes skip the optimizer, the pattern
compilers and the lowering pass.  ``session.prepare(...)`` exposes the
:class:`~repro.query.prepare.PreparedQuery` explicitly for
parameterized workloads.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from .. import config, context
from ..guardrails import Budget
from ..plan.metrics import PlanMetrics
from ..storage.database import Database
from ..storage.stats import Instrumentation
from .explain import explain as render_plan, render_analysis, render_planning
from .plan_cache import DEFAULT_CACHE, PlanCache
from .prepare import PreparedQuery, prepare as _prepare

#: Sentinel distinguishing "not passed" from an explicit ``None`` for
#: the per-call plan-cache override (``cache=None`` bypasses caching).
_UNSET = object()


class ResolvedKnobs(NamedTuple):
    """One query's fully resolved execution knobs.

    Produced by :meth:`Session.resolve_knobs` — the *single* place the
    per-call > session > environment > default precedence is applied.
    Every entry point (``Session.query``, ``SessionPool.submit``,
    ``run_aql``, ``Q.run``, the shell) funnels through it, so the knob
    names and their precedence cannot drift between APIs.
    """

    optimize: bool
    budget: Budget | None
    cache: Any


class Session:
    """A database handle with resolved execution knobs and a plan cache.

    Parameters mirror the knobs: ``budget`` (a
    :class:`~repro.guardrails.Budget`), ``plan_cache`` (a
    :class:`~repro.query.plan_cache.PlanCache`; the process-wide default
    when omitted; ``plan_cache=None`` is replaced by that default — pass
    ``cache=None`` per call via :meth:`prepare` to bypass caching).
    All are optional; ``None`` defers to the environment, then the
    default.  ``parallel`` (``on`` | ``off``) is validated and has no
    effect: a Session runs each query on the calling thread, and
    concurrency is :class:`~repro.api.SessionPool`'s job.
    """

    def __init__(
        self,
        db: Database,
        *,
        budget: Budget | None = None,
        parallel: str | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        config.validated_parallel(parallel)
        self.db = db
        self.budget = budget
        self.plan_cache = plan_cache if plan_cache is not None else DEFAULT_CACHE

    # -- knob resolution -------------------------------------------------------

    @staticmethod
    def _default_optimize(source: Any, optimize: bool | None) -> bool:
        """AQL text optimizes by default (``run_aql`` parity); built
        expressions run as written (``evaluate`` / ``Q.run`` parity)."""
        if optimize is not None:
            return optimize
        return isinstance(source, str)

    def resolve_knobs(
        self,
        source: Any,
        *,
        optimize: bool | None = None,
        budget: Budget | None = None,
        parallel: str | None = None,
        cache: Any = _UNSET,
    ) -> ResolvedKnobs:
        """Apply the per-call > session precedence once, for every knob.

        (The environment and the built-in default resolve later, at the
        point of use: an unset budget reads the ``AQUA_*`` budget knobs
        when the query arms its guard.)  This is the shared resolver
        behind :meth:`query`, :meth:`query_with_metrics`,
        :meth:`explain`, ``run_aql`` and ``Q.run``; it also validates
        the inert ``parallel`` keyword.
        """
        config.validated_parallel(parallel)
        return ResolvedKnobs(
            optimize=self._default_optimize(source, optimize),
            budget=budget if budget is not None else self.budget,
            cache=self.plan_cache if cache is _UNSET else cache,
        )

    # -- the API ---------------------------------------------------------------

    def prepare(
        self, source: Any, *, optimize: bool | None = None, cache: Any = _UNSET
    ) -> PreparedQuery:
        """Plan ``source`` (Expr | Q | AQL text), served from the cache.

        ``cache`` overrides the Session's plan cache for this call:
        pass ``cache=None`` to plan from scratch without touching the
        shared cache (the serving layer's degraded retries use this so
        degraded plans are never cached).
        """
        knobs = self.resolve_knobs(source, optimize=optimize, cache=cache)
        return _prepare(
            source, self.db, optimize=knobs.optimize, cache=knobs.cache
        )

    def query(
        self,
        source: Any,
        params: Mapping[str, Any] | None = None,
        *,
        optimize: bool | None = None,
        budget: Budget | None = None,
        parallel: str | None = None,
        cache: Any = _UNSET,
    ) -> Any:
        """Prepare (or fetch from cache) and execute in one call."""
        knobs = self.resolve_knobs(
            source, optimize=optimize, budget=budget, parallel=parallel, cache=cache
        )
        prepared = _prepare(
            source, self.db, optimize=knobs.optimize, cache=knobs.cache
        )
        # db=self.db: the cache is shared across views of one base
        # database (snapshots share its cache identity), so the entry
        # may have been planned against a different view — execute
        # against *this* session's view regardless.
        return prepared.run(params, db=self.db, budget=knobs.budget)

    def query_with_metrics(
        self,
        source: Any,
        params: Mapping[str, Any] | None = None,
        *,
        optimize: bool | None = None,
        budget: Budget | None = None,
        parallel: str | None = None,
        metrics: PlanMetrics | None = None,
    ) -> tuple[Any, PlanMetrics]:
        """Like :meth:`query`, also collecting per-operator metrics."""
        knobs = self.resolve_knobs(
            source, optimize=optimize, budget=budget, parallel=parallel
        )
        prepared = _prepare(
            source, self.db, optimize=knobs.optimize, cache=knobs.cache
        )
        return prepared.run_with_metrics(
            params, metrics=metrics, db=self.db, budget=knobs.budget
        )

    def explain(
        self,
        source: Any,
        params: Mapping[str, Any] | None = None,
        *,
        optimize: bool | None = None,
        analyze: bool = True,
        budget: Budget | None = None,
    ) -> str:
        """EXPLAIN (ANALYZE) with the planning footer.

        With ``analyze`` the query is prepared *under a private
        instrumentation sink* — capturing the plan-cache traffic,
        optimizer rewrites and pattern compilations this call actually
        performed — then executed with per-operator metrics, and both
        are rendered: a warm cache shows ``plan_cache_hits=1`` with zero
        rewrites and zero compilations.
        """
        knobs = self.resolve_knobs(source, optimize=optimize, budget=budget)
        planning = Instrumentation()
        with context.entered(receiver=planning):
            prepared = _prepare(
                source, self.db, optimize=knobs.optimize, cache=knobs.cache
            )
        if not analyze:
            return "\n".join(
                [render_plan(prepared.plan, self.db), render_planning(planning)]
            )
        _, metrics = prepared.run_with_metrics(
            params, db=self.db, budget=knobs.budget
        )
        report = render_analysis(prepared.plan, self.db, metrics)
        return "\n".join([report, render_planning(planning)])

    def snapshot(self) -> "Session":
        """A Session over a pinned copy-on-write snapshot of the view.

        The returned Session sees the database exactly as of this call —
        no later insert, root rebind or index change is visible — and
        inherits this Session's knobs and plan cache.  Snapshotting a
        snapshot re-pins nothing (the view is already immutable).
        """
        return Session(
            self.db.snapshot(), budget=self.budget, plan_cache=self.plan_cache
        )

    def __repr__(self) -> str:
        suffix = " (budget=set)" if self.budget is not None else ""
        return f"Session<{self.db!r}>{suffix}"



def default_session(db: Database) -> Session:
    """The Session behind the legacy entry points.

    Constructed per call (Sessions are cheap handles) but sharing the
    process-wide plan cache, so ``evaluate()`` / ``Q.run()`` /
    ``run_aql()`` transparently benefit from prepared-plan reuse.
    """
    return Session(db)
