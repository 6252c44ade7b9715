"""The unified query API: one Session object, one precedence story.

Every way of running a query — ``evaluate()``, ``Q.run()``,
``run_aql()``, the shell, the benchmarks — now funnels through a
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
running several queries at once is :class:`SessionPool`'s job alone.
The ``parallel=`` keyword (``on`` | ``off``) is still accepted and
validated, for call compatibility only: both values run the same plan.

A Session owns a :class:`~repro.query.plan_cache.PlanCache` (shared
process-wide by default), so ``session.query(...)`` transparently
prepares-and-caches: repeated shapes skip the optimizer, the pattern
compilers and the lowering pass.  ``session.prepare(...)`` exposes the
:class:`~repro.query.prepare.PreparedQuery` explicitly for
parameterized workloads.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping, NamedTuple

from . import config, context
from .errors import QueryError
from .guardrails import Budget
from .query.metrics import PlanMetrics
from .query.plan_cache import DEFAULT_CACHE, PlanCache
from .query.prepare import PreparedQuery, prepare as _prepare
from .serving import (
    AdmissionController,
    BreakerBoard,
    PoolStats,
    RetryPolicy,
    run_with_policy,
)
from .serving.retry import UNOPTIMIZED_PLAN
from .storage.database import Database

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
    concurrency is :class:`SessionPool`'s job.
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
        from .query.explain import explain as render_plan
        from .query.explain import render_analysis, render_planning
        from .storage.stats import Instrumentation

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


class SessionPool:
    """A thread-pooled serving front end with snapshot-isolated readers.

    The concurrent counterpart of :class:`Session`, and the engine's only
    source of concurrency: ``submit()`` runs a query on a worker thread
    against a :meth:`Database.snapshot` pinned at submission time, so
    every read observes one consistent version cut no matter how many
    writers commit while it executes.
    ``submit_update()`` routes writes through
    :func:`repro.algebra.update.apply_update`, whose transaction holds
    the database write lock — writers serialize, readers never block.

    All workers share the pool's plan cache (snapshots share the base
    database's cache identity), so a shape warmed by one client is warm
    for every client.  Per-query state — the guard, parameter bindings,
    match tables and counter receivers of one
    :class:`~repro.context.QueryContext` — is thread-local *and* reset
    on scope exit, so nothing bleeds between queries that happen to
    reuse a worker thread (see the PR-6 regression tests).

    **Fault tolerance** (PR 7, all opt-in, see README "Fault-tolerant
    serving"):

    * ``retry_policy`` — a :class:`~repro.serving.RetryPolicy` retries
      reads whose failures classify as *transient* (injected faults,
      deadline pressure, snapshot-pin races), with capped exponential
      backoff under seeded deterministic jitter, each attempt's deadline
      carved out of the caller's overall budget, optional per-attempt
      snapshot re-pin, and graceful degradation (retry 1 bypasses the
      plan cache, later retries also plan unoptimized);
    * ``breakers`` — a :class:`~repro.serving.BreakerBoard` (created
      automatically when a retry policy is set) opens a per-seam
      circuit after repeated failures so a persistently failing index
      or storage path sheds fast instead of burning retry budget;
    * ``max_queue_depth`` / ``max_in_flight`` — admission control:
      excess load is rejected at submission with a structured
      :class:`~repro.errors.ServerOverloadedError` carrying queue
      statistics;
    * ``pool.stats`` — a :class:`~repro.serving.PoolStats` bag counting
      attempts, retries, backoff time, breaker transitions, sheds,
      degraded runs and latency percentiles.

    Writes are **never retried**: the transaction layer makes a failed
    update roll back cleanly, but whether a *commit* landed cannot be
    re-checked from out here, so re-applying is the caller's decision.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        db: Database,
        *,
        workers: int = 4,
        budget: Budget | None = None,
        parallel: str | None = None,
        plan_cache: PlanCache | None = None,
        retry_policy: RetryPolicy | None = None,
        breakers: BreakerBoard | None = None,
        max_queue_depth: int | None = None,
        max_in_flight: int | None = None,
        pool_stats: PoolStats | None = None,
    ) -> None:
        from concurrent.futures import ThreadPoolExecutor

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        config.validated_parallel(parallel)
        self.db = db
        self.workers = workers
        self.budget = budget
        self.plan_cache = plan_cache if plan_cache is not None else DEFAULT_CACHE
        self.retry_policy = retry_policy
        self.stats = pool_stats if pool_stats is not None else PoolStats()
        self.breakers = breakers if breakers is not None else BreakerBoard()
        self.breakers.observe(self.stats.note_breaker_transition)
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth, max_in_flight=max_in_flight
        )
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._sequence = 0
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="aqua-session"
        )

    # -- internals -------------------------------------------------------------

    def _session(self, view: Database) -> Session:
        return Session(view, budget=self.budget, plan_cache=self.plan_cache)

    def _next_key(self) -> str:
        """A stable per-request key for the seeded jitter stream."""
        with self._lifecycle_lock:
            self._sequence += 1
            return str(self._sequence)

    def _check_open(self) -> None:
        if self._closed:
            raise QueryError(
                "SessionPool is closed: submit after close() is not allowed"
            )

    def _admit(self) -> None:
        """Admission control for one request; stats-visible shedding."""
        self.stats.note_submitted()
        try:
            self.admission.admit()
        except Exception:
            self.stats.note_shed()
            raise
        self.stats.note_admitted()

    def _schedule(self, fn, *args: Any, **kwargs: Any):
        """Submit to the executor, converting its shutdown error."""
        try:
            return self._pool.submit(fn, *args, **kwargs)
        except RuntimeError as exc:  # racing close(): executor refused
            self.admission.release_unstarted()
            raise QueryError(
                "SessionPool is closed: submit after close() is not allowed"
            ) from exc

    # -- reads -----------------------------------------------------------------

    def submit(
        self,
        source: Any,
        params: Mapping[str, Any] | None = None,
        *,
        snapshot: Database | None = None,
        optimize: bool | None = None,
        budget: Budget | None = None,
        parallel: str | None = None,
        cache: Any = _UNSET,
        retry_policy: RetryPolicy | None | Any = _UNSET,
    ):
        """Schedule ``source`` on a worker; returns a Future.

        The knob keywords (``optimize`` / ``budget`` / ``parallel`` /
        ``cache``) are :meth:`Session.query`'s, with identical
        precedence — a per-call value beats the pool's, which beats the
        environment.  ``parallel`` is validated here and has no effect.

        The read is pinned to ``snapshot`` when given (obtain one from
        :meth:`pin`), else to a fresh snapshot taken *now*, at
        submission — not when the worker dequeues the job.  When a
        retry policy is active (the pool's, or a per-call override —
        pass ``retry_policy=None`` to disable for one call), transient
        failures are retried as documented on the class; an explicitly
        shared ``snapshot`` is never re-pinned, a pool-pinned one may
        be when the policy asks for it.
        """
        config.validated_parallel(parallel)
        self._check_open()
        self._admit()
        view = snapshot if snapshot is not None else self.db.snapshot()
        policy = self.retry_policy if retry_policy is _UNSET else retry_policy
        effective_budget = budget if budget is not None else self.budget
        return self._schedule(
            self._serve_read,
            self._next_key(),
            source,
            params,
            view,
            snapshot is None,  # repinnable only if the pool pinned it
            policy,
            effective_budget,
            dict(optimize=optimize, cache=cache),
        )

    def _serve_read(
        self,
        key: str,
        source: Any,
        params: Mapping[str, Any] | None,
        view: Database,
        repinnable: bool,
        policy: RetryPolicy | None,
        budget: Budget | None,
        knobs: dict,
    ) -> Any:
        """Worker-side read path: admission bracket + retry loop."""
        self.admission.begin()
        started = time.perf_counter()
        try:
            result = self._read_attempts(
                key, source, params, view, repinnable, policy, budget, knobs
            )
        except BaseException:
            self.stats.note_failed(time.perf_counter() - started)
            raise
        else:
            self.stats.note_success(time.perf_counter() - started)
            return result
        finally:
            self.admission.finish()

    def _read_attempts(
        self,
        key: str,
        source: Any,
        params: Mapping[str, Any] | None,
        view: Database,
        repinnable: bool,
        policy: RetryPolicy | None,
        budget: Budget | None,
        knobs: dict,
    ) -> Any:
        holder = {"view": view}

        def runner(rung: str | None, attempt_budget: Budget | None) -> Any:
            optimize = knobs["optimize"]
            cache: Any = knobs["cache"]
            if rung is not None:  # degraded plans are never cached
                cache = None
                if rung == UNOPTIMIZED_PLAN:
                    optimize = False
            session = self._session(holder["view"])
            return session.query(
                source,
                params,
                optimize=optimize,
                budget=attempt_budget if attempt_budget is not None else budget,
                cache=cache,
            )

        if policy is None:
            self.stats.note_attempt()
            return runner(None, budget)

        def repin() -> None:
            holder["view"] = self.db.snapshot()

        return run_with_policy(
            runner,
            policy=policy,
            key=key,
            budget=budget,
            breakers=self.breakers,
            stats=self.stats,
            repin=repin if repinnable else None,
        )

    def query(
        self,
        source: Any,
        params: Mapping[str, Any] | None = None,
        **kwargs: Any,
    ) -> Any:
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(source, params, **kwargs).result()

    def pin(self) -> Database:
        """A snapshot to share across several :meth:`submit` calls."""
        return self.db.snapshot()

    # -- writes ----------------------------------------------------------------

    def submit_update(self, root_name: str, updater, *args: Any, **kwargs: Any):
        """Schedule ``apply_update(db, root_name, updater, ...)``.

        Writers go against the *base* database (never a snapshot) and
        serialize on its write lock; the returned Future resolves to the
        new root value.  A raising updater rolls back and re-raises
        through the Future.  Updates pass admission control like reads
        but are never retried (see the class docstring).
        """
        from .algebra.update import apply_update

        self._check_open()
        self._admit()
        return self._schedule(
            self._serve_update, apply_update, root_name, updater, args, kwargs
        )

    def _serve_update(self, apply_update, root_name, updater, args, kwargs):
        self.admission.begin()
        started = time.perf_counter()
        self.stats.note_attempt()
        try:
            result = apply_update(self.db, root_name, updater, *args, **kwargs)
        except BaseException:
            self.stats.note_failed(time.perf_counter() - started)
            raise
        else:
            self.stats.note_success(time.perf_counter() - started)
            return result
        finally:
            self.admission.finish()

    # -- observability ---------------------------------------------------------

    def observability(self) -> dict:
        """One JSON-ready report: pool stats, breakers, admission."""
        return {
            "pool": self.stats.snapshot(),
            "breakers": self.breakers.snapshot(),
            "admission": self.admission.snapshot(),
        }

    # -- lifecycle -------------------------------------------------------------

    def close(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Shut the pool down; idempotent.

        ``cancel_futures=True`` additionally cancels queued work that
        has not started executing (their Futures report cancelled).
        Further ``submit`` / ``submit_update`` calls raise a
        :class:`~repro.errors.QueryError` instead of the executor's raw
        ``RuntimeError``.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        suffix = ", closed" if self._closed else ""
        return f"SessionPool<{self.db!r}, workers={self.workers}{suffix}>"


def default_session(db: Database) -> Session:
    """The Session behind the legacy entry points.

    Constructed per call (Sessions are cheap handles) but sharing the
    process-wide plan cache, so ``evaluate()`` / ``Q.run()`` /
    ``run_aql()`` transparently benefit from prepared-plan reuse.
    """
    return Session(db)


__all__ = ["Session", "SessionPool", "default_session"]
