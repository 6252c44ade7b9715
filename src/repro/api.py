"""The serving front end: :class:`SessionPool`, which runs many queries
at once on worker threads, each through a
:class:`~repro.query.session.Session` (re-exported here)."""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

from . import config
from .algebra.update import apply_update
from .errors import QueryError
from .guardrails import Budget
from .query.plan_cache import DEFAULT_CACHE, PlanCache
from .query.session import _UNSET, ResolvedKnobs, Session, default_session
from .serving import (
    AdmissionController,
    BreakerBoard,
    PoolStats,
    RetryPolicy,
    run_with_policy,
)
from .serving.retry import UNOPTIMIZED_PLAN
from .storage.database import Database


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
        self._check_open()
        self._admit()
        return self._schedule(self._serve_update, root_name, updater, args, kwargs)

    def _serve_update(self, root_name, updater, args, kwargs):
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


__all__ = ["ResolvedKnobs", "Session", "SessionPool", "default_session"]
