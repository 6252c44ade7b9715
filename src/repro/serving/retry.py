"""Retry policy for reads: capped exponential backoff, seeded jitter.

The paper's read semantics make retries *free* of semantic risk: a read
is a pure function over immutable values, so re-executing it against a
pinned snapshot is bit-identical — the only costs are time and load.
:class:`RetryPolicy` manages both:

* **capped exponential backoff with seeded deterministic jitter** —
  the same discipline as :class:`~repro.faults.FaultPlan`: each request
  derives a ``random.Random`` from ``seed ^ crc32(key)``, so a given
  (policy, request-key) pair produces the *same* backoff sequence in
  every run.  Chaos runs are therefore reproducible end to end: the
  fault plan decides deterministically which hits fail, and the retry
  policy decides deterministically how the victims wait.
* **deadline carving** — every attempt's budget is carved out of the
  caller's overall :attr:`~repro.guardrails.Budget.deadline_seconds`
  via :meth:`Budget.carve`, and a backoff that would sleep past the
  overall deadline aborts the retry instead: a retried request can
  never outlive the budget its first attempt was given.
* **optional snapshot re-pin** (``repin=True``) — each retry re-pins a
  fresh snapshot, so snapshot-pin races and faults tied to one version
  cut are dodged rather than replayed.
* **graceful degradation** (``degrade=True``) — retry 1 re-plans around
  the shared plan cache (a poisoned or stale entry no longer matters),
  and every later retry also plans the logical tree as written (no
  index access path, the fewest storage seams).  Neither changes an
  answer (optimized ≡ unoptimized is property-tested), and a degraded
  plan is never cached.

:func:`run_with_policy` is the engine-agnostic retry loop the
:class:`~repro.api.SessionPool` drives: it owns classification
(:mod:`~repro.serving.taxonomy`), breaker bookkeeping
(:mod:`~repro.serving.breaker`), degradation and stats, while the caller
supplies a ``runner(rung, attempt_budget)`` callable that performs one
attempt.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import CircuitOpenError
from ..guardrails import Budget
from .breaker import BreakerBoard
from .pool_stats import PoolStats
from .taxonomy import failure_seam, is_transient

#: Patchable sleep, so tests can drive the loop without real waiting.
_sleep = time.sleep

#: The degraded retries, by name (``PoolStats`` counts ``degraded_<name>``).
BYPASS_PLAN_CACHE = "bypass-plan-cache"
UNOPTIMIZED_PLAN = "unoptimized-plan"


@dataclass(frozen=True)
class RetryPolicy:
    """Read-retry configuration; immutable and shareable across threads.

    * ``max_attempts`` — total attempts including the first (1 disables
      retries while keeping the rest of the resilience machinery);
    * ``base_delay`` / ``multiplier`` / ``max_delay`` — the capped
      exponential: retry *n* (1-based) backs off
      ``min(base_delay * multiplier**(n-1), max_delay)`` seconds;
    * ``jitter`` — the fraction of each delay that is randomized
      (``0.5`` → uniformly in ``[0.5·d, d]``), drawn from the seeded
      per-request stream so runs are reproducible;
    * ``seed`` — the jitter seed, same discipline as ``AQUA_FAULT_SEED``;
    * ``repin`` — re-pin a fresh snapshot before each retry (only when
      the pool pinned the snapshot itself; an explicitly shared pin is
      never silently replaced);
    * ``degrade`` — degrade retries' planning (:data:`BYPASS_PLAN_CACHE`,
      then :data:`UNOPTIMIZED_PLAN`).
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5
    seed: int = 0
    repin: bool = True
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def rng(self, key: str) -> random.Random:
        """The seeded jitter stream for one request key."""
        return random.Random(self.seed ^ zlib.crc32(key.encode()))

    def backoff(self, retry_number: int, rng: random.Random) -> float:
        """Delay before the ``retry_number``-th retry (1-based).

        Always draws from ``rng`` (even with ``jitter=0``) so the random
        sequence is a function of the retry number alone — the same
        determinism discipline as :meth:`FaultPlan.check`.
        """
        draw = rng.random()
        capped = min(
            self.base_delay * self.multiplier ** (retry_number - 1),
            self.max_delay,
        )
        if self.jitter <= 0.0:
            return capped
        return capped * (1.0 - self.jitter * draw)

    def schedule(self, key: str) -> list[float]:
        """The full deterministic backoff sequence for ``key``."""
        rng = self.rng(key)
        return [
            self.backoff(retry_number, rng)
            for retry_number in range(1, self.max_attempts)
        ]


def run_with_policy(
    runner: Callable[[str | None, Budget | None], Any],
    *,
    policy: RetryPolicy,
    key: str = "",
    budget: Budget | None = None,
    breakers: BreakerBoard | None = None,
    stats: PoolStats | None = None,
    repin: Callable[[], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Any:
    """Run ``runner`` under ``policy``; the serving layer's retry loop.

    ``runner(rung, attempt_budget)`` performs one attempt: ``rung`` is
    the degraded planning to apply (``None`` on the first attempt, or
    with ``policy.degrade`` off), and
    ``attempt_budget`` is the caller's budget with the deadline carved
    down to what remains.  Failures are classified; permanent ones
    raise immediately, transient ones consult the seam's breaker, back
    off (deterministic seeded jitter, carved against the deadline) and
    go again.  On eventual success every seam that failed along the way
    is credited with a breaker success (closing a half-open breaker).
    """
    started = clock()
    deadline = (
        started + budget.deadline_seconds
        if budget is not None and budget.deadline_seconds is not None
        else None
    )
    rng = policy.rng(key)
    failed_seams: list[str] = []
    attempt = 0
    while True:
        attempt += 1
        if stats is not None:
            stats.note_attempt()
        rung: str | None = None
        if policy.degrade and attempt > 1:
            rung = BYPASS_PLAN_CACHE if attempt == 2 else UNOPTIMIZED_PLAN
            if stats is not None:
                stats.note_degraded(rung)
        attempt_budget = (
            budget.carve(clock() - started) if budget is not None else None
        )
        try:
            result = runner(rung, attempt_budget)
        except Exception as exc:
            if not is_transient(exc):
                if stats is not None:
                    stats.note_failure_kind("failed_permanent")
                raise
            seam = failure_seam(exc)
            breaker = breakers.breaker(seam) if breakers is not None else None
            if breaker is not None:
                breaker.record_failure()
                failed_seams.append(seam)
            if attempt >= policy.max_attempts:
                if stats is not None:
                    stats.note_failure_kind("retries_exhausted")
                raise
            if breaker is not None and not breaker.allow():
                # The seam's breaker is open: shed fast instead of
                # burning the remaining retry schedule against it.
                if stats is not None:
                    stats.note_failure_kind("breaker_short_circuits")
                raise CircuitOpenError(seam) from exc
            delay = policy.backoff(attempt, rng)
            if deadline is not None and clock() + delay >= deadline:
                # No deadline budget left to sleep *and* re-run: give
                # the caller the real failure, not a timeout-in-waiting.
                if stats is not None:
                    stats.note_failure_kind("retries_exhausted")
                raise
            if stats is not None:
                stats.note_retry(delay)
            if delay > 0:
                _sleep(delay)
            if policy.repin and repin is not None:
                repin()
                if stats is not None:
                    stats.note_repin()
        else:
            if breakers is not None:
                # Seams that failed earlier in this request recovered:
                # reset their failure streaks / close half-open probes.
                for seam in dict.fromkeys(failed_seams):
                    breakers.breaker(seam).record_success()
            return result


__all__ = ["RetryPolicy", "run_with_policy"]
