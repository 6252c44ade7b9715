"""Fault-tolerant serving: retries, circuit breakers, admission control.

The resilience layer between :class:`~repro.api.SessionPool` and the
query engine.  The engine's own guarantees — pure reads over immutable
list/tree values, snapshot isolation, deterministic match order — make
every mechanism here *semantics-free*: a retried, degraded, re-pinned
read returns bit-identical results or a structured error, never a
different answer.

Modules:

* :mod:`~repro.serving.taxonomy` — transient vs permanent failures;
* :mod:`~repro.serving.retry` — :class:`RetryPolicy` (capped
  exponential backoff, seeded deterministic jitter, deadline carving,
  graceful degradation: retry 1 bypasses the plan cache, later retries
  also plan unoptimized) and the :func:`run_with_policy` loop;
* :mod:`~repro.serving.breaker` — per-seam :class:`CircuitBreaker` /
  :class:`BreakerBoard` (closed → open → half-open);
* :mod:`~repro.serving.admission` — :class:`AdmissionController`
  (bounded queue depth / in-flight caps, structured shedding);
* :mod:`~repro.serving.pool_stats` — :class:`PoolStats` observability.

See README "Fault-tolerant serving" for the user-facing story and
``tests/serving/`` for the seeded chaos storm, breaker and shed pins.
"""

from .admission import AdmissionController
from .breaker import BreakerBoard, CircuitBreaker
from .pool_stats import PoolStats
from .retry import RetryPolicy, run_with_policy
from .taxonomy import classify, failure_seam, is_transient, register_transient

__all__ = [
    "AdmissionController",
    "BreakerBoard",
    "CircuitBreaker",
    "PoolStats",
    "RetryPolicy",
    "run_with_policy",
    "classify",
    "failure_seam",
    "is_transient",
    "register_transient",
]
