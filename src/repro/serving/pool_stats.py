"""PoolStats: observability for the fault-tolerant serving layer.

One bag per :class:`~repro.api.SessionPool`, answering the operational
questions the chaos benchmark (and CI) gate on: how many requests were
admitted vs shed, how many attempts the retry policy spent per request
(*retry amplification*), how much wall time went to backoff, which
breakers moved, how many retries ran degraded, and what the
request latency distribution looks like.

Counters ride on :class:`~repro.storage.stats.Instrumentation` — the
same thread-safe bag the engine uses — so per-worker stats merge with
``Instrumentation.merge()`` and render with the familiar machinery.
Latencies and backoff time are floats and live beside the counter bag
under their own lock, with a bounded reservoir so a long-lived pool
cannot grow without bound.
"""

from __future__ import annotations

import math
import threading

from ..storage.stats import Instrumentation

#: Counter names always present in a snapshot (zero-filled), so JSON
#: consumers can rely on the keys existing.
CANONICAL_COUNTERS = (
    "submitted",
    "admitted",
    "shed_overload",
    "completed",
    "failed",
    "failed_permanent",
    "retries_exhausted",
    "breaker_short_circuits",
    "attempts",
    "retries",
    "repins",
    "degraded_attempts",
    "breaker_transitions",
    "breaker_to_open",
    "breaker_to_half_open",
    "breaker_to_closed",
)

#: Latency percentiles reported by :meth:`PoolStats.snapshot`.
PERCENTILES = (0.50, 0.90, 0.99)


def _percentile(ordered: list[float], quantile: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(math.ceil(quantile * len(ordered)), 1)
    return ordered[rank - 1]


class PoolStats:
    """Thread-safe serving-layer counters + latency reservoir."""

    def __init__(self, *, latency_reservoir: int = 8192) -> None:
        if latency_reservoir < 1:
            raise ValueError(
                f"latency_reservoir must be >= 1, got {latency_reservoir}"
            )
        self.counters = Instrumentation()
        self._lock = threading.Lock()
        self._latencies: list[float] = []
        self._latency_reservoir = latency_reservoir
        self._latency_dropped = 0
        self._backoff_seconds = 0.0

    # -- recording hooks (called by the pool / retry loop) ------------------

    def note_submitted(self) -> None:
        self.counters.bump("submitted")

    def note_admitted(self) -> None:
        self.counters.bump("admitted")

    def note_shed(self) -> None:
        self.counters.bump("shed_overload")

    def note_attempt(self) -> None:
        self.counters.bump("attempts")

    def note_degraded(self, rung: str) -> None:
        self.counters.bump("degraded_attempts")
        self.counters.bump(f"degraded_{rung.replace('-', '_')}")

    def note_repin(self) -> None:
        self.counters.bump("repins")

    def note_retry(self, backoff_seconds: float) -> None:
        self.counters.bump("retries")
        with self._lock:
            self._backoff_seconds += backoff_seconds

    def note_failure_kind(self, kind: str) -> None:
        """``failed_permanent`` | ``retries_exhausted`` |
        ``breaker_short_circuits`` — which way the request died."""
        self.counters.bump(kind)

    def note_success(self, latency_seconds: float) -> None:
        self.counters.bump("completed")
        self._record_latency(latency_seconds)

    def note_failed(self, latency_seconds: float) -> None:
        self.counters.bump("failed")
        self._record_latency(latency_seconds)

    def note_breaker_transition(self, key: str, old: str, new: str) -> None:
        """The :class:`~repro.serving.breaker.BreakerBoard` observer."""
        self.counters.bump("breaker_transitions")
        self.counters.bump(f"breaker_to_{new}")

    def _record_latency(self, latency_seconds: float) -> None:
        with self._lock:
            if len(self._latencies) < self._latency_reservoir:
                self._latencies.append(latency_seconds)
            else:
                self._latency_dropped += 1

    # -- derived views -------------------------------------------------------

    def amplification(self) -> float:
        """Attempts per admitted request (1.0 = no retries at all)."""
        admitted = self.counters["admitted"]
        if not admitted:
            return 0.0
        return self.counters["attempts"] / admitted

    def availability(self) -> float:
        """Completed requests over finished requests (completed+failed)."""
        finished = self.counters["completed"] + self.counters["failed"]
        if not finished:
            return 1.0
        return self.counters["completed"] / finished

    def merge(self, other: "PoolStats") -> None:
        """Fold another pool's stats into this one (harness aggregation).

        Counters fold through :meth:`Instrumentation.merge`; the latency
        reservoir absorbs the other sample up to its own bound and the
        backoff totals add.
        """
        self.counters.merge(other.counters)
        with other._lock:
            latencies = list(other._latencies)
            backoff = other._backoff_seconds
            dropped = other._latency_dropped
        with self._lock:
            room = self._latency_reservoir - len(self._latencies)
            self._latencies.extend(latencies[:room])
            self._latency_dropped += dropped + max(len(latencies) - room, 0)
            self._backoff_seconds += backoff

    def snapshot(self) -> dict:
        """JSON-ready report: counters, backoff, latency percentiles."""
        counts = self.counters.snapshot()
        for name in CANONICAL_COUNTERS:
            counts.setdefault(name, 0)
        with self._lock:
            ordered = sorted(self._latencies)
            backoff = self._backoff_seconds
            dropped = self._latency_dropped
        latency = {
            "count": len(ordered) + dropped,
            "max_ms": round(ordered[-1] * 1e3, 3) if ordered else 0.0,
        }
        for quantile in PERCENTILES:
            key = f"p{int(quantile * 100)}_ms"
            latency[key] = round(_percentile(ordered, quantile) * 1e3, 3)
        counts["backoff_seconds"] = round(backoff, 6)
        counts["latency"] = latency
        counts["retry_amplification"] = round(self.amplification(), 3)
        counts["availability"] = round(self.availability(), 5)
        return counts

    def __repr__(self) -> str:
        return (
            f"PoolStats(attempts={self.counters['attempts']}, "
            f"retries={self.counters['retries']}, "
            f"shed={self.counters['shed_overload']})"
        )


__all__ = ["PoolStats", "CANONICAL_COUNTERS"]
