"""Exception hierarchy for the AQUA reproduction.

Every error raised by the library derives from :class:`AquaError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the broad failure families below.
"""

from __future__ import annotations


class AquaError(Exception):
    """Base class for all errors raised by this library."""


class NotationError(AquaError):
    """A textual list/tree/pattern notation could not be parsed.

    ``text`` is the whole text; the message quotes at most 40 characters
    on each side of ``position``, with ``…`` where it cuts the text."""

    def __init__(self, message: str, text: str = "", position: int | None = None):
        self.text = text
        self.position = position
        if position is not None:
            start, end = max(0, position - 40), position + 40
            excerpt = "…" * (start > 0) + repr(text[start:end]) + "…" * (end < len(text))
            message = f"{message} (at position {position} in {excerpt})"
        super().__init__(message)


class PatternError(AquaError):
    """A pattern is structurally invalid (e.g. misplaced anchor or prune)."""


class PredicateError(AquaError):
    """An alphabet-predicate is invalid or cannot be evaluated."""


class ConcatenationError(AquaError):
    """A concatenation (``∘α``) was applied to incompatible operands."""


class TypeMismatchError(AquaError):
    """An algebra operator was applied to a value of the wrong bulk type."""


class StorageError(AquaError):
    """Raised by the storage substrate (unknown OID, duplicate root...)."""


class SnapshotPinError(StorageError):
    """A consistent snapshot could not be pinned (a racing writer moved
    the version cut mid-pin).

    Unlike its parent, this failure is *transient*: the base database is
    intact, and re-pinning a fresh snapshot succeeds once the writer's
    commit completes.  The serving layer's retry policy treats it as
    retryable-with-repin (see :mod:`repro.serving.taxonomy`).
    """


class IndexError_(StorageError):
    """An index was used inconsistently (duplicate key in unique index...).

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`, which has unrelated semantics.
    """


class OptimizerError(AquaError):
    """The optimizer was given an invalid plan or rule configuration."""


class QueryError(AquaError):
    """A logical query expression is malformed or cannot be evaluated."""


class ResourceExhaustedError(AquaError):
    """A query exceeded a configured execution budget.

    Raised cooperatively by the hot loops (matcher steps, storage scans,
    interpreter dispatch) when a :class:`~repro.guardrails.Budget` limit
    trips.  The error is structured so callers can recover and report:

    * ``limit_name``/``limit``/``spent`` — which knob tripped and how;
    * ``seam`` — where in the engine the check fired (e.g. ``"matcher
      step"``, ``"storage scan"``);
    * ``usage`` — the guard's resource snapshot at trip time;
    * ``metrics`` — the partial
      :class:`~repro.plan.metrics.PlanMetrics` collected so far when the
      trip happened inside an instrumented run (attached by the
      interpreter, ``None`` otherwise);
    * ``plan_path``/``operator`` — the plan node being evaluated when the
      budget tripped (attached by the interpreter).
    """

    def __init__(
        self,
        message: str,
        *,
        limit_name: str = "",
        limit: float | int | None = None,
        spent: float | int | None = None,
        seam: str = "",
        usage: dict | None = None,
        metrics: object | None = None,
    ) -> None:
        self.limit_name = limit_name
        self.limit = limit
        self.spent = spent
        self.seam = seam
        self.usage = dict(usage or {})
        self.metrics = metrics
        self.plan_path: tuple[int, ...] | None = None
        self.operator: str | None = None
        super().__init__(message)


class QueryCancelledError(AquaError):
    """A cooperative :class:`~repro.guardrails.CancellationToken` fired."""


class ServerOverloadedError(AquaError):
    """Admission control shed a request: the serving queue is full.

    Carries the queue statistics at rejection time so clients (and the
    chaos benchmark) can report *why* they were shed and back off
    accordingly:

    * ``queued`` — requests admitted but not yet executing;
    * ``in_flight`` — requests currently executing on a worker;
    * ``max_queue_depth`` / ``max_in_flight`` — the configured caps;
    * ``shed`` — total requests this controller has rejected so far.
    """

    def __init__(
        self,
        message: str,
        *,
        queued: int = 0,
        in_flight: int = 0,
        max_queue_depth: int | None = None,
        max_in_flight: int | None = None,
        shed: int = 0,
    ) -> None:
        self.queued = queued
        self.in_flight = in_flight
        self.max_queue_depth = max_queue_depth
        self.max_in_flight = max_in_flight
        self.shed = shed
        super().__init__(message)

    def queue_stats(self) -> dict:
        """JSON-ready statistics snapshot carried by this rejection."""
        return {
            "queued": self.queued,
            "in_flight": self.in_flight,
            "max_queue_depth": self.max_queue_depth,
            "max_in_flight": self.max_in_flight,
            "shed": self.shed,
        }


class CircuitOpenError(AquaError):
    """A circuit breaker is open for the failing seam/resource.

    Raised by the retry loop instead of burning further retry budget
    when the seam that just failed has tripped its breaker: the original
    failure is chained as ``__cause__``, and ``seam`` names the breaker.
    """

    def __init__(self, seam: str, message: str = "") -> None:
        self.seam = seam
        super().__init__(
            message or f"circuit breaker open for seam {seam!r}; request shed"
        )


class InjectedFaultError(AquaError):
    """A deterministic fault injected at a named seam (testing only).

    Never raised in production configurations; see :mod:`repro.faults`.
    """

    def __init__(self, seam: str, hit: int) -> None:
        self.seam = seam
        self.hit = hit
        super().__init__(f"injected fault at seam {seam!r} (hit #{hit})")
