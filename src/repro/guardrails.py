"""Execution guardrails: per-query budgets and cooperative cancellation.

The pattern matchers are backtracking interpreters over tree regular
expressions — worst-case exponential, exactly as the paper's footnote 3
admits — so an adversarial pattern or a deep input can otherwise run
effectively forever or blow the Python recursion limit.  Production
queries must instead fail *fast* and *structured*: every limit trips as
a :class:`~repro.errors.ResourceExhaustedError` that says which knob
tripped, where in the engine, and (inside an instrumented run) carries
the partial plan metrics collected so far.

Three pieces cooperate:

* :class:`Budget` — the immutable limit configuration: wall-clock
  deadline, matcher steps, backtrack depth, per-operator result
  cardinality, nodes scanned, plus an optional
  :class:`CancellationToken`.  ``Budget.from_env()`` reads the
  ``AQUA_*`` knobs so shells, CI and benchmarks can impose limits
  without code changes.
* :class:`Guard` — one *armed* budget: the mutable spend counters for a
  single query execution.  Hot loops call :meth:`Guard.tick` (a couple
  of integer operations; the deadline/cancellation check runs only every
  :data:`TIME_CHECK_INTERVAL` steps), storage scans call
  :meth:`Guard.charge_nodes`, the interpreter calls
  :meth:`Guard.check_results`.
* :func:`guarded` / :func:`current_guard` — thread-local installation.
  The *outermost* scope wins: entry points (the interpreter, the pattern
  engines' ``find_*`` functions) all open a ``guarded()`` scope, and
  nested scopes reuse the active guard, so one budget covers a whole
  query no matter how many engine layers it crosses.

The module deliberately imports nothing from the engine layers (only
:mod:`repro.errors`), so every layer — storage, patterns, query,
optimizer — can depend on it without cycles.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterator

from .errors import QueryCancelledError, QueryError, ResourceExhaustedError

#: How many :meth:`Guard.tick` steps pass between wall-clock/cancellation
#: checks.  Keeps ``time.perf_counter`` and token reads off the per-step
#: fast path while bounding how late a deadline can be noticed.
TIME_CHECK_INTERVAL = 256

#: Depth bound for nullability analysis when no budget sets one.  Real
#: patterns bind at most a handful of concatenation points, so any
#: recursion deeper than this is a binding cycle — but the limit is a
#: budget knob (``max_backtrack_depth``), not a magic constant, so
#: callers who legitimately nest deeper can raise it.
DEFAULT_NULLABLE_DEPTH = 64

#: Environment knob → :class:`Budget` field (see README "Execution
#: limits & fault injection" for the user-facing documentation).
ENV_KNOBS = {
    "AQUA_DEADLINE": ("deadline_seconds", float),
    "AQUA_MAX_STEPS": ("max_steps", int),
    "AQUA_MAX_BACKTRACK_DEPTH": ("max_backtrack_depth", int),
    "AQUA_MAX_RESULTS": ("max_results", int),
    "AQUA_MAX_NODES_SCANNED": ("max_nodes_scanned", int),
}


class CancellationToken:
    """Cooperative cancellation flag, safe to share across threads.

    A controller thread calls :meth:`cancel`; the executing query notices
    at its next periodic check and unwinds with
    :class:`~repro.errors.QueryCancelledError`.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        return f"CancellationToken(cancelled={self.cancelled})"


@dataclass(frozen=True)
class Budget:
    """Limit configuration for one query execution.  ``None`` = unlimited.

    * ``deadline_seconds`` — wall-clock budget, measured from the moment
      the guard is armed;
    * ``max_steps`` — matcher/engine steps (backtracking derivation
      steps, DFA element steps, interpreter dispatches);
    * ``max_backtrack_depth`` — recursion depth of the backtracking
      matchers and of nullability analysis;
    * ``max_results`` — output cardinality of any single plan operator;
    * ``max_nodes_scanned`` — total nodes/objects/positions read by
      storage scans;
    * ``token`` — optional cooperative cancellation handle.
    """

    deadline_seconds: float | None = None
    max_steps: int | None = None
    max_backtrack_depth: int | None = None
    max_results: int | None = None
    max_nodes_scanned: int | None = None
    token: CancellationToken | None = None

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name != "token" and value is not None and value < 0:
                raise QueryError(
                    f"{spec.name}: invalid value {value!r} (accepted: a number >= 0)"
                )

    @property
    def is_unlimited(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_steps is None
            and self.max_backtrack_depth is None
            and self.max_results is None
            and self.max_nodes_scanned is None
            and self.token is None
        )

    @classmethod
    def from_env(cls, environ=None) -> "Budget":
        """Build a budget from ``AQUA_*`` environment knobs.

        Unset or malformed knobs — not a number, or negative — are
        treated as unlimited: a bad value must never make every query
        fail.
        """
        environ = os.environ if environ is None else environ
        values: dict[str, float | int] = {}
        for knob, (field_name, parse) in ENV_KNOBS.items():
            raw = environ.get(knob)
            if not raw:
                continue
            try:
                value = parse(raw)
            except ValueError:
                continue
            if value >= 0:
                values[field_name] = value
        return cls(**values)

    def with_token(self, token: CancellationToken) -> "Budget":
        return replace(self, token=token)

    def carve(self, elapsed: float) -> "Budget":
        """The budget left after ``elapsed`` seconds have been spent.

        The retry layer uses this to give each attempt only what remains
        of the *caller's* overall deadline — a retried query can never
        outlive the budget the first attempt was given.  Only the
        deadline shrinks; the other knobs are per-attempt bounds, not
        cumulative spend, so they carry over unchanged.  With no deadline
        configured the budget is returned as-is.

        The remaining deadline is floored at a hair above zero rather
        than clamped negative, so an attempt launched after the deadline
        trips immediately with the standard ``deadline_seconds``
        diagnostic instead of a confusing negative limit.
        """
        if self.deadline_seconds is None:
            return self
        return replace(
            self, deadline_seconds=max(self.deadline_seconds - elapsed, 1e-9)
        )

    def to_dict(self) -> dict[str, float | int | None]:
        """JSON-ready knob → limit mapping (the benchmark harness)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "token"
        }

    def describe(self) -> str:
        limits = ", ".join(
            f"{name}={value}"
            for name, value in self.to_dict().items()
            if value is not None
        )
        return limits or "(unlimited)"


class Guard:
    """One armed :class:`Budget`: spend counters for a single execution."""

    __slots__ = (
        "budget",
        "steps",
        "nodes_scanned",
        "started",
        "_deadline",
        "_next_time_check",
    )

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.steps = 0
        self.nodes_scanned = 0
        self.started = time.perf_counter()
        self._deadline = (
            self.started + budget.deadline_seconds
            if budget.deadline_seconds is not None
            else None
        )
        self._next_time_check = TIME_CHECK_INTERVAL

    # -- spend accounting ---------------------------------------------------

    def tick(self, amount: int = 1, seam: str = "matcher step", depth: int | None = None) -> None:
        """Charge ``amount`` engine steps; the hot-loop entry point.  A
        matcher step passes its recursion ``depth``, checked next as
        :meth:`check_depth` would — one guard call per step."""
        self.steps += amount
        budget = self.budget
        if budget.max_steps is not None and self.steps > budget.max_steps:
            self._trip("max_steps", budget.max_steps, self.steps, seam)
        if self.steps >= self._next_time_check:
            self._next_time_check = self.steps + TIME_CHECK_INTERVAL
            self.check_now(seam)
        if depth is not None and budget.max_backtrack_depth is not None:
            self.check_depth(depth, seam)

    def charge_nodes(self, amount: int, seam: str = "storage scan") -> None:
        """Charge ``amount`` scanned nodes/objects/positions (cumulative)."""
        self.nodes_scanned += amount
        limit = self.budget.max_nodes_scanned
        if limit is not None and self.nodes_scanned > limit:
            self._trip("max_nodes_scanned", limit, self.nodes_scanned, seam)

    def check_depth(self, depth: int, seam: str, detail: str = "") -> None:
        """Trip when a backtracking recursion exceeds the depth budget."""
        limit = self.budget.max_backtrack_depth
        if limit is not None and depth > limit:
            self._trip("max_backtrack_depth", limit, depth, seam, detail)

    def check_results(self, count: int, seam: str) -> None:
        """Trip when one operator's output cardinality exceeds the budget."""
        limit = self.budget.max_results
        if limit is not None and count > limit:
            self._trip("max_results", limit, count, seam)

    def check_now(self, seam: str = "") -> None:
        """The periodic slow-path check: deadline and cancellation."""
        token = self.budget.token
        if token is not None and token.cancelled:
            raise QueryCancelledError(
                f"query cancelled after {self.elapsed():.3f}s"
                + (f" at {seam}" if seam else "")
            )
        if self._deadline is not None and time.perf_counter() > self._deadline:
            self._trip(
                "deadline_seconds",
                self.budget.deadline_seconds,
                round(self.elapsed(), 4),
                seam,
            )

    # -- reporting ----------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def usage(self) -> dict[str, float | int]:
        """Resource snapshot: what this execution has spent so far."""
        return {
            "steps": self.steps,
            "nodes_scanned": self.nodes_scanned,
            "elapsed_seconds": self.elapsed(),
        }

    def _trip(
        self,
        limit_name: str,
        limit: float | int | None,
        spent: float | int,
        seam: str,
        detail: str = "",
    ) -> None:
        # Function-level import: stats lives in the storage layer, which
        # itself imports this module — and a trip is a cold path anyway.
        from .storage import stats as stats_mod

        stats_mod.emit("budget_trips")
        where = f" at {seam}" if seam else ""
        extra = f": {detail}" if detail else ""
        raise ResourceExhaustedError(
            f"budget exhausted{where}: {limit_name}={limit} exceeded "
            f"(spent {spent}){extra}",
            limit_name=limit_name,
            limit=limit,
            spent=spent,
            seam=seam,
            usage=self.usage(),
        )

    def __repr__(self) -> str:
        return f"Guard({self.budget.describe()}, spent={self.usage()})"


# -- thread-local installation ---------------------------------------------

_local = threading.local()


def current_guard() -> Guard | None:
    """The guard armed on this thread, or ``None`` (no limits active)."""
    return getattr(_local, "guard", None)


def nullable_depth_limit() -> int:
    """Depth bound for nullability analysis under the active budget."""
    guard = current_guard()
    if guard is not None and guard.budget.max_backtrack_depth is not None:
        return guard.budget.max_backtrack_depth
    return DEFAULT_NULLABLE_DEPTH


@contextmanager
def guarded(budget: Budget | None = None) -> Iterator[Guard | None]:
    """Arm ``budget`` for this thread unless a guard is already active.

    The outermost scope wins: every engine entry point opens one of
    these, so a budget armed at the interpreter covers the pattern
    engines it calls into, while a bare ``find_tree_matches`` call still
    picks up the environment knobs.  With no limits configured the scope
    is free (no guard is installed and hot loops see ``None``).
    """
    active = getattr(_local, "guard", None)
    if active is not None:
        yield active
        return
    if budget is None:
        budget = Budget.from_env()
    if budget.is_unlimited:
        yield None
        return
    guard = Guard(budget)
    _local.guard = guard
    try:
        yield guard
    finally:
        # Restore the pre-scope value (always None here, since a live
        # guard short-circuits above) rather than assuming it: a budget
        # trip unwinding through this finally must leave the pool thread
        # exactly as it found it, or the next query scheduled on the
        # thread would inherit a spent guard.
        _local.guard = active
