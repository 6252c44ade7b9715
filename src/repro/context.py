"""One query's execution state, on this module's one thread-local slot.

A run's per-thread state lives in one :class:`QueryContext`: its
``guard`` (:class:`~repro.guardrails.Guard`, ``None`` for no limits),
its ``$param`` ``bindings``, its match ``registry``
(:class:`~repro.patterns.tree_memo.MatchContextRegistry`) and the
``receivers`` that hear :func:`emit` / :func:`emit_many` (a running
plan's :class:`~repro.storage.stats.RunCounters`, or a sink a caller
credits).  :func:`entered` arms them: ``PreparedQuery`` a run's guard,
bindings and registry in one ``with``, the plan its counters, and engine
entry points outside a run open a context only when none is active:

* **outermost wins** — the guard and the registry are armed by the first
  entry that brings one and joined by every nested entry, so a query run
  inside a ``sapply`` function shares its caller's budget and tables;
* **the environment is read once per run** — an entry's ``default``
  (the ``AQUA_*`` read) arms only while no entry has decided the guard,
  so an unbudgeted run's engines join its ``guard = None``, while an
  explicit budget still arms over a run that armed none;
* **bindings layer** — nested bindings merge over the outer ones;
* **receivers are credited once** — a receiver already heard (itself,
  or a run folding into it) is not added again, and a run displaces
  every receiver for its own sink;
* **nothing leaks** — what an entry armed is undone in one ``finally``,
  budget trips included, so a pool thread's next query starts clean.

A receiver needs only ``bump`` / ``add_many`` and a ``sink``, so the
module imports nothing from the package and every layer can use it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

#: ``QueryContext.guard`` until an entry decides it (a context opened only
#: for a receiver or a registry); ``guardrails.current_guard`` reads ``None``.
UNARMED: Any = object()


class QueryContext:
    """The state one query run shares across the layers it crosses."""

    __slots__ = ("guard", "bindings", "registry", "receivers")

    def __init__(self) -> None:
        self.guard: Any = UNARMED
        self.bindings: Mapping[str, Any] | None = None
        self.registry: Any = None
        self.receivers: tuple = ()


_local = threading.local()


def current() -> QueryContext | None:
    """The context armed on this thread, or ``None`` (no query running)."""
    return getattr(_local, "context", None)


def _credited(receivers: tuple, receiver: Any) -> tuple:
    if not receivers:
        return (receiver,)
    if any(heard is receiver or heard.sink is receiver for heard in receivers):
        return receivers
    sink = receiver.sink
    return (*(heard for heard in receivers if heard.sink is not sink), receiver)


@contextmanager
def entered(
    arm: Callable[[], Any] | None = None,
    *,
    default: Callable[[], Any] | None = None,
    registry: Callable[[], Any] | None = None,
    bindings: Mapping[str, Any] | None = None,
    receiver: Any = None,
) -> Iterator[QueryContext]:
    """Join this thread's context, or open one when none is active.

    ``arm`` makes the guard from an explicit budget, called when no guard
    is live; ``default`` makes it for an entry with no budget of its own,
    called only when no entry has decided the guard yet.  ``registry``
    makes the match registry when none is armed; ``bindings`` merge over
    the outer ones; ``receiver`` hears :func:`emit` for the block.  An
    opened context with nothing armed is yielded but not installed.
    """
    ctx = getattr(_local, "context", None)
    opened = ctx is None
    if opened:
        ctx = QueryContext()
    outer_guard = ctx.guard
    if arm is not None and outer_guard in (None, UNARMED):
        ctx.guard = arm()
    elif default is not None and outer_guard is UNARMED:
        ctx.guard = default()
    armed = ctx.guard is not outer_guard
    scoped = registry is not None and ctx.registry is None
    if scoped:
        ctx.registry = registry()
    outer_bindings, outer_receivers = ctx.bindings, ctx.receivers
    if bindings:
        ctx.bindings = {**outer_bindings, **bindings} if outer_bindings else dict(bindings)
    if receiver is not None:
        ctx.receivers = _credited(outer_receivers, receiver)
    credited = ctx.receivers is not outer_receivers
    installed = opened and (
        ctx.guard not in (None, UNARMED) or scoped or bool(ctx.bindings or credited)
    )
    if installed:
        _local.context = ctx
    try:
        yield ctx
    finally:
        # Undo only what this entry changed (a generator closed late may
        # unwind out of order), and never clear another thread's context
        # (a generator may be finalized there).
        if armed:
            ctx.guard = outer_guard
        if scoped:
            ctx.registry = None
        if bindings:
            ctx.bindings = outer_bindings
        if credited:
            ctx.receivers = outer_receivers
        if installed and getattr(_local, "context", None) is ctx:
            _local.context = None


# -- counter hooks ---------------------------------------------------------------


def emit(name: str, amount: int = 1) -> None:
    """Credit ``amount`` to every receiver listening on this thread (the
    hook for layers with no database handle; a no-op when none is)."""
    ctx = getattr(_local, "context", None)
    if ctx is not None:
        for receiver in ctx.receivers:
            receiver.bump(name, amount)


def emit_many(counts: Mapping[str, int]) -> None:
    """Credit a batch: engines count plain ints in their hot loops and
    flush them here as they hand a match (or a batch) over."""
    ctx = getattr(_local, "context", None)
    if ctx is not None:
        for receiver in ctx.receivers:
            receiver.add_many(counts)


def receiving() -> bool:
    """Is any receiver listening?  An engine asks before it builds a
    counter batch, so an unobserved run builds none."""
    ctx = getattr(_local, "context", None)
    return ctx is not None and bool(ctx.receivers)
