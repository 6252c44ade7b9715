"""List-pattern matching with prune capture (paper §3.2, §3.4).

This is the one list-pattern engine every query runs: a backtracking
interpreter over the pattern AST that enumerates **every** matching
sublist, tracking which elements a ``!`` prune marker removes from the
returned piece.  The tests check its spans against three independent
oracles (ε-NFA simulation, Brzozowski derivatives and Python ``re``).

A match is reported as a :class:`ListMatch`:

* ``start``/``end`` — element positions of the matched sublist (end
  exclusive),
* ``kept`` — positions that remain in the returned piece,
* ``pruned_runs`` — maximal runs of pruned positions, in order; each run
  corresponds to one concatenation point ``αi`` in the piece that
  ``split`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .. import context as query_context
from .. import guardrails
from ..errors import PatternError
from ..faults import fault_point
from .list_ast import (
    Atom,
    Concat,
    Epsilon,
    ListPattern,
    ListPatternNode,
    Plus,
    Prune,
    Star,
    Union,
)

# An event is (element_position, prune_token); prune_token is None for kept
# elements and a unique object per prune-marker *activation* otherwise.
_Events = tuple[tuple[int, object | None], ...]


@dataclass(frozen=True)
class ListMatch:
    """One occurrence of a pattern in a list."""

    start: int
    end: int
    kept: tuple[int, ...]
    pruned_runs: tuple[tuple[int, ...], ...]

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def length(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"ListMatch({self.start}:{self.end}, kept={list(self.kept)},"
            f" pruned={[list(r) for r in self.pruned_runs]})"
        )


class _Matcher:
    """Backtracking interpreter; one instance per (pattern, sequence).

    Derivations only need to be enumerated where prune structure can
    differ.  A subpattern with no ``!`` beneath it is *span-determined*
    (every derivation keeps exactly the consumed elements), and since
    prune markers cannot nest, a prune's inner pattern is always
    span-determined too.  Both cases therefore delegate to the
    polynomial memoized span matcher; only the combinator structure
    *above* prune markers backtracks.  This keeps ``split`` exact while
    avoiding the exponential derivation walk for the common patterns
    (cf. footnote 3 — the residual exponential cases are closures over
    alternatives that differ only in pruning).
    """

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = values
        self._spans = _SpanMatcher(values)
        self._prune_free: dict[int, bool] = {}
        #: Derivation steps explored (the backtracking work §3.4's
        #: engines avoid); plain int in the hot loop, flushed in bulk.
        self.backtrack_steps = 0
        self.predicate_evals = 0
        #: The budget armed on this thread, if any (one ``is None`` test
        #: per derivation step when unbudgeted).
        self.guard = guardrails.current_guard()

    def emit_stats(self) -> None:
        if query_context.receiving():
            query_context.emit_many(
                {
                    "backtrack_steps": self.backtrack_steps,
                    "predicate_evals": self.predicate_evals
                    + self._spans.predicate_evals,
                }
            )

    def flush_stats(self) -> None:
        """Emit accumulated counters and reset them (at batch hand-over)."""
        self.emit_stats()
        self.backtrack_steps = 0
        self.predicate_evals = 0
        self._spans.predicate_evals = 0

    def _is_prune_free(self, node: ListPatternNode) -> bool:
        cached = self._prune_free.get(id(node))
        if cached is None:
            cached = not node.contains_prune()
            self._prune_free[id(node)] = cached
        return cached

    def match(
        self, node: ListPatternNode, pos: int, depth: int = 0
    ) -> Iterator[tuple[int, _Events]]:
        """Yield ``(end, events)`` for every way ``node`` matches at ``pos``."""
        self.backtrack_steps += 1
        if self.guard is not None:
            self.guard.tick(1, "list matcher", depth)
        if self._is_prune_free(node):
            for end in sorted(self._spans.ends(node, pos)):
                yield end, tuple((i, None) for i in range(pos, end))
            return
        if isinstance(node, Prune):
            # Prunes cannot nest: the inner pattern is span-determined,
            # and every derivation prunes exactly the consumed segment.
            for end in sorted(self._spans.ends(node.inner, pos)):
                token = object()  # fresh per activation
                yield end, tuple((i, token) for i in range(pos, end))
            return
        if isinstance(node, Epsilon):
            yield pos, ()
        elif isinstance(node, Atom):
            if pos < len(self.values):
                self.predicate_evals += 1
                test = self._spans.tests.get(id(node)) or self._spans.compile(node)
                if test(self.values[pos]):
                    yield pos + 1, ((pos, None),)
        elif isinstance(node, Concat):
            yield from self._match_concat(node.parts, 0, pos, depth + 1)
        elif isinstance(node, Union):
            for alternative in node.alternatives:
                yield from self.match(alternative, pos, depth + 1)
        elif isinstance(node, Plus):
            yield from self.match(node.desugar(), pos, depth + 1)
        elif isinstance(node, Star):
            yield from self._match_star(node.inner, pos, depth + 1)
        else:  # pragma: no cover - exhaustiveness guard
            raise PatternError(f"unknown pattern node {node!r}")

    def _match_concat(
        self, parts: Sequence[ListPatternNode], index: int, pos: int, depth: int = 0
    ) -> Iterator[tuple[int, _Events]]:
        if index == len(parts):
            yield pos, ()
            return
        for mid, head_events in self.match(parts[index], pos, depth):
            for end, tail_events in self._match_concat(parts, index + 1, mid, depth + 1):
                yield end, head_events + tail_events

    def _match_star(
        self, inner: ListPatternNode, pos: int, depth: int = 0
    ) -> Iterator[tuple[int, _Events]]:
        # Depth-first over iteration counts; only zero-progress-free paths
        # recurse, so nullable inner patterns cannot loop forever.
        yield pos, ()
        for mid, head_events in self.match(inner, pos, depth):
            if mid == pos:
                continue
            for end, tail_events in self._match_star(inner, mid, depth + 1):
                yield end, head_events + tail_events


def _normalize(start: int, end: int, events: _Events) -> ListMatch:
    kept: list[int] = []
    runs: list[list[int]] = []
    current_token: object | None = None
    ordered = sorted(events, key=lambda e: e[0])
    for index, token in ordered:
        if token is None:
            kept.append(index)
            current_token = None
        else:
            if token is not current_token:
                runs.append([])
                current_token = token
            runs[-1].append(index)
    return ListMatch(
        start=start,
        end=end,
        kept=tuple(kept),
        pruned_runs=tuple(tuple(run) for run in runs),
    )


def find_list_matches(
    pattern: ListPattern,
    values: Sequence[Any],
    limit: int | None = None,
    starts: Sequence[int] | None = None,
) -> list[ListMatch]:
    """Enumerate the distinct matches of ``pattern`` in ``values``.

    ``starts`` optionally restricts candidate start positions — this is
    the hook the optimizer uses after an index narrowed the search space.
    Results are deduplicated (two derivations with the same span and the
    same kept/pruned structure count once) and ordered by (start, end).
    """
    with query_context.entered(default=guardrails.env_guard):
        return _find_list_matches(pattern, values, limit, starts)


def _find_list_matches(
    pattern: ListPattern,
    values: Sequence[Any],
    limit: int | None = None,
    starts: Sequence[int] | None = None,
) -> list[ListMatch]:
    results: list[ListMatch] = []
    for match in iter_list_matches(pattern, values, starts=starts):
        results.append(match)
        if limit is not None and len(results) >= limit:
            break
    return results


def iter_list_matches(
    pattern: ListPattern,
    values: Sequence[Any],
    starts: Iterable[int] | None = None,
    on_start: "Callable[[int], None] | None" = None,
    batch: int = 1,
) -> Iterator[ListMatch]:
    """Lazily enumerate distinct matches in ``(start, end)`` order.

    Candidate start positions ascend, so sorting each start's batch of
    matches by end position reproduces the eager function's global
    ``(start, end)`` ordering without materializing the full result —
    only one start's matches are ever buffered at a time.

    ``starts`` may come in any order, duplicates included (they are
    sorted and deduplicated here, once).  ``on_start`` is invoked once
    per candidate start before matching there (the scan operators'
    position-charging hook).  Matcher counters are flushed once per
    ``batch`` matches handed over (the pulling operator passes its run's
    batch size) — before the start's matches that reach it — and once
    when the stream ends, so they land in the pulling operator's scope.
    """
    with query_context.entered(default=guardrails.env_guard):
        matcher = _Matcher(values)
        n = len(values)
        if starts is None:
            candidate_starts: Sequence[int] = (
                (0,) if pattern.anchor_start else range(n + 1)
            )
        else:
            candidate_starts = sorted(set(starts))
            if pattern.anchor_start:
                candidate_starts = [s for s in candidate_starts if s == 0]

        seen: set[tuple[Any, ...]] = set()
        pending = 0
        try:
            for start in candidate_starts:
                if start > n:
                    continue
                fault_point("matcher_step")
                if on_start is not None:
                    on_start(start)
                found: list[ListMatch] = []
                for end, events in matcher.match(pattern.body, start):
                    if pattern.anchor_end and end != n:
                        continue
                    match = _normalize(start, end, events)
                    key = (match.start, match.end, match.kept, match.pruned_runs)
                    if key in seen:
                        continue
                    seen.add(key)
                    found.append(match)
                if found:
                    found.sort(key=lambda m: (m.start, m.end))
                    if (pending := pending + len(found)) >= batch:
                        matcher.flush_stats()
                        pending = 0
                    yield from found
        finally:
            matcher.emit_stats()


class _SpanMatcher:
    """Polynomial span computation via memoized end-sets.

    ``ends(node, pos)`` is the set of positions where a match of
    ``node`` beginning at ``pos`` can end.  Memoizing on ``(node, pos)``
    collapses the exponentially many derivations the backtracking
    matcher distinguishes (it must — pruning structure differs), which
    is exactly why span queries stay tractable while full ``split``
    enumeration is worst-case exponential (paper footnote 3).
    """

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = values
        self._memo: dict[tuple[int, int], frozenset[int]] = {}
        self.predicate_evals = 0
        self.guard = guardrails.current_guard()
        #: Compiled atom tests by atom id (shared with the backtracking
        #: matcher that owns this one), made on first use: a ``$param``
        #: is read once per matcher, i.e. once per run, not per element.
        self.tests: dict[int, Callable[[Any], bool]] = {}

    def compile(self, atom: Atom) -> Callable[[Any], bool]:
        predicate = atom.predicate
        test = self.tests[id(atom)] = predicate.compile() or predicate
        return test

    def ends(self, node: ListPatternNode, pos: int) -> frozenset[int]:
        key = (id(node), pos)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.guard is not None:
            self.guard.tick(1, "span matcher")
        result = self._compute(node, pos)
        self._memo[key] = result
        return result

    def _compute(self, node: ListPatternNode, pos: int) -> frozenset[int]:
        if isinstance(node, Epsilon):
            return frozenset((pos,))
        if isinstance(node, Atom):
            if pos < len(self.values):
                self.predicate_evals += 1
                test = self.tests.get(id(node)) or self.compile(node)
                if test(self.values[pos]):
                    return frozenset((pos + 1,))
            return frozenset()
        if isinstance(node, Concat):
            current = frozenset((pos,))
            for part in node.parts:
                current = frozenset(
                    end for mid in current for end in self.ends(part, mid)
                )
                if not current:
                    break
            return current
        if isinstance(node, Union):
            result: frozenset[int] = frozenset()
            for alternative in node.alternatives:
                result |= self.ends(alternative, pos)
            return result
        if isinstance(node, Plus):
            return self._star_from(node.inner, self.ends(node.inner, pos))
        if isinstance(node, Star):
            return self._star_from(node.inner, frozenset((pos,)))
        if isinstance(node, Prune):
            return self.ends(node.inner, pos)
        raise PatternError(f"unknown pattern node {node!r}")

    def _star_from(self, inner: ListPatternNode, initial: frozenset[int]) -> frozenset[int]:
        reached = set(initial)
        frontier = list(initial)
        while frontier:
            position = frontier.pop()
            for end in self.ends(inner, position):
                if end not in reached:
                    reached.add(end)
                    frontier.append(end)
        return frozenset(reached)


def find_spans(
    pattern: ListPattern,
    values: Sequence[Any],
    starts: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """All distinct ``(start, end)`` spans matched by ``pattern``.

    Polynomial (memoized), unlike :func:`find_list_matches` which must
    enumerate derivations to carry prune structure.
    """
    with query_context.entered(default=guardrails.env_guard):
        fault_point("matcher_step")
        matcher = _SpanMatcher(values)
        n = len(values)
        if starts is None:
            candidate_starts: Sequence[int] = (
                (0,) if pattern.anchor_start else range(n + 1)
            )
        else:
            candidate_starts = sorted(set(starts))
            if pattern.anchor_start:
                candidate_starts = [s for s in candidate_starts if s == 0]
        spans: list[tuple[int, int]] = []
        try:
            for start in candidate_starts:
                if start > n:
                    continue
                for end in matcher.ends(pattern.body, start):
                    if pattern.anchor_end and end != n:
                        continue
                    spans.append((start, end))
        finally:
            query_context.emit_many({"predicate_evals": matcher.predicate_evals})
        return sorted(set(spans))


def matches_whole(pattern: ListPattern, values: Sequence[Any]) -> bool:
    """Does the *entire* sequence belong to the pattern's language?

    Anchoring is forced on both ends regardless of the pattern's own
    anchors — this is language membership, the ``I ∈ L(P')`` of §3.4.
    """
    with query_context.entered(default=guardrails.env_guard):
        fault_point("matcher_step")
        matcher = _SpanMatcher(values)
        try:
            return len(values) in matcher.ends(pattern.body, 0)
        finally:
            query_context.emit_many({"predicate_evals": matcher.predicate_evals})
