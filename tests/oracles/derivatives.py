"""Brzozowski derivatives for list patterns (paper reference [4]).

The paper anchors its list-pattern language in the classical regular
expression literature and cites Brzozowski's derivatives directly.  A
derivative ``D_x(p)`` is the pattern matching exactly the tails of the
``p``-matches that begin with ``x``; membership testing is then just
iterated differentiation followed by a nullability check.

With a predicate alphabet the derivative is taken with respect to a
*concrete object*: each atom resolves to ε or ∅ depending on whether the
object satisfies it.  Smart constructors keep the derivative small.  The
suite uses this engine as a third independent implementation of the
pattern semantics.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import PatternError
from repro.patterns.list_ast import (
    EPSILON,
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


class Empty(ListPatternNode):
    """∅ — the pattern with the empty language (derivative-internal)."""

    def nullable(self) -> bool:
        return False

    def atoms(self):  # type: ignore[override]
        return iter(())

    def required_atoms(self):  # type: ignore[override]
        return frozenset()

    def min_length(self) -> int:
        return 0

    def max_length(self) -> int | None:
        return 0

    def describe(self) -> str:
        return "∅"


#: Shared ∅ instance.
EMPTY = Empty()


def _is_empty(node: ListPatternNode) -> bool:
    return isinstance(node, Empty)


def _is_epsilon(node: ListPatternNode) -> bool:
    return isinstance(node, Epsilon)


def _concat(a: ListPatternNode, b: ListPatternNode) -> ListPatternNode:
    if _is_empty(a) or _is_empty(b):
        return EMPTY
    if _is_epsilon(a):
        return b
    if _is_epsilon(b):
        return a
    return Concat([a, b])


def _union(a: ListPatternNode, b: ListPatternNode) -> ListPatternNode:
    if _is_empty(a):
        return b
    if _is_empty(b):
        return a
    if a == b:
        return a
    return Union([a, b])


def derivative(node: ListPatternNode, value: Any) -> ListPatternNode:
    """``D_value(node)``: the residual pattern after consuming ``value``."""
    if isinstance(node, (Empty, Epsilon)):
        return EMPTY
    if isinstance(node, Atom):
        return EPSILON if node.predicate(value) else EMPTY
    if isinstance(node, Concat):
        if not node.parts:
            return EMPTY
        head, *rest = node.parts
        tail: ListPatternNode = Concat(list(rest)) if len(rest) > 1 else (rest[0] if rest else EPSILON)
        result = _concat(derivative(head, value), tail)
        if head.nullable():
            result = _union(result, derivative(tail, value))
        return result
    if isinstance(node, Union):
        result: ListPatternNode = EMPTY
        for alternative in node.alternatives:
            result = _union(result, derivative(alternative, value))
        return result
    if isinstance(node, Star):
        return _concat(derivative(node.inner, value), Star(node.inner))
    if isinstance(node, Plus):
        return derivative(node.desugar(), value)
    if isinstance(node, Prune):
        # Language-transparent, like the automaton engines.
        return derivative(node.inner, value)
    raise PatternError(f"cannot differentiate {node!r}")


def deriv_accepts(pattern: ListPattern | ListPatternNode, values: Sequence[Any]) -> bool:
    """Language membership by iterated differentiation."""
    node = pattern.body if isinstance(pattern, ListPattern) else pattern
    for value in values:
        node = derivative(node, value)
        if _is_empty(node):
            return False
    return node.nullable()


def deriv_find_spans(
    pattern: ListPattern,
    values: Sequence[Any],
    starts: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """All ``(start, end)`` spans via derivatives (anchor-aware)."""
    n = len(values)
    if starts is None:
        candidate_starts: Sequence[int] = (0,) if pattern.anchor_start else range(n + 1)
    else:
        candidate_starts = sorted(set(starts))
        if pattern.anchor_start:
            candidate_starts = [s for s in candidate_starts if s == 0]
    spans: list[tuple[int, int]] = []
    for start in candidate_starts:
        if start > n:
            continue
        node = pattern.body
        position = start
        if node.nullable() and not (pattern.anchor_end and position != n):
            spans.append((start, position))
        while position < n:
            node = derivative(node, values[position])
            position += 1
            if _is_empty(node):
                break
            if node.nullable() and not (pattern.anchor_end and position != n):
                spans.append((start, position))
    return sorted(set(spans))
