"""Thompson construction of an ε-NFA from a list pattern.

The paper grounds its predicate language in classical regular-expression
theory ("the expressiveness and tractability of regular expressions is
well known", §1).  This module supplies the tractable half: an ε-NFA
whose transitions are labeled with alphabet-predicates, simulated in
O(|pattern| · |input|) per start position, independent of how ambiguous
the pattern is.  Prune markers are transparent here — the NFA answers
*language* questions (membership, spans); prune structure comes from the
backtracking engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import PatternError
from repro.patterns.list_ast import (
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
from repro.predicates.alphabet import AlphabetPredicate


@dataclass
class NFA:
    """An ε-NFA over alphabet-predicate labels.

    ``transitions[state]`` is a list of ``(predicate, target)`` pairs;
    ``epsilon[state]`` is a list of targets reachable for free.
    """

    start: int
    accept: int
    transitions: list[list[tuple[AlphabetPredicate, int]]] = field(default_factory=list)
    epsilon: list[list[int]] = field(default_factory=list)

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def atom_predicates(self) -> list[AlphabetPredicate]:
        """Distinct transition predicates, in first-use order."""
        seen: list[AlphabetPredicate] = []
        for arcs in self.transitions:
            for predicate, _ in arcs:
                if predicate not in seen:
                    seen.append(predicate)
        return seen

    # -- simulation ---------------------------------------------------------

    def eps_closure(self, states: Iterable[int]) -> frozenset[int]:
        stack = list(states)
        closure = set(stack)
        while stack:
            state = stack.pop()
            for target in self.epsilon[state]:
                if target not in closure:
                    closure.add(target)
                    stack.append(target)
        return frozenset(closure)

    def step(self, states: frozenset[int], value: Any) -> frozenset[int]:
        """One input element: predicate transitions then ε-closure."""
        moved: set[int] = set()
        for state in states:
            for predicate, target in self.transitions[state]:
                if predicate(value):
                    moved.add(target)
        if not moved:
            return frozenset()
        return self.eps_closure(moved)

    def accepts(self, values: Sequence[Any]) -> bool:
        states = self.eps_closure([self.start])
        for value in values:
            states = self.step(states, value)
            if not states:
                return False
        return self.accept in states

    def ends_from(self, values: Sequence[Any], start: int) -> list[int]:
        """All end positions of matches beginning at ``start``."""
        ends: list[int] = []
        states = self.eps_closure([self.start])
        position = start
        if self.accept in states:
            ends.append(position)
        while position < len(values) and states:
            states = self.step(states, values[position])
            position += 1
            if self.accept in states:
                ends.append(position)
        return ends


class _Builder:
    def __init__(self) -> None:
        self.transitions: list[list[tuple[AlphabetPredicate, int]]] = []
        self.epsilon: list[list[int]] = []

    def new_state(self) -> int:
        self.transitions.append([])
        self.epsilon.append([])
        return len(self.transitions) - 1

    def add_eps(self, source: int, target: int) -> None:
        self.epsilon[source].append(target)

    def add_arc(self, source: int, predicate: AlphabetPredicate, target: int) -> None:
        self.transitions[source].append((predicate, target))

    def build(self, node: ListPatternNode) -> tuple[int, int]:
        """Thompson fragment: returns ``(entry, exit)`` states."""
        if isinstance(node, Epsilon):
            entry = self.new_state()
            exit_ = self.new_state()
            self.add_eps(entry, exit_)
            return entry, exit_
        if isinstance(node, Atom):
            entry = self.new_state()
            exit_ = self.new_state()
            self.add_arc(entry, node.predicate, exit_)
            return entry, exit_
        if isinstance(node, Concat):
            if not node.parts:
                return self.build(Epsilon())
            entry, current_exit = self.build(node.parts[0])
            for part in node.parts[1:]:
                part_entry, part_exit = self.build(part)
                self.add_eps(current_exit, part_entry)
                current_exit = part_exit
            return entry, current_exit
        if isinstance(node, Union):
            entry = self.new_state()
            exit_ = self.new_state()
            for alternative in node.alternatives:
                alt_entry, alt_exit = self.build(alternative)
                self.add_eps(entry, alt_entry)
                self.add_eps(alt_exit, exit_)
            return entry, exit_
        if isinstance(node, Star):
            entry = self.new_state()
            exit_ = self.new_state()
            inner_entry, inner_exit = self.build(node.inner)
            self.add_eps(entry, inner_entry)
            self.add_eps(entry, exit_)
            self.add_eps(inner_exit, inner_entry)
            self.add_eps(inner_exit, exit_)
            return entry, exit_
        if isinstance(node, Plus):
            return self.build(node.desugar())
        if isinstance(node, Prune):
            # Language-transparent: pruning affects results, not matching.
            return self.build(node.inner)
        raise PatternError(f"unknown pattern node {node!r}")


def compile_nfa(pattern: ListPattern | ListPatternNode) -> NFA:
    """Compile a list pattern (anchors excluded) into an ε-NFA."""
    body = pattern.body if isinstance(pattern, ListPattern) else pattern
    builder = _Builder()
    start, accept = builder.build(body)
    return NFA(
        start=start,
        accept=accept,
        transitions=builder.transitions,
        epsilon=builder.epsilon,
    )


def nfa_find_spans(
    pattern: ListPattern,
    values: Sequence[Any],
    starts: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """All ``(start, end)`` spans via NFA simulation (anchor-aware)."""
    nfa = compile_nfa(pattern)
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
        for end in nfa.ends_from(values, start):
            if pattern.anchor_end and end != n:
                continue
            spans.append((start, end))
    return sorted(set(spans))
