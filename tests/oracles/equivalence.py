"""Decision procedures for list patterns: equivalence and containment.

The rewrite framework of [31] needs to know when one pattern can replace
another.  Because list patterns are regular expressions over a *finite
set of alphabet-predicates*, the classical product construction decides
these questions exactly: an input element is fully characterized by its
**outcome vector** — which of the patterns' atom predicates it satisfies
— so the effective alphabet is the (finite) set of boolean vectors, and
language questions reduce to a reachability search over pairs of
determinized states.

* :func:`patterns_equivalent` — ``L(p) = L(q)``;
* :func:`pattern_subsumes` — ``L(p) ⊇ L(q)``;
* :func:`pattern_language_empty` — ``L(p) = ∅`` (e.g. after the §3.4
  alphabet translation against a universe that satisfies nothing);
* :func:`distinguishing_vector` — a witness word (as outcome vectors)
  accepted by exactly one of the two patterns, for diagnostics.

Semantics note: equivalence is over *abstract* predicate outcomes.  Two
patterns equivalent here are equivalent over every database; patterns
that differ only on unrealizable vectors (e.g. an element satisfying
both ``x = 'a'`` and ``x = 'b'``) may still behave identically in
practice — this procedure is sound for rewrites, conservatively strict.
"""

from __future__ import annotations

from itertools import product as cartesian_product
from typing import Sequence

from repro.errors import PatternError
from repro.patterns.list_ast import ListPattern, ListPatternNode
from repro.predicates.alphabet import AlphabetPredicate

from .nfa import NFA, compile_nfa


def _as_node(pattern: "ListPattern | ListPatternNode") -> ListPatternNode:
    if isinstance(pattern, ListPattern):
        if pattern.anchor_start or pattern.anchor_end:
            raise PatternError(
                "equivalence is defined on pattern bodies; anchors restrict"
                " placement, not language"
            )
        return pattern.body
    return pattern


class _VectorDFA:
    """Lazy determinization of an NFA over shared outcome vectors."""

    def __init__(self, nfa: NFA, atoms: Sequence[AlphabetPredicate]) -> None:
        self._nfa = nfa
        atom_index = {a: i for i, a in enumerate(atoms)}
        self._arcs: list[list[tuple[int, int]]] = [
            [(atom_index[predicate], target) for predicate, target in arcs]
            for arcs in nfa.transitions
        ]
        self.start = nfa.eps_closure([nfa.start])

    def accepting(self, states: frozenset[int]) -> bool:
        return self._nfa.accept in states

    def step(self, states: frozenset[int], vector: tuple[bool, ...]) -> frozenset[int]:
        moved: set[int] = set()
        for state in states:
            for slot, target in self._arcs[state]:
                if vector[slot]:
                    moved.add(target)
        if not moved:
            return frozenset()
        return self._nfa.eps_closure(moved)


def _shared_atoms(
    p: ListPatternNode, q: ListPatternNode
) -> list[AlphabetPredicate]:
    atoms: list[AlphabetPredicate] = []
    for node in (p, q):
        for atom in node.atoms():
            if atom not in atoms:
                atoms.append(atom)
    return atoms


_MAX_ATOMS = 14


def _vectors(atoms: Sequence[AlphabetPredicate]) -> list[tuple[bool, ...]]:
    """All semantically possible outcome vectors.

    The one predicate whose outcome is knowable abstractly is the
    always-true ``?``: its slot is pinned True (a vector with ``?``
    False describes no object).  Other predicate combinations are kept
    even when mutually exclusive in practice — see the module note on
    conservative strictness.
    """
    from repro.predicates.alphabet import TruePredicate

    choices = [
        ((True,) if isinstance(atom, TruePredicate) else (False, True))
        for atom in atoms
    ]
    return [tuple(v) for v in cartesian_product(*choices)]


def distinguishing_vector(
    p: "ListPattern | ListPatternNode", q: "ListPattern | ListPatternNode"
) -> list[tuple[bool, ...]] | None:
    """A word (sequence of outcome vectors) accepted by exactly one of
    ``p``/``q``, or None when the patterns are equivalent."""
    p_node, q_node = _as_node(p), _as_node(q)
    atoms = _shared_atoms(p_node, q_node)
    if len(atoms) > _MAX_ATOMS:
        raise PatternError(
            f"equivalence over {len(atoms)} distinct predicates is too large"
            f" (max {_MAX_ATOMS})"
        )
    dfa_p = _VectorDFA(compile_nfa(p_node), atoms)
    dfa_q = _VectorDFA(compile_nfa(q_node), atoms)

    start = (dfa_p.start, dfa_q.start)
    seen = {start}
    frontier: list[tuple[tuple[frozenset[int], frozenset[int]], list]] = [(start, [])]
    vectors = _vectors(atoms)
    while frontier:
        (sp, sq), path = frontier.pop()
        if dfa_p.accepting(sp) != dfa_q.accepting(sq):
            return path
        for vector in vectors:
            np_, nq = dfa_p.step(sp, vector), dfa_q.step(sq, vector)
            if not np_ and not nq:
                continue
            pair = (np_, nq)
            if pair not in seen:
                seen.add(pair)
                frontier.append((pair, path + [vector]))
    return None


def patterns_equivalent(
    p: "ListPattern | ListPatternNode", q: "ListPattern | ListPatternNode"
) -> bool:
    """``L(p) == L(q)`` over abstract predicate outcomes."""
    return distinguishing_vector(p, q) is None


def pattern_subsumes(
    p: "ListPattern | ListPatternNode", q: "ListPattern | ListPatternNode"
) -> bool:
    """``L(p) ⊇ L(q)``: every ``q``-word is a ``p``-word."""
    p_node, q_node = _as_node(p), _as_node(q)
    atoms = _shared_atoms(p_node, q_node)
    if len(atoms) > _MAX_ATOMS:
        raise PatternError(
            f"containment over {len(atoms)} distinct predicates is too large"
            f" (max {_MAX_ATOMS})"
        )
    dfa_p = _VectorDFA(compile_nfa(p_node), atoms)
    dfa_q = _VectorDFA(compile_nfa(q_node), atoms)

    start = (dfa_p.start, dfa_q.start)
    seen = {start}
    frontier = [start]
    vectors = _vectors(atoms)
    while frontier:
        sp, sq = frontier.pop()
        if dfa_q.accepting(sq) and not dfa_p.accepting(sp):
            return False
        for vector in vectors:
            nq = dfa_q.step(sq, vector)
            if not nq:
                continue  # q rejects all extensions: nothing to contain
            np_ = dfa_p.step(sp, vector)
            pair = (np_, nq)
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return True


def pattern_language_empty(pattern: "ListPattern | ListPatternNode") -> bool:
    """Is the pattern's language empty over abstract outcomes?

    (For patterns built from satisfiable predicates, emptiness only
    arises through ∅ leaves introduced by translations.)
    """
    node = _as_node(pattern)
    atoms = [a for a in _shared_atoms(node, node)]
    if len(atoms) > _MAX_ATOMS:
        raise PatternError("emptiness check over too many predicates")
    dfa = _VectorDFA(compile_nfa(node), atoms)
    seen = {dfa.start}
    frontier = [dfa.start]
    vectors = _vectors(atoms)
    while frontier:
        states = frontier.pop()
        if dfa.accepting(states):
            return False
        for vector in vectors:
            nxt = dfa.step(states, vector)
            if nxt and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True
