"""The ``P → P'`` alphabet translation (paper §3.4) and a Python ``re`` bridge.

§3.4 reconciles pattern alphabets (predicates) with instance alphabets
(objects): replace each alphabet-predicate ``ap`` by the disjunction
``(x1 | x2 | ... | xn)`` of the database objects satisfying it; then a
sublist matches iff it is in the language of the translated pattern.

Two services are built on that idea:

* :func:`expand_alphabet` — the literal translation, producing a pattern
  over :class:`~repro.predicates.alphabet.SymbolEquals` atoms for a given
  finite universe.  This is the paper's formal device and also what an
  index-driven evaluator conceptually does.
* :func:`to_python_regex` — encode a concrete input sequence as one
  character per position and each atom as the character class of the
  positions satisfying it.  The result is a standard Python regex whose
  matches over the encoded string correspond one-to-one to the pattern's
  matches over the sequence.  The test suite uses this as an independent
  oracle for all four matching engines.
"""

from __future__ import annotations

import re
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
from repro.predicates.alphabet import AlphabetPredicate, SymbolEquals


def expand_alphabet(
    pattern: ListPattern | ListPatternNode, universe: Sequence[Any]
) -> ListPatternNode:
    """Rewrite every predicate atom as a disjunction over ``universe``.

    Opaque predicates are rejected — the translation requires the finite
    satisfying set to be enumerable, which the §3.1 restrictions
    guarantee for well-formed alphabet-predicates.
    """
    node = pattern.body if isinstance(pattern, ListPattern) else pattern
    return _expand(node, list(universe))


def _expand(node: ListPatternNode, universe: list[Any]) -> ListPatternNode:
    if isinstance(node, Epsilon):
        return node
    if isinstance(node, Atom):
        if node.predicate.opaque:
            raise PatternError(
                f"cannot expand opaque predicate {node.predicate.describe()!r}"
            )
        satisfying = [value for value in universe if node.predicate(value)]
        if not satisfying:
            # ∅ is not in the surface AST; an unsatisfiable one-element
            # pattern is the closest equivalent: an atom nothing satisfies.
            return Atom(SymbolEquals(_NOTHING))
        return Union([Atom(SymbolEquals(value)) for value in satisfying]) if len(
            satisfying
        ) > 1 else Atom(SymbolEquals(satisfying[0]))
    if isinstance(node, Concat):
        return Concat([_expand(p, universe) for p in node.parts])
    if isinstance(node, Union):
        return Union([_expand(a, universe) for a in node.alternatives])
    if isinstance(node, Star):
        return Star(_expand(node.inner, universe))
    if isinstance(node, Plus):
        return Plus(_expand(node.inner, universe))
    if isinstance(node, Prune):
        return Prune(_expand(node.inner, universe))
    raise PatternError(f"cannot expand {node!r}")


class _Nothing:
    def __repr__(self) -> str:
        return "<no-object>"


_NOTHING = _Nothing()

#: Characters assigned to element positions; beyond these the encoder
#: switches to plane-1 code points, so inputs of any realistic length work.
_FIRST_CODE_POINT = 0xE000  # private-use area: no regex metacharacters


def encode_sequence(values: Sequence[Any]) -> str:
    """One unique character per element position."""
    return "".join(chr(_FIRST_CODE_POINT + i) for i in range(len(values)))


def _char_class(predicate: AlphabetPredicate, values: Sequence[Any]) -> str:
    chars = [chr(_FIRST_CODE_POINT + i) for i, v in enumerate(values) if predicate(v)]
    if not chars:
        # An unmatchable single character: a class excluding every
        # position character (fails on any input element).
        return "[^\\u0000-\\U0010FFFF]"
    return "[" + "".join(chars) + "]"


def to_python_regex(
    pattern: ListPattern | ListPatternNode, values: Sequence[Any]
) -> str:
    """Translate the pattern into a Python regex over :func:`encode_sequence`.

    Prune markers become plain groups (they do not change the language).
    Anchors are *not* emitted — span enumeration handles them — so the
    regex corresponds to the floating body.
    """
    node = pattern.body if isinstance(pattern, ListPattern) else pattern
    return _regex(node, values)


def _regex(node: ListPatternNode, values: Sequence[Any]) -> str:
    if isinstance(node, Epsilon):
        return "(?:)"
    if isinstance(node, Atom):
        if node.predicate.opaque:
            # Opaque predicates still evaluate fine positionally.
            pass
        return _char_class(node.predicate, values)
    if isinstance(node, Concat):
        return "".join(_regex(p, values) for p in node.parts)
    if isinstance(node, Union):
        return "(?:" + "|".join(_regex(a, values) for a in node.alternatives) + ")"
    if isinstance(node, Star):
        return "(?:" + _regex(node.inner, values) + ")*"
    if isinstance(node, Plus):
        return "(?:" + _regex(node.inner, values) + ")+"
    if isinstance(node, Prune):
        return "(?:" + _regex(node.inner, values) + ")"
    raise PatternError(f"cannot translate {node!r} to a regex")


def regex_find_spans(pattern: ListPattern, values: Sequence[Any]) -> list[tuple[int, int]]:
    """Oracle span enumeration: ``re.fullmatch`` on every substring."""
    encoded = encode_sequence(values)
    compiled = re.compile(to_python_regex(pattern, values))
    n = len(values)
    starts = (0,) if pattern.anchor_start else range(n + 1)
    spans: list[tuple[int, int]] = []
    for start in starts:
        ends = (n,) if pattern.anchor_end else range(start, n + 1)
        for end in ends:
            if compiled.fullmatch(encoded, start, end) is not None:
                spans.append((start, end))
    return sorted(set(spans))
