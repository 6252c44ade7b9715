"""Parser for list-pattern notation (paper §3.2).

Examples::

    [A??F]                      # melody: A, any, any, F
    [d [[a c]]* b]              # [d] ∘ [ac]* ∘ [b]
    ^[{age > 25} ?*]$           # anchored; embedded predicate text
    [x !?* y]                   # prune the middle run (§3.4)

Grammar::

    pattern     := '^'? body '$'?
    body        := '[' alternation ']' | alternation
    alternation := sequence ( '|' sequence )*
    sequence    := item+
    item        := '!'? base ( '*' | '+' )*
    base        := '?' | SYMBOL | '{' predicate-text '}'
                 | '[[' alternation ']]'

Bare symbols are resolved to alphabet-predicates by the ``resolver``
argument (default: :class:`~repro.predicates.alphabet.SymbolEquals`,
matching the payload directly — the figure-style string trees).  Domain
code typically passes a resolver like ``lambda s: attr("pitch") == s``.
"""

from __future__ import annotations

from typing import Callable

from ..context import emit
from ..errors import NotationError, PatternError
from ..predicates.alphabet import AlphabetPredicate, SymbolEquals
from ..predicates.parser import parse_predicate
from .list_ast import (
    EPSILON,
    Atom,
    Concat,
    ListPattern,
    ListPatternNode,
    Plus,
    Prune,
    Star,
    Union,
    any_element,
)
from .pattern_tokens import COMPILED, PatternTokenStream, tokenize_pattern

SymbolResolver = Callable[[str], AlphabetPredicate]


def default_resolver(symbol: str) -> AlphabetPredicate:
    return SymbolEquals(symbol)


def parse_list_pattern(text: str, resolver: SymbolResolver | None = None) -> ListPattern:
    """Parse list-pattern text into a :class:`ListPattern`."""
    # Counts pattern compilations for EXPLAIN ANALYZE and the plan
    # cache's warm-path check (see tree_parser.parse_tree_pattern).
    emit("pattern_compilations")
    resolver = resolver or default_resolver
    stream = PatternTokenStream(tokenize_pattern(text), text)

    anchor_start = stream.match("top") is not None
    # An odd total of '[' characters means a single outer pattern bracket
    # wraps the body (groups always contribute balanced pairs).
    bracketed = stream.open_bracket_count() % 2 == 1
    if bracketed and not stream.match_single_open():
        leftover = stream.peek()
        raise NotationError(
            "expected '[' to open the pattern",
            text,
            leftover.position if leftover else 0,
        )

    body = _alternation(stream, resolver)

    anchor_end = False
    if bracketed:
        # `$` may sit just inside the closing bracket: [abc$]
        if stream.match("bottom") is not None:
            anchor_end = True
        stream.expect_single_close()
    if stream.match("bottom") is not None:
        anchor_end = True
    # `^` may also sit just inside the opening bracket; handled by grammar
    # only at the very front, so reject anything left over.
    if not stream.exhausted:
        leftover = stream.peek()
        assert leftover is not None
        raise NotationError("trailing input after pattern", text, leftover.position)
    return ListPattern(body, anchor_start=anchor_start, anchor_end=anchor_end)


def _alternation(stream: PatternTokenStream, resolver: SymbolResolver) -> ListPatternNode:
    alternatives = [_sequence(stream, resolver)]
    while stream.match("pipe") is not None:
        alternatives.append(_sequence(stream, resolver))
    if len(alternatives) == 1:
        return alternatives[0]
    return Union(alternatives)


_SEQUENCE_STARTS = {"any", "sym", "pred", "bang"}


def _sequence(stream: PatternTokenStream, resolver: SymbolResolver) -> ListPatternNode:
    parts: list[ListPatternNode] = []
    while True:
        token = stream.peek()
        if token is None:
            break
        if token.kind not in _SEQUENCE_STARTS and not stream.at_group_open():
            break
        parts.append(_item(stream, resolver))
    if not parts:
        return EPSILON
    if len(parts) == 1:
        return parts[0]
    return Concat(parts)


def _item(stream: PatternTokenStream, resolver: SymbolResolver) -> ListPatternNode:
    pruned = stream.match("bang") is not None
    node = _base(stream, resolver)
    while True:
        if stream.match("star") is not None:
            node = Star(node)
        elif stream.match("plus") is not None:
            node = Plus(node)
        else:
            break
    if pruned:
        node = Prune(node)
    return node


def _base(stream: PatternTokenStream, resolver: SymbolResolver) -> ListPatternNode:
    if stream.match_group_open():
        inner = _alternation(stream, resolver)
        stream.expect_group_close()
        return inner
    token = stream.next()
    if token.kind == "any":
        return any_element()
    if token.kind == "sym":
        return Atom(resolver(token.text))
    if token.kind == "pred":
        return Atom(parse_predicate(token.text))
    raise NotationError(
        f"unexpected {token.text!r} in list pattern", stream.text, token.position
    )


def list_pattern(
    source: "str | ListPattern | ListPatternNode | AlphabetPredicate",
    resolver: SymbolResolver | None = None,
) -> ListPattern:
    """Coerce any reasonable input into a :class:`ListPattern`.

    Accepts pattern text, a ready pattern, a bare AST node, or a single
    alphabet-predicate (which becomes a one-element pattern).  Text is
    compiled once per (text, resolver) and shared — see
    :class:`~repro.patterns.pattern_tokens.CompileCache`; call
    :func:`parse_list_pattern` for a private copy.
    """
    if isinstance(source, ListPattern):
        return source
    if isinstance(source, ListPatternNode):
        return ListPattern(source)
    if isinstance(source, AlphabetPredicate):
        return ListPattern(Atom(source))
    if isinstance(source, str):
        return COMPILED.get(parse_list_pattern, source, resolver)
    raise PatternError(f"cannot interpret {source!r} as a list pattern")
