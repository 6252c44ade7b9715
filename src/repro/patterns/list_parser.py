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

from ..context import emit
from ..errors import PatternError
from ..lexer import PATTERN, Cursor
from ..predicates.alphabet import AlphabetPredicate
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
from .pattern_tokens import (
    COMPILED,
    SymbolResolver,
    at_group_open,
    default_resolver,
    expect_group_close,
    match_group_open,
)


def parse_list_pattern(text: str, resolver: SymbolResolver | None = None) -> ListPattern:
    """Parse list-pattern text into a :class:`ListPattern`."""
    # Counts pattern compilations for EXPLAIN ANALYZE and the plan
    # cache's warm-path check (see tree_parser.parse_tree_pattern).
    emit("pattern_compilations")
    return Cursor(PATTERN, text).parse(_pattern, resolver or default_resolver)


def _pattern(cursor: Cursor, resolver: SymbolResolver) -> ListPattern:
    anchor_start = cursor.match("top") is not None
    # An odd total of '[' characters means a single outer pattern bracket
    # wraps the body (groups always contribute balanced pairs).
    bracketed = sum(token.kind == "lbracket" for token in cursor.tokens) % 2 == 1
    if bracketed and not cursor.match("lbracket"):
        position = 0 if cursor.at_end else cursor.peek().position
        raise cursor.error("expected '[' to open the pattern", position)

    body = _alternation(cursor, resolver)

    anchor_end = False
    if bracketed:
        # `$` may sit just inside the closing bracket: [abc$]
        if cursor.match("bottom") is not None:
            anchor_end = True
        cursor.expect("rbracket")
    if cursor.match("bottom") is not None:
        anchor_end = True
    # `^` may also sit just inside the opening bracket; handled by grammar
    # only at the very front, so reject anything left over.
    if not cursor.at_end:
        raise cursor.error("trailing input after pattern", cursor.peek().position)
    return ListPattern(body, anchor_start=anchor_start, anchor_end=anchor_end)


def _alternation(cursor: Cursor, resolver: SymbolResolver) -> ListPatternNode:
    alternatives = [_sequence(cursor, resolver)]
    while cursor.match("pipe") is not None:
        alternatives.append(_sequence(cursor, resolver))
    if len(alternatives) == 1:
        return alternatives[0]
    return Union(alternatives)


_SEQUENCE_STARTS = {"any", "sym", "pred", "bang"}


def _sequence(cursor: Cursor, resolver: SymbolResolver) -> ListPatternNode:
    parts: list[ListPatternNode] = []
    while cursor.peek().kind in _SEQUENCE_STARTS or at_group_open(cursor):
        parts.append(_item(cursor, resolver))
    if not parts:
        return EPSILON
    if len(parts) == 1:
        return parts[0]
    return Concat(parts)


def _item(cursor: Cursor, resolver: SymbolResolver) -> ListPatternNode:
    pruned = cursor.match("bang") is not None
    node = _base(cursor, resolver)
    while True:
        if cursor.match("star") is not None:
            node = Star(node)
        elif cursor.match("plus") is not None:
            node = Plus(node)
        else:
            break
    if pruned:
        node = Prune(node)
    return node


def _base(cursor: Cursor, resolver: SymbolResolver) -> ListPatternNode:
    if match_group_open(cursor):
        inner = _alternation(cursor, resolver)
        expect_group_close(cursor)
        return inner
    token = cursor.next()
    if token.kind == "any":
        return any_element()
    if token.kind == "sym":
        return Atom(resolver(token.text))
    if token.kind == "pred":
        return Atom(parse_predicate(token.text))
    raise cursor.error(f"unexpected {token.text!r} in list pattern", token.position)


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
