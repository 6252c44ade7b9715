"""Parser for tree-pattern notation (paper §3.3).

Examples (ASCII renderings of the paper's patterns)::

    Mat(? Ed)                        # Figure 4's running example
    Brazil(!?* USA !?*)              # the split pattern of Figure 4
    printf(?* LargeData ?* LargeData ?*)   # §5, variable arity
    [[a(@1 @2)]] .@1 [[b(d(fg)e)]] .@2 c   # Figure 1 concatenation
    [[a(b c @)]]*@                   # Figure 2 self-concatenation
    ^d(e(h i) j)                     # ⊤-anchored (the split rewrite)
    b(d e)$                          # ⊥-anchored (leaves must align)

Grammar::

    pattern      := '^'? alternation '$'?
    alternation  := chain ( '|' chain )*
    chain        := unit ( '.' '@lbl' unit )*           -- tp ∘α tp
    unit         := '!'? primary ( '*@lbl' | '+@lbl' )*
    primary      := head [ '(' children ')' ] | '@lbl' | '[[' alternation ']]'
    head         := '?' | SYMBOL | '{' predicate-text '}'
    children     := cseq ( '|' cseq )*
    cseq         := citem*
    citem        := '!'? primary ( '*@lbl' | '+@lbl' )* ( '*' | '+' )*

The two closure forms are distinguished lexically: a ``*``/``+``
*immediately* followed by ``@`` (no space) is the subscripted tree
closure ``*α``; a bare ``*``/``+`` inside a children list is sibling
repetition.  ``a()`` demands a childless node; bare ``a`` matches a node
and implicitly prunes its children (§4's ``split(d, ...)``).
"""

from __future__ import annotations

from typing import Callable

from ..core.concat import ConcatPoint
from ..errors import NotationError, PatternError
from ..storage import stats as stats_mod
from ..predicates.alphabet import ANY, AlphabetPredicate, SymbolEquals
from ..predicates.parser import parse_predicate
from .dfa import COMPILED
from .pattern_tokens import PatternToken, PatternTokenStream, tokenize_pattern
from .tree_ast import (
    CHILD_EPSILON,
    ChildAlt,
    ChildPatternNode,
    ChildPlus,
    ChildSeq,
    ChildStar,
    PointAtom,
    TreeAtom,
    TreeConcat,
    TreePattern,
    TreePatternNode,
    TreePlus,
    TreePrune,
    TreeStar,
    TreeUnion,
)

SymbolResolver = Callable[[str], AlphabetPredicate]


def default_resolver(symbol: str) -> AlphabetPredicate:
    return SymbolEquals(symbol)


def parse_tree_pattern(text: str, resolver: SymbolResolver | None = None) -> TreePattern:
    """Parse tree-pattern text into a :class:`TreePattern`."""
    # Credited to any activated sink so EXPLAIN ANALYZE (and the plan
    # cache's acceptance check) can count compilations on the cold path
    # and prove the warm path skips them.
    stats_mod.emit("pattern_compilations")
    resolver = resolver or default_resolver
    stream = PatternTokenStream(tokenize_pattern(text), text)
    root_anchor = stream.match("top") is not None
    body = _alternation(stream, resolver)
    leaf_anchor = stream.match("bottom") is not None
    if not stream.exhausted:
        leftover = stream.peek()
        assert leftover is not None
        raise NotationError("trailing input after tree pattern", text, leftover.position)
    return TreePattern(body, root_anchor=root_anchor, leaf_anchor=leaf_anchor)


def _alternation(stream: PatternTokenStream, resolver: SymbolResolver) -> TreePatternNode:
    alternatives = [_chain(stream, resolver)]
    while stream.match("pipe") is not None:
        alternatives.append(_chain(stream, resolver))
    if len(alternatives) == 1:
        return alternatives[0]
    return TreeUnion(alternatives)


def _chain(stream: PatternTokenStream, resolver: SymbolResolver) -> TreePatternNode:
    node = _unit(stream, resolver)
    while stream.match("compose") is not None:
        point_token = stream.expect("alpha")
        right = _unit(stream, resolver)
        node = TreeConcat(node, ConcatPoint(point_token.text), right)
    return node


def _tree_postfixes(
    stream: PatternTokenStream, node: TreePatternNode
) -> TreePatternNode:
    """Apply subscripted closures ``*@lbl`` / ``+@lbl`` (adjacency-checked)."""
    while True:
        token = stream.peek()
        if token is None or token.kind not in ("star", "plus"):
            return node
        if not _adjacent_alpha(stream):
            return node
        stream.next()
        point_token = stream.expect("alpha")
        point = ConcatPoint(point_token.text)
        if token.kind == "star":
            node = TreeStar(node, point)
        else:
            node = TreePlus(node, point)


def _adjacent_alpha(stream: PatternTokenStream) -> bool:
    """Is the star/plus at the cursor immediately followed by ``@``?"""
    star = stream.peek()
    assert star is not None
    after = stream.peek_at(1)
    return (
        after is not None
        and after.kind == "alpha"
        and after.position == star.position + 1
    )


def _unit(stream: PatternTokenStream, resolver: SymbolResolver) -> TreePatternNode:
    pruned = stream.match("bang") is not None
    node = _primary(stream, resolver)
    node = _tree_postfixes(stream, node)
    if pruned:
        node = TreePrune(node)
    return node


def _primary(stream: PatternTokenStream, resolver: SymbolResolver) -> TreePatternNode:
    if stream.match_group_open():
        inner = _alternation(stream, resolver)
        stream.expect_group_close()
        return inner
    token = stream.next()
    if token.kind == "alpha":
        return PointAtom(ConcatPoint(token.text))
    if token.kind == "any":
        predicate: AlphabetPredicate = ANY
    elif token.kind == "sym":
        predicate = resolver(token.text)
    elif token.kind == "pred":
        predicate = parse_predicate(token.text)
    else:
        raise NotationError(
            f"unexpected {token.text!r} in tree pattern", stream.text, token.position
        )
    children: ChildPatternNode | TreePatternNode | None = None
    if stream.match("lparen") is not None:
        children = _children(stream, resolver)
        stream.expect("rparen")
    return TreeAtom(predicate, children)


def _children(
    stream: PatternTokenStream, resolver: SymbolResolver
) -> ChildPatternNode | TreePatternNode:
    alternatives = [_cseq(stream, resolver)]
    while stream.match("pipe") is not None:
        alternatives.append(_cseq(stream, resolver))
    if len(alternatives) == 1:
        return alternatives[0]
    return ChildAlt(alternatives)


_CITEM_STARTS = {"any", "sym", "pred", "alpha", "bang"}


def _cseq(
    stream: PatternTokenStream, resolver: SymbolResolver
) -> ChildPatternNode | TreePatternNode:
    items: list[ChildPatternNode | TreePatternNode] = []
    while True:
        token = stream.peek()
        if token is None:
            break
        if token.kind not in _CITEM_STARTS and not stream.at_group_open():
            break
        items.append(_citem(stream, resolver))
    if not items:
        return CHILD_EPSILON
    if len(items) == 1:
        return items[0]
    return ChildSeq(items)


def _citem(
    stream: PatternTokenStream, resolver: SymbolResolver
) -> ChildPatternNode | TreePatternNode:
    pruned = stream.match("bang") is not None
    node: ChildPatternNode | TreePatternNode = _primary(stream, resolver)
    node = _tree_postfixes(stream, node)  # type: ignore[arg-type]
    # Concatenation chains are valid wherever a tree pattern is —
    # including as a child-list atom: x([[y(@2)]]*@2 .@2 @1).
    while stream.match("compose") is not None:
        point_token = stream.expect("alpha")
        right = _unit(stream, resolver)
        node = TreeConcat(node, ConcatPoint(point_token.text), right)  # type: ignore[arg-type]
    if pruned:
        node = TreePrune(node)  # type: ignore[arg-type]
    while True:
        token = stream.peek()
        if token is None or token.kind not in ("star", "plus"):
            break
        if _adjacent_alpha(stream):
            raise NotationError(
                "tree closure *@ must precede the prune/list postfixes",
                stream.text,
                token.position,
            )
        stream.next()
        if token.kind == "star":
            node = ChildStar(node)
        else:
            node = ChildPlus(node)
    return node


def tree_pattern(
    source: "str | TreePattern | TreePatternNode | AlphabetPredicate",
    resolver: SymbolResolver | None = None,
) -> TreePattern:
    """Coerce any reasonable input into a :class:`TreePattern`.

    Accepts pattern text, a ready pattern, a bare AST node, or a single
    alphabet-predicate (which becomes a bare single-node pattern).  Text
    is compiled once per (text, resolver) and shared — see
    :class:`~repro.patterns.dfa.CompileCache`; call
    :func:`parse_tree_pattern` for a private copy.
    """
    if isinstance(source, TreePattern):
        return source
    if isinstance(source, TreePatternNode):
        return TreePattern(source)
    if isinstance(source, AlphabetPredicate):
        return TreePattern(TreeAtom(source, None))
    if isinstance(source, str):
        return COMPILED.get(parse_tree_pattern, source, resolver)
    raise PatternError(f"cannot interpret {source!r} as a tree pattern")
