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

from ..context import emit
from ..core.concat import ConcatPoint
from ..errors import PatternError
from ..lexer import PATTERN, Cursor
from ..predicates.alphabet import ANY, AlphabetPredicate
from ..predicates.parser import parse_predicate
from .pattern_tokens import (
    COMPILED,
    SymbolResolver,
    at_group_open,
    default_resolver,
    expect_group_close,
    match_group_open,
)
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


def parse_tree_pattern(text: str, resolver: SymbolResolver | None = None) -> TreePattern:
    """Parse tree-pattern text into a :class:`TreePattern`."""
    # Credited to any listening receiver so EXPLAIN ANALYZE (and the plan
    # cache's acceptance check) can count compilations on the cold path
    # and prove the warm path skips them.
    emit("pattern_compilations")
    return Cursor(PATTERN, text).parse(_pattern, resolver or default_resolver)


def _pattern(cursor: Cursor, resolver: SymbolResolver) -> TreePattern:
    root_anchor = cursor.match("top") is not None
    body = _alternation(cursor, resolver)
    leaf_anchor = cursor.match("bottom") is not None
    if not cursor.at_end:
        raise cursor.error("trailing input after tree pattern", cursor.peek().position)
    return TreePattern(body, root_anchor=root_anchor, leaf_anchor=leaf_anchor)


def _alternation(cursor: Cursor, resolver: SymbolResolver) -> TreePatternNode:
    alternatives = [_chain(cursor, resolver)]
    while cursor.match("pipe") is not None:
        alternatives.append(_chain(cursor, resolver))
    if len(alternatives) == 1:
        return alternatives[0]
    return TreeUnion(alternatives)


def _chain(cursor: Cursor, resolver: SymbolResolver) -> TreePatternNode:
    node = _unit(cursor, resolver)
    while cursor.match("compose") is not None:
        point_token = cursor.expect("alpha")
        right = _unit(cursor, resolver)
        node = TreeConcat(node, ConcatPoint(point_token.text), right)
    return node


def _tree_postfixes(cursor: Cursor, node: TreePatternNode) -> TreePatternNode:
    """Apply subscripted closures ``*@lbl`` / ``+@lbl`` (adjacency-checked)."""
    while True:
        token = cursor.peek()
        if token.kind not in ("star", "plus") or not _adjacent_alpha(cursor):
            return node
        cursor.next()
        point = ConcatPoint(cursor.expect("alpha").text)
        if token.kind == "star":
            node = TreeStar(node, point)
        else:
            node = TreePlus(node, point)


def _adjacent_alpha(cursor: Cursor) -> bool:
    """Is the star/plus at the cursor immediately followed by ``@``?"""
    after = cursor.peek(1)
    return after.kind == "alpha" and after.position == cursor.peek().position + 1


def _unit(cursor: Cursor, resolver: SymbolResolver) -> TreePatternNode:
    pruned = cursor.match("bang") is not None
    node = _primary(cursor, resolver)
    node = _tree_postfixes(cursor, node)
    if pruned:
        node = TreePrune(node)
    return node


def _primary(cursor: Cursor, resolver: SymbolResolver) -> TreePatternNode:
    if match_group_open(cursor):
        inner = _alternation(cursor, resolver)
        expect_group_close(cursor)
        return inner
    token = cursor.next()
    if token.kind == "alpha":
        return PointAtom(ConcatPoint(token.text))
    if token.kind == "any":
        predicate: AlphabetPredicate = ANY
    elif token.kind == "sym":
        predicate = resolver(token.text)
    elif token.kind == "pred":
        predicate = parse_predicate(token.text)
    else:
        raise cursor.error(f"unexpected {token.text!r} in tree pattern", token.position)
    children: ChildPatternNode | TreePatternNode | None = None
    if cursor.match("lparen") is not None:
        children = _children(cursor, resolver)
        cursor.expect("rparen")
    return TreeAtom(predicate, children)


def _children(
    cursor: Cursor, resolver: SymbolResolver
) -> ChildPatternNode | TreePatternNode:
    alternatives = [_cseq(cursor, resolver)]
    while cursor.match("pipe") is not None:
        alternatives.append(_cseq(cursor, resolver))
    if len(alternatives) == 1:
        return alternatives[0]
    return ChildAlt(alternatives)


_CITEM_STARTS = {"any", "sym", "pred", "alpha", "bang"}


def _cseq(
    cursor: Cursor, resolver: SymbolResolver
) -> ChildPatternNode | TreePatternNode:
    items: list[ChildPatternNode | TreePatternNode] = []
    while cursor.peek().kind in _CITEM_STARTS or at_group_open(cursor):
        items.append(_citem(cursor, resolver))
    if not items:
        return CHILD_EPSILON
    if len(items) == 1:
        return items[0]
    return ChildSeq(items)


def _citem(
    cursor: Cursor, resolver: SymbolResolver
) -> ChildPatternNode | TreePatternNode:
    pruned = cursor.match("bang") is not None
    node: ChildPatternNode | TreePatternNode = _primary(cursor, resolver)
    node = _tree_postfixes(cursor, node)  # type: ignore[arg-type]
    # Concatenation chains are valid wherever a tree pattern is —
    # including as a child-list atom: x([[y(@2)]]*@2 .@2 @1).
    while cursor.match("compose") is not None:
        point_token = cursor.expect("alpha")
        right = _unit(cursor, resolver)
        node = TreeConcat(node, ConcatPoint(point_token.text), right)  # type: ignore[arg-type]
    if pruned:
        node = TreePrune(node)  # type: ignore[arg-type]
    while (token := cursor.peek()).kind in ("star", "plus"):
        if _adjacent_alpha(cursor):
            raise cursor.error(
                "tree closure *@ must precede the prune/list postfixes", token.position
            )
        cursor.next()
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
    :class:`~repro.patterns.pattern_tokens.CompileCache`; call
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
