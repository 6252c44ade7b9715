"""AQL — a small user-level text language compiling to the algebra.

The paper deliberately stops below the user level ("We do not assume any
particular user-level language") and positions AQUA as "a standard input
language for query optimizers".  AQL plays the user-level role for this
reproduction: a pipeline syntax whose stages compile one-to-one onto the
expression nodes, so everything downstream (optimizer, EXPLAIN,
interpreter) applies unchanged.

Syntax::

    query    := source stage*
    source   := 'root' NAME | 'extent' NAME
    stage    := '|' op
    op       := 'select' '{' predicate '}'         -- tree select
              | 'sselect' '{' predicate '}'        -- set select
              | 'lselect' '{' predicate '}'        -- list select
              | 'sub_select' PATTERN resolver?     -- tree pattern
              | 'lsub_select' PATTERN resolver?    -- list pattern
              | 'all_anc' PATTERN resolver?        -- pairs ⟨ancestors, match⟩
              | 'all_desc' PATTERN resolver?       -- pairs ⟨match, descendants⟩
              | 'path' PATTERN                     -- document path query (docstore)
              | 'project' ATTR                     -- set apply of one attribute
    resolver := 'by' ATTR                          -- bare pattern symbols mean ATTR = symbol
    PATTERN  := a 'quoted' or "quoted" pattern in the §3 notation

Examples::

    root family | sub_select "Brazil(!?* USA !?*)" by citizen
    root song   | lsub_select "[A??F]" by pitch
    root site   | path "//article[@lang='en']//p"
    extent Person | sselect {age > 30 and city = "C3"} | project name

``parse_aql`` returns the :class:`~repro.plan.expr.Expr`; ``run_aql``
optimizes and evaluates it in one call.

Literals are plan parameters.  The plan cache reads a text through
:func:`parse_aql_shape`, which lifts its constants into hidden slots, so
``sselect {age > 30}`` and ``sselect {age > 41}`` share one optimized,
lowered plan and differ only in the bindings a run arms.  EXPLAIN and a
prepared query's ``describe()`` still show the text's own constants.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..core.aqua_tuple import make_tuple
from ..errors import QueryError
from ..lexer import AQL, Cursor
from ..patterns.list_parser import parse_list_pattern
from ..patterns.tree_parser import parse_tree_pattern
from ..params import Literals
from ..plan import expr as E
from ..predicates.alphabet import AlphabetPredicate, Comparison, SymbolEquals
from ..predicates.parser import parse_predicate
from ..storage.database import Database
from .path import compile_path


def attribute_resolver(attribute: str) -> Callable[[str], AlphabetPredicate]:
    """The ``by ATTR`` resolver: bare symbols mean ``ATTR = symbol``."""

    def resolve(symbol: str) -> AlphabetPredicate:
        return Comparison(attribute, "=", symbol)

    return resolve


def _lifting_resolver(
    literals: Literals, attribute: str | None
) -> Callable[[str], AlphabetPredicate]:
    """A pattern symbol as a hidden slot: ``ATTR = $k`` with ``by ATTR``,
    else ``x = $k`` (the default resolver's :class:`SymbolEquals`)."""
    if attribute is None:
        return lambda symbol: SymbolEquals(literals.slot(symbol))
    return lambda symbol: Comparison(attribute, "=", literals.slot(symbol))


def _query(cursor: Cursor, literals: Literals | None) -> E.Expr:
    node = _source(cursor)
    while not cursor.at_end:
        if cursor.next().kind != "pipe":
            raise QueryError(f"expected '|' between stages in {cursor.text!r}")
        node = _stage(cursor, node, literals)
    return node


def _expect_word(cursor: Cursor, *allowed: str) -> str:
    token = cursor.next()
    if token.kind != "word" or (allowed and token.text not in allowed):
        raise QueryError(
            f"expected {' or '.join(allowed) or 'a word'},"
            f" found {token.text!r} in {cursor.text!r}"
        )
    return token.text


def _source(cursor: Cursor) -> E.Expr:
    keyword = _expect_word(cursor, "root", "extent")
    name = _expect_word(cursor)
    if keyword == "root":
        return E.Root(name)
    return E.Extent(name)


def _stage(cursor: Cursor, node: E.Expr, literals: Literals | None) -> E.Expr:
    op = _expect_word(cursor)
    if op in ("select", "sselect", "lselect"):
        predicate = _predicate(cursor, literals)
        if op == "select":
            return E.TreeSelect(node, predicate=predicate)
        if op == "sselect":
            return E.SetSelect(node, predicate=predicate)
        return E.ListSelect(node, predicate=predicate)
    if op in ("sub_select", "lsub_select", "all_anc", "all_desc"):
        pattern_text = _pattern_text(cursor)
        resolver = _optional_resolver(cursor, literals)
        if op == "lsub_select":
            return E.ListSubSelect(node, pattern=parse_list_pattern(pattern_text, resolver))
        pattern = parse_tree_pattern(pattern_text, resolver)
        if op == "sub_select":
            return E.SubSelect(node, pattern=pattern)
        pairs = E.AllAnc if op == "all_anc" else E.AllDesc
        return pairs(node, pattern=pattern, function=make_tuple)
    if op == "path":
        # Document path queries: ``query.path`` compiles the quoted
        # path text into stock split/apply/flatten algebra, so the
        # stage slots into any pipeline position a tree flows out of.
        return compile_path(node, _pattern_text(cursor))
    if op == "project":
        attribute = _expect_word(cursor)

        def projector(obj: Any, _attribute: str = attribute) -> Any:
            return getattr(obj, _attribute)

        projector.__name__ = f"project_{attribute}"
        return E.SetApply(node, function=projector)
    raise QueryError(f"unknown AQL operator {op!r}")


def _predicate(cursor: Cursor, literals: Literals | None) -> AlphabetPredicate:
    token = cursor.next()
    if token.kind != "pred":
        raise QueryError(f"expected a {{predicate}}, found {token.text!r}")
    return parse_predicate(token.text[1:-1], literals)


def _pattern_text(cursor: Cursor) -> str:
    token = cursor.next()
    if token.kind != "pattern":
        raise QueryError(f"expected a quoted pattern, found {token.text!r}")
    return token.text[1:-1]


def _optional_resolver(
    cursor: Cursor, literals: Literals | None
) -> Callable[[str], AlphabetPredicate] | None:
    attribute = None
    token = cursor.peek()
    if token.kind == "word" and token.text == "by":
        cursor.next()
        attribute = _expect_word(cursor)
    if literals is not None:
        return _lifting_resolver(literals, attribute)
    return None if attribute is None else attribute_resolver(attribute)


def parse_aql(text: str) -> E.Expr:
    """Parse AQL text into a logical query expression."""
    return _query(Cursor(AQL, text), None)


def parse_aql_shape(text: str) -> tuple[E.Expr, dict[str, Any]]:
    """Parse AQL text into its *shape* and the constants lifted out of it.

    Every constant of a ``{...}`` predicate and every bare pattern symbol
    of ``sub_select`` / ``lsub_select`` / ``all_anc`` / ``all_desc``
    becomes a hidden slot ``$0``, ``$1``, … (numbered in text order; see
    :class:`~repro.params.Literals`); names, ``path`` texts and ``{...}``
    predicates inside pattern text stay as written.  Texts that differ
    only in constants have one shape, so the plan cache plans it once;
    running the shape with the returned bindings is running the text.
    """
    literals = Literals()
    return _query(Cursor(AQL, text), literals), literals.values


def run_aql(
    text: str,
    db: Database,
    optimize: bool = True,
    params: "Mapping[str, Any] | None" = None,
    **knobs: Any,
) -> Any:
    """Parse, (optionally) optimize, and evaluate an AQL query.

    A thin wrapper over the default :class:`~repro.query.session.Session`:
    repeated text is served from the plan cache's alias table without
    even being re-parsed.  ``$name`` slots inside ``{...}`` predicates
    bind through ``params``.  Any
    :meth:`~repro.query.session.Session.query` knob keyword (``budget=``,
    ``cache=``, ...) passes through to the shared resolver, same names
    and precedence as everywhere else.
    """
    # aql ↔ session: a session prepares through this parser.
    from .session import default_session

    return default_session(db).query(text, params, optimize=optimize, **knobs)
