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

``parse_aql`` returns the :class:`~repro.query.expr.Expr`; ``run_aql``
optimizes and evaluates it in one call.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Mapping

from ..core.aqua_tuple import make_tuple
from ..errors import QueryError
from ..patterns.list_parser import parse_list_pattern
from ..patterns.tree_parser import parse_tree_pattern
from ..predicates.alphabet import AlphabetPredicate, Comparison
from ..predicates.parser import parse_predicate
from ..storage.database import Database
from . import expr as E

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<pipe>\|)
  | (?P<pred>\{[^}]*\})
  | (?P<pattern>"[^"]*"|'[^']*')
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    index = 0
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        if match is None:
            raise QueryError(f"cannot tokenize AQL at {text[index:]!r}")
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append((kind, match.group()))
        index = match.end()
    return tokens


def attribute_resolver(attribute: str) -> Callable[[str], AlphabetPredicate]:
    """The ``by ATTR`` resolver: bare symbols mean ``ATTR = symbol``."""

    def resolve(symbol: str) -> AlphabetPredicate:
        return Comparison(attribute, "=", symbol)

    return resolve


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0

    def _peek(self) -> tuple[str, str] | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise QueryError(f"unexpected end of AQL query {self._text!r}")
        self._index += 1
        return token

    def _expect_word(self, *allowed: str) -> str:
        kind, text = self._next()
        if kind != "word" or (allowed and text not in allowed):
            raise QueryError(
                f"expected {' or '.join(allowed) or 'a word'},"
                f" found {text!r} in {self._text!r}"
            )
        return text

    def parse(self) -> E.Expr:
        node = self._source()
        while self._peek() is not None:
            kind, _ = self._next()
            if kind != "pipe":
                raise QueryError(f"expected '|' between stages in {self._text!r}")
            node = self._stage(node)
        return node

    def _source(self) -> E.Expr:
        keyword = self._expect_word("root", "extent")
        name = self._expect_word()
        if keyword == "root":
            return E.Root(name)
        return E.Extent(name)

    def _stage(self, node: E.Expr) -> E.Expr:
        op = self._expect_word()
        if op in ("select", "sselect", "lselect"):
            predicate = self._predicate()
            if op == "select":
                return E.TreeSelect(node, predicate=predicate)
            if op == "sselect":
                return E.SetSelect(node, predicate=predicate)
            return E.ListSelect(node, predicate=predicate)
        if op in ("sub_select", "lsub_select", "all_anc", "all_desc"):
            pattern_text = self._pattern_text()
            resolver = self._optional_resolver()
            if op == "lsub_select":
                return E.ListSubSelect(
                    node, pattern=parse_list_pattern(pattern_text, resolver)
                )
            pattern = parse_tree_pattern(pattern_text, resolver)
            if op == "sub_select":
                return E.SubSelect(node, pattern=pattern)
            pairs = E.AllAnc if op == "all_anc" else E.AllDesc
            return pairs(node, pattern=pattern, function=make_tuple)
        if op == "path":
            # Document path queries: the docstore compiles the quoted
            # path text into stock split/apply/flatten algebra, so the
            # stage slots into any pipeline position a tree flows out of.
            from ..docstore.path import compile_path

            return compile_path(node, self._pattern_text())
        if op == "project":
            attribute = self._expect_word()

            def projector(obj: Any, _attribute: str = attribute) -> Any:
                return getattr(obj, _attribute)

            projector.__name__ = f"project_{attribute}"
            return E.SetApply(node, function=projector)
        raise QueryError(f"unknown AQL operator {op!r}")

    def _predicate(self) -> AlphabetPredicate:
        kind, text = self._next()
        if kind != "pred":
            raise QueryError(f"expected a {{predicate}}, found {text!r}")
        return parse_predicate(text[1:-1])

    def _pattern_text(self) -> str:
        kind, text = self._next()
        if kind != "pattern":
            raise QueryError(f"expected a quoted pattern, found {text!r}")
        return text[1:-1]

    def _optional_resolver(self) -> Callable[[str], AlphabetPredicate] | None:
        token = self._peek()
        if token is not None and token == ("word", "by"):
            self._next()
            return attribute_resolver(self._expect_word())
        return None


def parse_aql(text: str) -> E.Expr:
    """Parse AQL text into a logical query expression."""
    return _Parser(text).parse()


def run_aql(
    text: str,
    db: Database,
    optimize: bool = True,
    params: "Mapping[str, Any] | None" = None,
    **knobs: Any,
) -> Any:
    """Parse, (optionally) optimize, and evaluate an AQL query.

    A thin wrapper over the default :class:`repro.api.Session`: repeated
    text is served from the plan cache's alias table without even being
    re-parsed.  ``$name`` slots inside ``{...}`` predicates bind through
    ``params``.  Any :meth:`repro.api.Session.query` knob keyword
    (``budget=``, ``parallel=``, ``parallel_workers=``,
    ``cache=``) passes through to the shared
    resolver, same names and precedence as everywhere else.
    """
    from ..api import default_session

    return default_session(db).query(text, params, optimize=optimize, **knobs)
