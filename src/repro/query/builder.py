"""A small fluent builder for query expressions.

The algebra papers write ``sub_select(tp)(T)``; the builder writes::

    Q.root("family").sub_select("Brazil(!?* USA !?*)", resolver=by_name)

Patterns given as text are parsed eagerly (with an optional symbol
resolver), so builder-produced expressions carry ready
:class:`TreePattern` / :class:`ListPattern` objects the optimizer can
inspect.  ``.build()`` returns the underlying :class:`Expr`; the builder
also evaluates directly via ``.run(db)`` and ``.run_optimized(db)``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..params import Param
from ..patterns.list_parser import SymbolResolver, list_pattern
from ..patterns.tree_parser import tree_pattern
from ..plan import expr as E
from ..predicates.alphabet import AlphabetPredicate
from ..storage.database import Database
from .session import default_session


class Q:
    """Wrapper around an :class:`~repro.plan.expr.Expr` under construction."""

    def __init__(self, node: E.Expr) -> None:
        self.node = node

    # -- sources -----------------------------------------------------------

    @classmethod
    def root(cls, name: str) -> "Q":
        return cls(E.Root(name))

    @classmethod
    def extent(cls, name: str) -> "Q":
        return cls(E.Extent(name))

    @classmethod
    def value(cls, value: Any) -> "Q":
        return cls(E.Literal(value))

    @staticmethod
    def param(name: str) -> Param:
        """A ``$name`` slot usable wherever a predicate constant is.

        ``attr("age") > Q.param("limit")`` builds a parameterized
        comparison; bind the slot at run time with
        ``session.query(q, params={"limit": 30})`` (see
        :mod:`repro.params`).
        """
        return Param(name)

    # -- tree operators -------------------------------------------------------

    def select(self, predicate: AlphabetPredicate) -> "Q":
        return Q(E.TreeSelect(self.node, predicate=predicate))

    def apply(self, function: Callable[[Any], Any]) -> "Q":
        return Q(E.TreeApply(self.node, function=function))

    def sub_select(self, pattern: Any, resolver: SymbolResolver | None = None) -> "Q":
        return Q(E.SubSelect(self.node, pattern=tree_pattern(pattern, resolver)))

    def split(
        self,
        pattern: Any,
        function: Callable[..., Any],
        resolver: SymbolResolver | None = None,
    ) -> "Q":
        return Q(
            E.Split(self.node, pattern=tree_pattern(pattern, resolver), function=function)
        )

    def all_anc(
        self,
        pattern: Any,
        function: Callable[..., Any],
        resolver: SymbolResolver | None = None,
    ) -> "Q":
        return Q(
            E.AllAnc(self.node, pattern=tree_pattern(pattern, resolver), function=function)
        )

    def all_desc(
        self,
        pattern: Any,
        function: Callable[..., Any],
        resolver: SymbolResolver | None = None,
    ) -> "Q":
        return Q(
            E.AllDesc(self.node, pattern=tree_pattern(pattern, resolver), function=function)
        )

    # -- list operators -----------------------------------------------------------

    def lselect(self, predicate: AlphabetPredicate) -> "Q":
        return Q(E.ListSelect(self.node, predicate=predicate))

    def lapply(self, function: Callable[[Any], Any]) -> "Q":
        return Q(E.ListApply(self.node, function=function))

    def lsub_select(self, pattern: Any, resolver: SymbolResolver | None = None) -> "Q":
        return Q(E.ListSubSelect(self.node, pattern=list_pattern(pattern, resolver)))

    def lsplit(
        self,
        pattern: Any,
        function: Callable[..., Any],
        resolver: SymbolResolver | None = None,
    ) -> "Q":
        return Q(
            E.ListSplit(
                self.node, pattern=list_pattern(pattern, resolver), function=function
            )
        )

    # -- set operators -----------------------------------------------------------

    def sselect(self, predicate: AlphabetPredicate) -> "Q":
        return Q(E.SetSelect(self.node, predicate=predicate))

    def sapply(self, function: Callable[[Any], Any]) -> "Q":
        return Q(E.SetApply(self.node, function=function))

    def union(self, other: "Q") -> "Q":
        return Q(E.SetUnion(self.node, other.node))

    def intersect(self, other: "Q") -> "Q":
        return Q(E.SetIntersection(self.node, other.node))

    def difference(self, other: "Q") -> "Q":
        return Q(E.SetDifference(self.node, other.node))

    # -- terminal operations ---------------------------------------------------------

    def build(self) -> E.Expr:
        return self.node

    def run(
        self,
        db: Database,
        params: "Mapping[str, Any] | None" = None,
        **knobs: Any,
    ) -> Any:
        """Evaluate via the default Session; accepts its knob keywords
        (``budget=``, ``optimize=``, ...)."""
        return default_session(db).query(self.node, params, **knobs)

    def run_optimized(
        self,
        db: Database,
        params: "Mapping[str, Any] | None" = None,
        **knobs: Any,
    ) -> Any:
        knobs.setdefault("optimize", True)
        return default_session(db).query(self.node, params, **knobs)

    def describe(self) -> str:
        return self.node.describe()

    def __repr__(self) -> str:
        return f"Q<{self.describe()}>"
