"""Logical query expressions over the AQUA algebra.

AQUA is "a standard input language for query optimizers" (§1): queries
arrive as operator trees, get rewritten algebraically, and are then
evaluated.  This module defines that operator tree.  Each node is a
small immutable value object; the interpreter
(:mod:`repro.query.interpreter`) gives them semantics against a
:class:`~repro.storage.Database`, and the optimizer
(:mod:`repro.optimizer`) rewrites them.

Every node here is *logical*: plans describe what to compute, never how.
Access-path choice (index anchors, conjunct decomposition, the columnar
list scan) lives entirely in the lowering pass
(:func:`repro.physical.lower.lower` with ``choose_access_paths``) — the
``Indexed*`` expression shims that used to make those choices visible as
plan nodes were removed after their deprecation cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..algebra.tree_ops import anc_function, closed_match, desc_function
from ..patterns.list_ast import ListPattern
from ..patterns.tree_ast import TreePattern
from ..predicates.alphabet import AlphabetPredicate


class Expr:
    """Base class for query expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def with_children(self, children: tuple["Expr", ...]) -> "Expr":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def head(self) -> str:
        """The operator's own rendering with children elided.

        EXPLAIN prints one head per plan line (children are indented
        lines of their own); ``describe()`` composes the full one-line
        form structurally from heads, so a head can never be corrupted
        by a child's text appearing inside a pattern or predicate.
        """
        raise NotImplementedError

    def describe(self) -> str:
        children = self.children()
        if not children:
            return self.head()
        inner = ", ".join(child.describe() for child in children)
        return f"{self.head()}({inner})"

    def walk(self) -> Iterator["Expr"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def __repr__(self) -> str:
        return self.describe()


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class Root(Expr):
    """A named database root (a tree, list or any bound object)."""

    name: str

    def head(self) -> str:
        return f"root({self.name})"


@dataclass(frozen=True, repr=False)
class Extent(Expr):
    """A class extent, as an AQUA set."""

    name: str

    def head(self) -> str:
        return f"extent({self.name})"


@dataclass(frozen=True, repr=False)
class Literal(Expr):
    """An inline value (tree, list, set...)."""

    value: Any

    def head(self) -> str:
        return f"lit({self.value!r})"


@dataclass(frozen=True, repr=False)
class Param(Expr):
    """A named parameter slot, evaluated to its current binding.

    The slot — not the bound value — is part of the plan's structure, so
    one prepared plan (:mod:`repro.query.prepare`) serves every binding.
    """

    name: str

    def head(self) -> str:
        return f"${self.name}"


# ---------------------------------------------------------------------------
# Unary-input operator base
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class _Unary(Expr):
    input: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.input,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        (child,) = children
        return dataclasses.replace(self, input=child)


# ---------------------------------------------------------------------------
# Tree operators (§4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class TreeSelect(_Unary):
    predicate: AlphabetPredicate = field(kw_only=True)

    def head(self) -> str:
        return f"select[{self.predicate.describe()}]"


@dataclass(frozen=True, repr=False)
class TreeApply(_Unary):
    function: Callable[[Any], Any] = field(kw_only=True)

    def head(self) -> str:
        name = getattr(self.function, "__name__", "f")
        return f"apply[{name}]"


@dataclass(frozen=True, repr=False)
class _SplitShaped(_Unary):
    """``split`` and the three operators §4 derives from it.

    ``split_function`` is the derivation: the 3-place ``f`` for which
    the operator *is* ``split(pattern, f)``.  The cost model, the
    lowering and the physical scan read nothing else.
    """

    pattern: TreePattern = field(kw_only=True)
    operator = "split"
    derive = staticmethod(lambda function: function)

    @property
    def split_function(self) -> Callable[..., Any]:
        return self.derive(self.function)

    def head(self) -> str:
        return f"{self.operator}[{self.pattern.describe()}]"


@dataclass(frozen=True, repr=False)
class SubSelect(_SplitShaped):
    operator = "sub_select"
    split_function = staticmethod(closed_match)


@dataclass(frozen=True, repr=False)
class Split(_SplitShaped):
    function: Callable[..., Any] = field(kw_only=True)


@dataclass(frozen=True, repr=False)
class AllAnc(_SplitShaped):
    function: Callable[..., Any] = field(kw_only=True)
    operator = "all_anc"
    derive = staticmethod(anc_function)


@dataclass(frozen=True, repr=False)
class AllDesc(_SplitShaped):
    function: Callable[..., Any] = field(kw_only=True)
    operator = "all_desc"
    derive = staticmethod(desc_function)


# ---------------------------------------------------------------------------
# List operators (§6)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class ListSelect(_Unary):
    predicate: AlphabetPredicate = field(kw_only=True)

    def head(self) -> str:
        return f"lselect[{self.predicate.describe()}]"


@dataclass(frozen=True, repr=False)
class ListApply(_Unary):
    function: Callable[[Any], Any] = field(kw_only=True)

    def head(self) -> str:
        name = getattr(self.function, "__name__", "f")
        return f"lapply[{name}]"


@dataclass(frozen=True, repr=False)
class ListSubSelect(_Unary):
    pattern: ListPattern = field(kw_only=True)

    def head(self) -> str:
        return f"lsub_select[{self.pattern.describe()}]"


@dataclass(frozen=True, repr=False)
class ListSplit(_Unary):
    pattern: ListPattern = field(kw_only=True)
    function: Callable[..., Any] = field(kw_only=True)

    def head(self) -> str:
        return f"lsplit[{self.pattern.describe()}]"


# ---------------------------------------------------------------------------
# Set operators (§2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class SetSelect(_Unary):
    predicate: AlphabetPredicate = field(kw_only=True)

    def head(self) -> str:
        return f"sselect[{self.predicate.describe()}]"


@dataclass(frozen=True, repr=False)
class SetApply(_Unary):
    function: Callable[[Any], Any] = field(kw_only=True)

    def head(self) -> str:
        name = getattr(self.function, "__name__", "f")
        return f"sapply[{name}]"


@dataclass(frozen=True, repr=False)
class SetFlatten(_Unary):
    """Union of a set of sets — needed to express §4's literal rewrite
    ``apply(sub_select(⊤tp))(split(d, reassemble)(T))`` whose apply step
    produces a set of per-subtree result sets."""

    def head(self) -> str:
        return "flatten"


@dataclass(frozen=True, repr=False)
class _Binary(Expr):
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        left, right = children
        return type(self)(left, right)


@dataclass(frozen=True, repr=False)
class SetUnion(_Binary):
    def head(self) -> str:
        return "union"


@dataclass(frozen=True, repr=False)
class SetIntersection(_Binary):
    def head(self) -> str:
        return "intersect"


@dataclass(frozen=True, repr=False)
class SetDifference(_Binary):
    def head(self) -> str:
        return "difference"
