"""Derived operator definitions, verbatim from the paper (§4).

"AQUA has a large number of query operators ... however they can all be
expressed in terms of a smaller subset of primitive operators.  The
primitive tree query operators are **apply** and **split**."

This module implements ``sub_select``, ``all_anc`` and ``all_desc``
*literally* from their ``split``-based definitions::

    sub_select(tp)(T)  = split(tp, λ(a,b,c) b ∘α1..αn [])(T)
    all_anc(tp, f)(T)  = apply(λ(a) f(1(a), 2(a)))(A)
                         where A = split(tp, λ(a,b,c)⟨a, b ∘α1..αn []⟩)(T)
    all_desc(tp, f)(T) = apply(λ(a) f(1(a), 2(a)))(A)
                         where A = split(tp, λ(a,b,c)⟨b, c⟩)(T)

(The outer ``apply`` is set-apply; ``1``/``2`` are tuple projections.)
:mod:`repro.algebra.tree_ops` runs the same three as split functions
that declare which pieces they read; here every piece is built, tupled
and projected, which makes this module the independent reference the
property suite checks those against.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.aqua_set import AquaSet
from ..core.aqua_tree import AquaTree
from ..core.aqua_list import AquaList
from ..core.aqua_tuple import AquaTuple, make_tuple
from ..patterns.tree_ast import TreePattern
from ..patterns.tree_parser import SymbolResolver
from .tree_ops import split


def sub_select_via_split(
    pattern: "str | TreePattern",
    tree: AquaTree,
    resolver: SymbolResolver | None = None,
) -> AquaSet:
    """``sub_select`` from its defining equation."""

    def close(a: AquaTree, b: AquaTree, c: AquaList) -> AquaTree:
        del a, c
        return b.close_points()

    return split(pattern, close, tree, resolver)


def all_anc_via_split(
    pattern: "str | TreePattern",
    function: Callable[[AquaTree, AquaTree], Any],
    tree: AquaTree,
    resolver: SymbolResolver | None = None,
) -> AquaSet:
    """``all_anc`` from its defining equation (split, then set-apply)."""

    def g(a: AquaTree, b: AquaTree, c: AquaList) -> AquaTuple:
        del c
        return make_tuple(a, b.close_points())

    intermediate = split(pattern, g, tree, resolver)
    return intermediate.apply(lambda t: function(t.project(1), t.project(2)))


def all_desc_via_split(
    pattern: "str | TreePattern",
    function: Callable[[AquaTree, AquaList], Any],
    tree: AquaTree,
    resolver: SymbolResolver | None = None,
) -> AquaSet:
    """``all_desc`` from its defining equation (split, then set-apply)."""

    def g(a: AquaTree, b: AquaTree, c: AquaList) -> AquaTuple:
        del a
        return make_tuple(b, c)

    intermediate = split(pattern, g, tree, resolver)
    return intermediate.apply(lambda t: function(t.project(1), t.project(2)))
