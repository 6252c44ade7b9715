"""The reference evaluator the streaming pipeline is tested against.

A plain recursion over :mod:`repro.query.expr` nodes that calls the
paper's own operator definitions in :mod:`repro.algebra` and nothing
else: no lowering, no access paths, no guard, no metrics, no knobs — and
no packrat tables: it runs under :func:`untabled_scope`, so every tree
match is the plain backtracker's.
``Session.query`` must return exactly what :func:`reference_eval`
returns — same members, same order, same equality notion.

The null-table collaborator is reachable only by constructing it, which
is what the two helpers here do for the parity suites.
"""

from contextlib import nullcontext
from typing import Any

from repro import params
from repro.algebra import (
    all_anc,
    all_desc,
    apply_list,
    apply_tree,
    select,
    select_list,
    split,
    split_list,
    sub_select,
    sub_select_list,
)
from repro.core.aqua_list import AquaList
from repro.core.aqua_set import AquaSet
from repro.core.aqua_tree import AquaTree
from repro.errors import QueryError
from repro.patterns import MatchContextRegistry, TreeMatchContext, match_scope
from repro.query import expr as E


def untabled(pattern, tree) -> TreeMatchContext:
    """The null-table context: handed it, the matcher tables nothing."""
    return TreeMatchContext(pattern, tree, tabled=False)


def untabled_scope(db=None, engine: str = "backtrack"):
    """Arm a registry of null-table contexts around a whole evaluation.

    The outermost match scope wins, so every tree match on this thread
    inside the block — a ``Session.query`` included — runs untabled.
    ``engine="memo"`` arms nothing (the parity suites' other leg).
    """
    if engine == "memo":
        return nullcontext()
    return match_scope(registry=MatchContextRegistry(db, tabled=False))


def _flatten(collection: AquaSet) -> AquaSet:
    result: AquaSet = AquaSet()
    for member in collection:
        if not isinstance(member, AquaSet):
            raise QueryError("flatten expects a set of sets")
        for item in member:
            result.add(item)
    return result


#: node type → (required input type, operator over ``(node, input value)``).
_UNARY = {
    E.TreeSelect: (AquaTree, lambda n, t: select(n.predicate, t)),
    E.TreeApply: (AquaTree, lambda n, t: apply_tree(n.function, t)),
    E.SubSelect: (AquaTree, lambda n, t: sub_select(n.pattern, t)),
    E.Split: (AquaTree, lambda n, t: split(n.pattern, n.function, t)),
    E.AllAnc: (AquaTree, lambda n, t: all_anc(n.pattern, n.function, t)),
    E.AllDesc: (AquaTree, lambda n, t: all_desc(n.pattern, n.function, t)),
    E.ListSelect: (AquaList, lambda n, l: select_list(n.predicate, l)),
    E.ListApply: (AquaList, lambda n, l: apply_list(n.function, l)),
    E.ListSubSelect: (AquaList, lambda n, l: sub_select_list(n.pattern, l)),
    E.ListSplit: (AquaList, lambda n, l: split_list(n.pattern, n.function, l)),
    E.SetSelect: (AquaSet, lambda n, s: s.select(n.predicate)),
    E.SetApply: (AquaSet, lambda n, s: s.apply(n.function)),
    E.SetFlatten: (AquaSet, lambda n, s: _flatten(s)),
}

_BINARY = {
    E.SetUnion: AquaSet.union,
    E.SetIntersection: AquaSet.intersection,
    E.SetDifference: AquaSet.difference,
}


def _typed(value: Any, expected: type, node: E.Expr) -> Any:
    if not isinstance(value, expected):
        raise QueryError(
            f"{node.describe()} expects a {expected.__name__} input,"
            f" got {type(value).__name__}"
        )
    return value


def reference_eval(node: E.Expr, db, bindings: "dict[str, Any] | None" = None) -> Any:
    """Evaluate ``node`` against ``db`` by direct recursion."""
    with params.bound_params(bindings), untabled_scope():
        return _eval(node, db)


def _eval(node: E.Expr, db) -> Any:
    if isinstance(node, E.Root):
        return db.root(node.name)
    if isinstance(node, E.Extent):
        return db.extent(node.name)
    if isinstance(node, E.Literal):
        return node.value
    if isinstance(node, E.Param):
        return params.resolve(params.Param(node.name))
    kind = type(node)
    if kind in _UNARY:
        expected, operator = _UNARY[kind]
        return operator(node, _typed(_eval(node.input, db), expected, node))
    if kind in _BINARY:
        left = _typed(_eval(node.left, db), AquaSet, node)
        right = _typed(_eval(node.right, db), AquaSet, node)
        return _BINARY[kind](left, right)
    raise QueryError(f"no evaluation rule for {kind.__name__}")
