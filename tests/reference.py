"""The reference evaluator the streaming pipeline is tested against.

A plain recursion over :mod:`repro.query.expr` nodes that calls the
paper's own operator definitions in :mod:`repro.algebra` and nothing
else: no lowering, no access paths, no guard, no metrics, no knobs — and
no packrat tables: it runs under :func:`untabled_scope`, so every tree
match is the plain backtracker's.
``Session.query`` must return exactly what :func:`reference_eval`
returns — same members, same order, same equality notion.

The null-table collaborator is reachable only by constructing it, which
is what the two helpers here do for the parity suites; the third,
:func:`list_columns`, checks every list predicate column built inside
it against an oracle named in :data:`BACKENDS`.
"""

import importlib.util
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Any, Iterator
from unittest import mock

from repro import context, params
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
from repro.patterns import MatchContextRegistry, TreeMatchContext
from repro.query import expr as E
from repro.storage import columnar


def untabled(pattern, tree) -> TreeMatchContext:
    """The null-table context: handed it, the matcher tables nothing."""
    return TreeMatchContext(pattern, tree, tabled=False)


def untabled_scope(engine: str = "backtrack"):
    """Arm a registry of null-table contexts around a whole evaluation.

    The outermost registry wins, so every tree match on this thread
    inside the block — a ``Session.query`` included — runs untabled.
    ``engine="memo"`` arms nothing (the parity suites' other leg).
    """
    if engine == "memo":
        return nullcontext()
    return context.entered(registry=partial(MatchContextRegistry, tabled=False))


#: The oracles :func:`list_columns` checks columns against: the element
#: loop always, numpy's vectorized comparison when numpy imports.
BACKENDS = ["python"] + (["numpy"] if importlib.util.find_spec("numpy") else [])


def _column_oracle(backend: str):
    """``(values, predicate) -> list[bool] | None`` for ``backend``."""
    if backend == "python":
        return lambda values, predicate: [bool(predicate(value)) for value in values]
    if backend == "numpy":
        from .oracles.numpy_columns import numpy_column

        return numpy_column
    raise ValueError(f"unknown column oracle {backend!r} (one of {BACKENDS})")


@contextmanager
def list_columns(backend: str, min_length: int = 0) -> Iterator[None]:
    """Build list predicate columns for lists of at least ``min_length``
    elements inside the block — so small generated lists take the
    shift-AND start source — and check every column built, down to each
    ``AND`` / ``OR`` / ``NOT`` term, against the ``backend`` oracle:
    ``python``, the element-at-a-time ``predicate(value)`` loop, or
    ``numpy``, the vectorized comparison (skipped where it declines).
    Columns are cached on the list, so use fresh lists."""
    oracle = _column_oracle(backend)
    build = columnar.ColumnarList._build_column

    def checked(self, predicate):
        column = build(self, predicate)
        want = oracle(self.values, predicate)
        if want is not None:
            assert column >= 0 and column >> self.size == 0, (predicate, column)
            got = bin(column)[2:].zfill(self.size)[::-1] if self.size else ""
            assert got == "".join("1" if bit else "0" for bit in want), predicate
        return column

    with mock.patch.object(columnar.ColumnarList, "_build_column", checked), mock.patch.object(
        columnar, "COLUMNAR_MIN_LENGTH", min_length
    ):
        yield


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
    with context.entered(bindings=bindings), untabled_scope():
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
