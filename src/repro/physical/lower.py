"""Logical → physical lowering: pick one streaming operator per node.

:func:`lower` walks a logical expression (:mod:`repro.query.expr`) and
produces a :class:`~repro.physical.base.PhysicalPlan` of
:mod:`~repro.physical.operators`.  The default mapping is structure
preserving — one physical operator per logical node, at the same plan
path, so EXPLAIN ANALYZE metrics line up position-for-position with the
logical tree.

Access-path choice lives here, not in the expression tree.
``choose_access_paths=True`` runs the anchor analysis
(:mod:`repro.optimizer.anchors`) directly on plain logical nodes and
commits to the probing operators; the factory records which ``$param``
slots back those commitments (``PipelineFactory.anchor_params``) so the
prepared-query re-plan guard can watch them.  The ``Indexed*``
expression shims that used to carry these decisions as plan nodes are
gone.

Lowering is split into two stages so one analysis serves many runs:

* :func:`lower_factory` does all the *per-plan* work — pattern
  compilation, anchor analysis, conjunct splits — and returns a
  :class:`PipelineFactory` of nested zero-argument **thunks**;
* :meth:`PipelineFactory.instantiate` runs the thunks, constructing a
  fresh operator tree (physical operators carry per-execution state:
  generators, counters, the execution context), ready to execute.

:func:`lower` is the one-shot composition of the two, and the prepared
-query path (:mod:`repro.query.prepare`) caches the factory so repeated
executions skip straight to ``instantiate()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..errors import QueryError
from ..optimizer.anchors import (
    extent_conjunct_split,
    list_anchor_choice,
    list_columnar_choice,
    tree_split_anchors,
)
from ..optimizer.cost import CostModel, anchor_scan_profitable, exchange_profitable
from ..params import Param
from ..patterns.list_parser import list_pattern
from ..patterns.tree_parser import tree_pattern
from ..query import expr as E
from .base import PhysicalOp, PhysicalPlan
from . import exchange as X
from . import operators as P

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.database import Database

#: A zero-argument constructor for one operator subtree.
Thunk = Callable[[], PhysicalOp]


class _AccessPaths:
    """Truthy lowering context: access-path choice is on, record it.

    Passed through the builders in place of the old ``choose`` boolean;
    every anchor / conjunct commitment notes the predicates it relies
    on, so the factory can report which ``$param`` slots back an index
    choice (the prepared-query re-plan guard's watch list).
    """

    def __init__(self) -> None:
        self.param_slots: set[str] = set()

    def __bool__(self) -> bool:
        return True

    def note(self, *predicates) -> None:
        for predicate in predicates:
            if predicate is None or predicate.opaque:
                continue
            for _, op, constant in predicate.indexable_terms():
                if op == "=" and isinstance(constant, Param):
                    self.param_slots.add(constant.name)


class PipelineFactory:
    """One lowering, many executions.

    Holds the thunk tree produced by :func:`lower_factory`; every
    :meth:`instantiate` call builds a fresh
    :class:`~repro.physical.base.PhysicalPlan` (fresh operators, shared
    compiled patterns and anchor decisions).  ``anchor_params`` is the
    set of ``$param`` slots whose bindings the lowering's access-path
    commitments assumed index-servable (empty without
    ``choose_access_paths``).
    """

    def __init__(
        self,
        expr: E.Expr,
        build_root: Thunk,
        anchor_params: frozenset[str] = frozenset(),
    ) -> None:
        self.expr = expr
        self._build_root = build_root
        self.anchor_params = anchor_params

    def instantiate(self) -> PhysicalPlan:
        return PhysicalPlan(self._build_root(), self.expr)


def lower_factory(
    expr: E.Expr, db: "Database", *, choose_access_paths: bool = False
) -> PipelineFactory:
    """Run the per-plan lowering analysis once; defer operator creation.

    Pattern compilation and (under ``choose_access_paths``) the anchor /
    conjunct analyses all happen here, so a cached factory's
    ``instantiate()`` does no planning work at all.
    """
    choice = _AccessPaths() if choose_access_paths else False
    root = _lower_node(expr, db, choice)
    slots = frozenset(choice.param_slots) if choice else frozenset()
    return PipelineFactory(expr, root, slots)


def lower(
    expr: E.Expr, db: "Database", *, choose_access_paths: bool = False
) -> PhysicalPlan:
    """Lower ``expr`` to a physical plan against ``db``.

    With ``choose_access_paths`` the lowering consults the optimizer's
    anchor analysis and upgrades plain ``sub_select`` / ``split`` /
    extent-``select`` nodes to their index-probing operators on its own;
    without it (the default) the plan mirrors the logical tree, one
    plain operator per node.  Two choices are made in both modes because
    they gate themselves per execution: a column-servable list
    ``sub_select`` / ``split`` lowers to the columnar shift-AND scan
    (falling back to the plain scan when the kernel is off or the list
    is under the size threshold), and tree scans get their columnar root
    filter inside the matcher, with no operator of their own.
    """
    return lower_factory(
        expr, db, choose_access_paths=choose_access_paths
    ).instantiate()


def _lower_node(node: E.Expr, db: "Database", choose: bool) -> Thunk:
    build = _LOWERING.get(type(node))
    if build is None:
        raise QueryError(f"no lowering rule for {type(node).__name__}")
    return build(node, db, choose)


def _child(node: E.Expr, db: "Database", choose: bool) -> Thunk:
    return _lower_node(node.input, db, choose)


# -- per-node builders ---------------------------------------------------------
#
# Each builder runs once per lowering (doing any analysis) and returns
# the thunk that constructs its operator; child thunks are resolved
# eagerly so a factory's whole analysis happens up front.


def _lower_root(node: E.Root, db, choose) -> Thunk:
    del db, choose
    return lambda: P.ScanRoot(node)


def _lower_extent(node: E.Extent, db, choose) -> Thunk:
    del db, choose
    return lambda: P.ScanExtent(node)


def _lower_literal(node: E.Literal, db, choose) -> Thunk:
    del db, choose
    return lambda: P.LiteralSource(node)


def _lower_param(node: E.Param, db, choose) -> Thunk:
    del db, choose
    return lambda: P.ParamSource(node)


def _lower_tree_scan(node: E._SplitShaped, db, choose) -> Thunk:
    """``split`` and the three operators derived from it are one scan of
    one pattern — index-probed roots when the anchors price in, else the
    full scan — and differ only in the split function applied per match."""
    child = _child(node, db, choose)
    function = node.split_function
    # Patterns are compiled once here, at lowering time, so the probing
    # operators never coerce per ``rows()``, every operator matching the
    # same pattern hands the match-context registry an equal key — and a
    # cached factory reuses the compiled pattern across executions.
    tp = tree_pattern(node.pattern)
    if choose:
        anchors = tree_split_anchors(tp)
        if anchors is not None and anchor_scan_profitable(db, node.input, anchors, tp):
            choose.note(*anchors)
            return lambda: P.IndexAnchorScan(node, child(), tp, anchors, function)
    return lambda: P.SubSelectPipe(node, child(), tp, function)


def _lower_list_scan(node, db, choose, function) -> Thunk:
    """List ``sub_select`` (``function`` None) and list ``split`` share
    one ladder of start sources: index probe, columnar shift-AND, all
    starts.  The operators differ only in what they emit per match."""
    child = _child(node, db, choose)
    lp = list_pattern(node.pattern)
    if choose:
        chosen = list_anchor_choice(lp)
        if chosen is not None:
            anchor, offsets = chosen
            choose.note(anchor)
            return lambda: P.ListAnchorScan(node, child(), lp, anchor, offsets, function)
    # Index upgrades are the planner's call (``choose_access_paths``
    # above), but the columnar scan gates itself at execution time —
    # knob off or an undersized list falls back to the inherited full
    # scan bit-identically — so any column-servable atom set takes it
    # unconditionally.
    choices = list_columnar_choice(lp)
    if choices is not None:
        return lambda: P.ColumnarListScan(node, child(), lp, choices, function)
    return lambda: P.ListSubSelectPipe(node, child(), lp, function)


def _lower_list_sub_select(node: E.ListSubSelect, db, choose) -> Thunk:
    return _lower_list_scan(node, db, choose, None)


def _lower_list_split(node: E.ListSplit, db, choose) -> Thunk:
    return _lower_list_scan(node, db, choose, node.function)


def _lower_set_select(node: E.SetSelect, db, choose) -> Thunk:
    if choose and isinstance(node.input, E.Extent):
        split = extent_conjunct_split(node.predicate, node.input.name, db)
        if split is not None:
            indexed, residual = split
            extent = node.input.name
            choose.note(indexed)
            return lambda: P.IndexedSelectFilter(node, None, extent, indexed, residual)
    child = _child(node, db, choose)
    # Like the columnar list scan, the exchange gates itself per
    # execution (``AQUA_PARALLEL`` off or an undersized input runs the
    # inherited sequential loop bit-identically), so the static cost
    # gate only filters out inputs *known* to be too small to ever
    # profit — small extents keep the plain operator and its zero
    # buffering.
    if exchange_profitable(CostModel(db).input_size(node)):
        return lambda: X.ParallelSelectFilter(node, (child(),))
    return lambda: P.SelectFilter(node, (child(),))


def _lower_set_apply(node: E.SetApply, db, choose) -> Thunk:
    child = _child(node, db, choose)
    if exchange_profitable(CostModel(db).input_size(node)):
        return lambda: X.ParallelApplyMap(node, (child(),))
    return lambda: P.ApplyMap(node, (child(),))


def _lower_unary(cls):
    def build(node, db, choose):
        child = _child(node, db, choose)
        return lambda: cls(node, (child(),))

    return build


def _lower_binary(cls):
    def build(node, db, choose):
        left = _lower_node(node.left, db, choose)
        right = _lower_node(node.right, db, choose)
        return lambda: cls(node, (left(), right()))

    return build


_LOWERING: dict[type, Callable[[E.Expr, "Database", bool], Thunk]] = {
    E.Root: _lower_root,
    E.Extent: _lower_extent,
    E.Literal: _lower_literal,
    E.Param: _lower_param,
    E.TreeSelect: _lower_unary(P.TreeSelectOp),
    E.TreeApply: _lower_unary(P.TreeApplyOp),
    E.SubSelect: _lower_tree_scan,
    E.Split: _lower_tree_scan,
    E.AllAnc: _lower_tree_scan,
    E.AllDesc: _lower_tree_scan,
    E.ListSelect: _lower_unary(P.ListSelectPipe),
    E.ListApply: _lower_unary(P.ListApplyPipe),
    E.ListSubSelect: _lower_list_sub_select,
    E.ListSplit: _lower_list_split,
    E.SetSelect: _lower_set_select,
    E.SetApply: _lower_set_apply,
    E.SetFlatten: _lower_unary(P.FlattenPipe),
    E.SetUnion: _lower_binary(P.UnionPipe),
    E.SetIntersection: _lower_binary(P.IntersectPipe),
    E.SetDifference: _lower_binary(P.DiffPipe),
}
