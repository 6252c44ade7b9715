"""Node-level indexes over one tree (or list) instance.

§4's split rewrite assumes the system can "use an index to efficiently
locate all nodes in T that match d".  A :class:`TreeIndex` provides that:
it walks a tree once, assigns every node its preorder/postorder interval
label (the classic ancestor-test encoding), and builds hash indexes from
stored attribute values — plus the payload itself — to nodes.

Given an alphabet-predicate it answers :meth:`candidate_nodes`: the
nodes that *might* match, served from an index when the predicate has an
indexable equality term, falling back to a full scan otherwise (and
saying which happened, so benchmarks can report the narrowing).

:class:`ListIndex` is the positional analogue for lists: predicate value
→ element positions, which the optimizer feeds to the pattern engines'
``starts`` hook.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .. import guardrails, params
from ..core.aqua_list import AquaList
from ..core.aqua_tree import AquaTree, TreeNode
from ..faults import fault_point
from ..predicates.alphabet import AlphabetPredicate
from .index import VALUE_ATTRIBUTE, HashIndex, read_key
from .stats import Instrumentation

#: Bitmap plane states: 0 = unknown, 1 = known false, 2 = known true.
_UNKNOWN, _FALSE, _TRUE = 0, 1, 2


# -- per-query bitmap scoping ---------------------------------------------------

_bitmap_scope = threading.local()


@contextmanager
def scoped_bitmaps() -> Iterator[None]:
    """Arm per-query predicate-bitmap isolation for this thread.

    While armed, :attr:`TreeIndex.bitmap` hands out a bitmap private to
    this scope (one per index, created on demand) instead of the
    index-resident one.  That keeps per-query outcome state from
    bleeding between queries scheduled on a shared pool thread — and
    from racing between *concurrent* queries over the same tree, whose
    shared index previously also shared one mutable bitmap.  The
    previous scope (usually none) is restored on exit, exceptions
    included.
    """
    previous = getattr(_bitmap_scope, "bitmaps", None)
    _bitmap_scope.bitmaps = {}
    try:
        yield
    finally:
        _bitmap_scope.bitmaps = previous


def _scope_bitmaps() -> "dict[int, PredicateBitmap] | None":
    return getattr(_bitmap_scope, "bitmaps", None)


class PredicateBitmap:
    """Per-query predicate-outcome planes: each alphabet predicate is
    evaluated **at most once per data node**.

    One plane (a ``bytearray`` indexed by the node's pre-order label) per
    distinct predicate object; a cell is unknown, known-false or
    known-true.  The bitmap is owned by the structure's
    :class:`TreeIndex` so one fill serves every consumer of the node —
    anchor-probe re-checks, matcher atom tests, optimizer analysis —
    across all candidates and operators of a query.  ``reset()`` clears
    the planes between queries (the bitmap is per-query state stored at
    the index for sharing, not a persistent statistic).
    """

    def __init__(
        self,
        size: int,
        pre_of: Callable[[TreeNode], int | None],
        source: Any | None = None,
    ) -> None:
        self._size = max(1, size)
        self._pre_of = pre_of
        #: Optional shared-column source (a
        #: :class:`repro.storage.columnar.ColumnarExtent`): a plane miss
        #: consults ``source.outcome_for(predicate, node)`` before
        #: evaluating, so outcomes another consumer already batch-computed
        #: for the whole extent are never re-derived per node.
        self._source = source
        self._planes: dict[int, bytearray] = {}
        self._slots: dict[int, int] = {}
        self._keep: list[AlphabetPredicate] = []  # keeps id() keys stable
        self.fills = 0
        self.hits = 0

    def outcome(self, predicate: AlphabetPredicate, node: TreeNode) -> tuple[bool, bool]:
        """``(result, filled)`` — evaluate-once semantics per node.

        ``filled`` is True when this call actually ran the predicate (a
        bitmap fill); False means the outcome was served without an
        evaluation — from the plane, or from a shared predicate column.
        """
        pre = self._pre_of(node)
        if pre is None or pre >= self._size:
            # A node the owner never labeled (e.g. a tree mutated after
            # indexing): evaluate without caching rather than mislabel.
            return bool(predicate(node.value)), True
        slot = self._slots.get(id(predicate))
        if slot is None:
            slot = self._slots[id(predicate)] = len(self._keep)
            self._keep.append(predicate)
        plane = self._planes.get(slot)
        if plane is None:
            plane = self._planes[slot] = bytearray(self._size)
        state = plane[pre]
        if state != _UNKNOWN:
            self.hits += 1
            return state == _TRUE, False
        if self._source is not None:
            served = self._source.outcome_for(predicate, node)
            if served is not None:
                plane[pre] = _TRUE if served else _FALSE
                self.hits += 1
                return served, False
        result = bool(predicate(node.value))
        plane[pre] = _TRUE if result else _FALSE
        self.fills += 1
        return result, True

    @property
    def plane_count(self) -> int:
        return len(self._planes)

    @property
    def memory_cells(self) -> int:
        """Resident plane cells — the quantity budgets charge for."""
        return len(self._planes) * self._size

    def reset(self) -> None:
        self._planes.clear()
        self._slots.clear()
        self._keep.clear()
        self.fills = 0
        self.hits = 0


@dataclass(frozen=True)
class NodeLabel:
    """Preorder/postorder interval label: ``a`` is an ancestor of ``b``
    iff ``a.pre < b.pre`` and ``b.post < a.post``."""

    pre: int
    post: int
    depth: int


class TreeIndex:
    """Attribute → node indexes plus interval labels for one tree."""

    def __init__(self, tree: AquaTree, attributes: Iterable[str] = ()) -> None:
        self.tree = tree
        self.labels: dict[int, NodeLabel] = {}
        self._value_index = HashIndex(VALUE_ATTRIBUTE)
        self._attribute_indexes: dict[str, HashIndex] = {
            attribute: HashIndex(attribute) for attribute in attributes
        }
        self.node_count = 0
        self._pre: dict[int, int] = {}
        self._children_pre: dict[int, int] = {}
        self._bitmap: PredicateBitmap | None = None
        self._column_provider: Callable[[], Any] | None = None
        self._build()

    def _build(self) -> None:
        if self.tree.root is None:
            return
        counter = 0
        sequence = 0

        def walk(node: TreeNode, depth: int) -> None:
            nonlocal counter, sequence
            pre = counter
            counter += 1
            # The dense preorder sequence (matching enumerate(tree.nodes()))
            # doubles as the match-memo position interning, so contexts
            # primed from this index skip their own O(n) walk.
            self._pre[id(node)] = sequence
            self._children_pre[id(node.children)] = sequence
            sequence += 1
            for child in node.children:
                walk(child, depth + 1)
            self.labels[id(node)] = NodeLabel(pre=pre, post=counter, depth=depth)
            counter += 1
            if node.is_concat_point:
                return
            value = node.value
            self._value_index.insert(node, key=_hashable_key(value))
            for attribute, index in self._attribute_indexes.items():
                key = read_key(value, attribute)
                index.insert(node, key=_hashable_key(key))

        walk(self.tree.root, 0)
        self.node_count = sequence

    def position_maps(self) -> tuple[dict[int, int], dict[int, int]]:
        """``(node-id → preorder, children-id → preorder)`` built once.

        The same shape :meth:`repro.storage.columnar.ColumnarExtent.position_maps`
        shares with the match context — handing these to
        ``prime_match_context`` saves the context's own full-tree
        interning walk on every query that probes this index.
        """
        return self._pre, self._children_pre

    def preorder_sorted(self, nodes: "list[TreeNode]") -> "list[TreeNode]":
        """Sort probed nodes into document preorder via the labels."""
        return sorted(
            nodes,
            key=lambda node: (
                label.pre
                if (label := self.labels.get(id(node))) is not None
                else self.node_count
            ),
        )

    # -- structural predicates ------------------------------------------------

    def is_ancestor(self, ancestor: TreeNode, descendant: TreeNode) -> bool:
        a = self.labels[id(ancestor)]
        b = self.labels[id(descendant)]
        return a.pre < b.pre and b.post < a.post

    def depth(self, node: TreeNode) -> int:
        return self.labels[id(node)].depth

    # -- shared predicate columns ----------------------------------------------

    def attach_column_source(self, provider: Callable[[], Any]) -> None:
        """Wire a columnar-extent provider (set by ``Database.tree_index``).

        ``provider`` re-resolves the ``AQUA_COLUMNAR*`` knobs on every
        call, so a cached index never pins a stale on/off or threshold
        decision; it returns the tree's
        :class:`~repro.storage.columnar.ColumnarExtent` or ``None``.
        """
        self._column_provider = provider

    def _column_source(self) -> Any | None:
        provider = self._column_provider
        return provider() if provider is not None else None

    # -- predicate-outcome bitmap ---------------------------------------------

    def _make_bitmap(self) -> PredicateBitmap:
        labels = self.labels
        return PredicateBitmap(
            2 * self.node_count + 2,
            lambda node: (
                label.pre if (label := labels.get(id(node))) is not None else None
            ),
            source=self._column_source(),
        )

    @property
    def bitmap(self) -> PredicateBitmap:
        """The per-query predicate-outcome bitmap, keyed by ``pre`` labels.

        Lazily allocated; plane size spans the label counter's range
        (pre labels run to ``2 · node_count`` because the counter also
        advances at each postorder visit).  Inside a
        :func:`scoped_bitmaps` scope (armed per query by
        :func:`repro.patterns.tree_memo.match_scope`) the bitmap is
        private to the scope, so concurrent queries sharing this index
        never share — or reset — each other's outcome planes.
        """
        scoped = _scope_bitmaps()
        if scoped is not None:
            bitmap = scoped.get(id(self))
            if bitmap is None:
                bitmap = scoped[id(self)] = self._make_bitmap()
            return bitmap
        if self._bitmap is None:
            self._bitmap = self._make_bitmap()
        return self._bitmap

    def reset_bitmap(self) -> None:
        """Clear per-query outcome state (called at query start)."""
        if self._bitmap is not None:
            self._bitmap.reset()

    def predicate_outcome(
        self,
        predicate: AlphabetPredicate,
        node: TreeNode,
        stats: Instrumentation | None = None,
    ) -> bool:
        """Evaluate ``predicate`` on ``node`` through the outcome bitmap.

        This is the fix for the duplicated work in :meth:`candidate_nodes`
        consumers: every anchor re-check and fallback scan of the same
        (predicate, node) pair after the first is a plane lookup.  Saved
        evaluations are flushed to stats as ``bitmap_hits``.
        """
        result, filled = self.bitmap.outcome(predicate, node)
        if stats is not None:
            if filled:
                stats.bump("bitmap_fills")
                stats.bump("predicate_evals")
            else:
                stats.bump("bitmap_hits")
        return result

    # -- candidate retrieval ----------------------------------------------------

    def add_attribute(self, attribute: str) -> None:
        if attribute in self._attribute_indexes:
            return
        index = HashIndex(attribute)
        for node in self.tree.element_nodes():
            index.insert(node, key=_hashable_key(read_key(node.value, attribute)))
        self._attribute_indexes[attribute] = index

    def indexed_attributes(self) -> set[str]:
        return set(self._attribute_indexes)

    def probe(self, attribute: str, key: Any) -> list[TreeNode]:
        if attribute == VALUE_ATTRIBUTE:
            return self._value_index.lookup(_hashable_key(key))
        return self._attribute_indexes[attribute].lookup(_hashable_key(key))

    def count(self, attribute: str, key: Any) -> int:
        if attribute == VALUE_ATTRIBUTE:
            return self._value_index.count(_hashable_key(key))
        return self._attribute_indexes[attribute].count(_hashable_key(key))

    def servable_terms(
        self, predicate: AlphabetPredicate
    ) -> list[tuple[str, str, Any]]:
        """The predicate's equality terms this index can serve.

        ``$param`` constants are resolved to their current binding (the
        probe needs a concrete key); a term whose param is unbound is
        not servable.
        """
        if predicate.opaque:
            return []
        terms: list[tuple[str, str, Any]] = []
        for attribute, op, constant in predicate.indexable_terms():
            if op != "=":
                continue
            if attribute != VALUE_ATTRIBUTE and attribute not in self._attribute_indexes:
                continue
            constant, bound = params.try_resolve(constant)
            if not bound:
                continue
            terms.append((attribute, op, constant))
        return terms

    def candidate_nodes(
        self,
        predicate: AlphabetPredicate,
        stats: Instrumentation | None = None,
    ) -> tuple[list[TreeNode], bool]:
        """Nodes that might satisfy ``predicate``; ``(nodes, used_index)``.

        With a servable equality term the candidates come from one index
        probe (then get re-checked by the caller's full predicate); with
        none, every element node is returned and the caller scans.
        """
        guard = guardrails.current_guard()
        terms = self.servable_terms(predicate)
        if terms:
            # Pick the most selective servable term.
            attribute, _, constant = min(
                terms, key=lambda term: self.count(term[0], term[2])
            )
            if stats is not None:
                stats.bump("index_probes")
            nodes = self.probe(attribute, constant)
            if stats is not None:
                stats.bump("index_candidates", len(nodes))
            if guard is not None:
                guard.charge_nodes(len(nodes), "tree-index candidates")
            return nodes, True
        source = self._column_source()
        if source is not None and source.servable(predicate):
            # Fallback-scan fix: instead of handing back every element
            # node for a per-probe re-check, serve the shared predicate
            # column — one batch evaluation per extent, after which the
            # caller's re-checks are all bitmap/column hits.
            nodes = source.matching_nodes(predicate)
            if stats is not None:
                stats.bump("column_scans")
                stats.bump("index_candidates", len(nodes))
            if guard is not None:
                guard.charge_nodes(len(nodes), "columnar candidates")
            return nodes, True
        nodes = list(self.tree.element_nodes())
        if stats is not None:
            stats.bump("full_scans")
            stats.bump("nodes_scanned", len(nodes))
        if guard is not None:
            guard.charge_nodes(len(nodes), "tree scan")
        return nodes, False


class ListIndex:
    """Value/attribute → element positions for one list."""

    def __init__(self, aqua_list: AquaList, attributes: Iterable[str] = ()) -> None:
        self.aqua_list = aqua_list
        self.values = aqua_list.value_array
        self._value_positions: dict[Any, list[int]] = {}
        self._attribute_positions: dict[str, dict[Any, list[int]]] = {
            attribute: {} for attribute in attributes
        }
        for position, value in enumerate(self.values):
            self._value_positions.setdefault(_hashable_key(value), []).append(position)
            for attribute, mapping in self._attribute_positions.items():
                key = _hashable_key(read_key(value, attribute))
                mapping.setdefault(key, []).append(position)

    def positions_for(
        self,
        predicate: AlphabetPredicate,
        stats: Instrumentation | None = None,
    ) -> tuple[list[int], bool]:
        """Positions that might satisfy ``predicate``; ``(positions, used_index)``."""
        guard = guardrails.current_guard()
        if not predicate.opaque:
            for attribute, op, constant in predicate.indexable_terms():
                if op != "=":
                    continue
                constant, bound = params.try_resolve(constant)
                if not bound:
                    continue
                if attribute == VALUE_ATTRIBUTE:
                    fault_point("index_probe")
                    if stats is not None:
                        stats.bump("index_probes")
                    positions = list(
                        self._value_positions.get(_hashable_key(constant), ())
                    )
                    if guard is not None:
                        guard.charge_nodes(len(positions), "list-index candidates")
                    return positions, True
                if attribute in self._attribute_positions:
                    fault_point("index_probe")
                    if stats is not None:
                        stats.bump("index_probes")
                    mapping = self._attribute_positions[attribute]
                    positions = list(mapping.get(_hashable_key(constant), ()))
                    if guard is not None:
                        guard.charge_nodes(len(positions), "list-index candidates")
                    return positions, True
        if stats is not None:
            stats.bump("full_scans")
        if guard is not None:
            guard.charge_nodes(len(self.values), "list scan")
        return list(range(len(self.values))), False


def _hashable_key(value: Any) -> Any:
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value
