"""Node-level indexes over one tree (or list) instance.

§4's split rewrite assumes the system can "use an index to efficiently
locate all nodes in T that match d".  A :class:`TreeIndex` provides that:
hash indexes from stored attribute values — plus the payload itself — to
nodes, built in one loop over the tree's preorder
:meth:`~repro.core.aqua_tree.AquaTree.layout`.  The index numbers
nothing itself: ancestor tests, depths and the predicate-outcome bitmap
all read the positions of that one layout, the same object the tree's
columnar extent and match contexts read.

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
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterable, Iterator

from .. import guardrails, params
from ..core.aqua_list import AquaList
from ..core.aqua_tree import AquaTree, TreeLayout, TreeNode
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

    One plane (a ``bytearray`` indexed by the node's position in the
    tree's layout) per distinct predicate object; a cell is unknown,
    known-false or known-true.  The bitmap is owned by the structure's
    :class:`TreeIndex` so one fill serves every consumer of the node —
    anchor-probe re-checks, matcher atom tests, optimizer analysis —
    across all candidates and operators of a query.
    """

    def __init__(self, layout: TreeLayout, source: Any | None = None) -> None:
        self._nodes = layout.nodes  # pinned: their ids key ``_position``
        self._position = layout.position
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
        pre = self._position.get(id(node))
        if pre is None:
            # A node the layout never numbered (e.g. a tree mutated after
            # it was laid out): evaluate without caching rather than mislabel.
            return bool(predicate(node.value)), True
        slot = self._slots.get(id(predicate))
        if slot is None:
            slot = self._slots[id(predicate)] = len(self._keep)
            self._keep.append(predicate)
        plane = self._planes.get(slot)
        if plane is None:
            plane = self._planes[slot] = bytearray(len(self._nodes))
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

    def reset(self) -> None:
        self._planes.clear()
        self._slots.clear()
        self._keep.clear()
        self.fills = 0
        self.hits = 0


class TreeIndex:
    """Attribute → node hash indexes over one tree's layout."""

    def __init__(self, tree: AquaTree, attributes: Iterable[str] = ()) -> None:
        self.tree = tree
        self.layout = tree.layout()
        self.node_count = len(self.layout.nodes)
        #: One hash index per stored attribute, plus the payload itself
        #: under the ``VALUE_ATTRIBUTE`` pseudo-attribute.
        self._indexes: dict[str, HashIndex] = {
            attribute: HashIndex(attribute)
            for attribute in (VALUE_ATTRIBUTE, *attributes)
        }
        self._bitmap: PredicateBitmap | None = None
        self._column_provider: Callable[[], Any] | None = None
        self._build(list(self._indexes.values()))

    def _build(self, indexes: list[HashIndex]) -> None:
        """Enter every element node of the layout into ``indexes``."""
        for node in self.layout.nodes:
            if node.is_concat_point:
                continue
            value = node.value
            for index in indexes:
                index.insert(node, key=_hashable_key(read_key(value, index.attribute)))

    # -- structural predicates ------------------------------------------------

    def is_ancestor(self, ancestor: TreeNode, descendant: TreeNode) -> bool:
        position = self.layout.position
        a = position[id(ancestor)]
        return a < position[id(descendant)] < self.layout.end[a]

    def depth(self, node: TreeNode) -> int:
        return self.layout.depth[self.layout.position[id(node)]]

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
        return PredicateBitmap(self.layout, source=self._column_source())

    @property
    def bitmap(self) -> PredicateBitmap:
        """The per-query predicate-outcome bitmap, keyed by layout position.

        Lazily allocated.  Inside a :func:`scoped_bitmaps` scope (armed
        per query by :func:`repro.patterns.tree_memo.match_scope`) the
        bitmap is private to the scope, so concurrent queries sharing
        this index never share each other's outcome planes.
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
        if attribute in self._indexes:
            return
        index = HashIndex(attribute)
        self._build([index])
        self._indexes[attribute] = index

    def indexed_attributes(self) -> set[str]:
        return set(self._indexes) - {VALUE_ATTRIBUTE}

    def probe(self, attribute: str, key: Any) -> list[TreeNode]:
        return self._indexes[attribute].lookup(_hashable_key(key))

    def count(self, attribute: str, key: Any) -> int:
        return self._indexes[attribute].count(_hashable_key(key))

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
            if attribute not in self._indexes:
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
            # The probe is counted where it happens, in HashIndex.lookup;
            # activating the caller's sink credits it there exactly once,
            # whether or not the query already activated it.
            with stats.activated() if stats is not None else nullcontext():
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
