"""Node-level indexes over one tree (or list) instance.

§4's split rewrite assumes the system can "use an index to efficiently
locate all nodes in T that match d".  A :class:`TreeIndex` provides that:
hash indexes from stored attribute values — plus the payload itself — to
nodes, built in one loop over the tree's preorder
:meth:`~repro.core.aqua_tree.AquaTree.layout`.  The index numbers
nothing itself: ancestor tests and depths read the positions of that one
layout, the same object the tree's columnar extent and match contexts
read.

Given an alphabet-predicate it answers :meth:`candidate_nodes`: the
nodes that *might* match, served from an index when the predicate has an
indexable equality term, falling back to a full scan otherwise (and
saying which happened, so benchmarks can report the narrowing).

:class:`ListIndex` is the positional analogue for lists: predicate value
→ element positions, which the optimizer feeds to the pattern engines'
``starts`` hook.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Iterable

from .. import guardrails, params
from ..core.aqua_list import AquaList
from ..core.aqua_tree import AquaTree, TreeNode
from ..faults import fault_point
from ..predicates.alphabet import AlphabetPredicate
from .index import VALUE_ATTRIBUTE, HashIndex, read_key
from .stats import Instrumentation


class TreeIndex:
    """Attribute → node hash indexes over one tree's layout."""

    def __init__(
        self,
        tree: AquaTree,
        attributes: Iterable[str] = (),
        column_source: Callable[[], Any] | None = None,
    ) -> None:
        self.tree = tree
        self.layout = tree.layout()
        self.node_count = len(self.layout.nodes)
        #: One hash index per stored attribute, plus the payload itself
        #: under the ``VALUE_ATTRIBUTE`` pseudo-attribute.
        self._indexes: dict[str, HashIndex] = {
            attribute: HashIndex(attribute)
            for attribute in (VALUE_ATTRIBUTE, *attributes)
        }
        #: Returns the tree's columnar extent or ``None``; called per
        #: lookup, so a cached index never pins a stale ``AQUA_COLUMNAR*``
        #: on/off or threshold decision.
        self._column_source = column_source or (lambda: None)
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
        probe (a superset: the matcher's own atom test at each candidate
        is the full-predicate check); with none, every element node is
        returned and the caller scans.
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
            # node, serve the shared predicate column — one batch
            # evaluation per extent, exact for the whole predicate.
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
