"""Node-level indexes over one tree (or list) instance.

§4's split rewrite assumes the system can "use an index to efficiently
locate all nodes in T that match d".  A :class:`TreeIndex` provides that:
maps from stored attribute values — and from the payload itself — to
nodes.  Constructing one only *declares* the attributes it may serve;
the maps are the tree's own :meth:`~repro.core.aqua_tree.AquaTree.postings`,
built by the first probe — or root first-set scan — to read them.
Ancestor tests and depths read the tree's preorder
:meth:`~repro.core.aqua_tree.AquaTree.layout`, built when they ask.
An index is cached on its tree (``AquaTree._index``, see
:meth:`repro.storage.database.Database.tree_index`), so it lives exactly
as long as the tree does.

Given an alphabet-predicate it answers :meth:`candidate_nodes`: the
nodes that *might* match, served from an index when the predicate has an
indexable equality term, falling back to a full scan otherwise (and
saying which happened, so benchmarks can report the narrowing).

:class:`ListIndex` is the positional analogue for lists: predicate value
→ element positions, which the optimizer feeds to the pattern engines'
``starts`` hook.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable

from .. import context, guardrails, params
from ..core.aqua_list import AquaList
from ..core.aqua_tree import VALUE_ATTRIBUTE, AquaTree, TreeLayout, TreeNode, TreePostings
from ..faults import fault_point
from ..predicates.alphabet import AlphabetPredicate
from .index import grouped
from .stats import Instrumentation, RunCounters


class TreeIndex:
    """Attribute → node maps over one tree: a view of its postings."""

    def __init__(self, tree: AquaTree, attributes: Iterable[str] = ()) -> None:
        # A weak proxy: cached on the tree, the index must not hold it, or
        # the two would form a cycle only the cyclic collector frees.
        self._tree = weakref.proxy(tree)
        #: Every attribute this index may serve (the payload itself sits
        #: under ``VALUE_ATTRIBUTE``), in declaration order.
        self._attributes: dict[str, None] = dict.fromkeys((VALUE_ATTRIBUTE, *attributes))

    def _postings(self, attribute: str) -> TreePostings:
        return self._tree.postings(attribute, lambda: context.emit("index_builds"))

    def _bucket(self, attribute: str, key: Any) -> tuple:
        return self._postings(attribute).buckets.get(_hashable_key(key), ((), []))

    @property
    def layout(self) -> TreeLayout:
        return self._tree.layout()

    @property
    def node_count(self) -> int:
        return len(self.layout.nodes)

    # -- structural predicates ------------------------------------------------

    def is_ancestor(self, ancestor: TreeNode, descendant: TreeNode) -> bool:
        position = self.layout.position
        a = position[id(ancestor)]
        return a < position[id(descendant)] < self.layout.end[a]

    def depth(self, node: TreeNode) -> int:
        return self.layout.depth[self.layout.position[id(node)]]

    # -- candidate retrieval ----------------------------------------------------

    def add_attribute(self, attribute: str) -> None:
        """Declare ``attribute`` servable (its map waits for a probe)."""
        self._attributes.setdefault(attribute, None)

    def indexed_attributes(self) -> set[str]:
        return set(self._attributes) - {VALUE_ATTRIBUTE}

    def probe(self, attribute: str, key: Any) -> list[TreeNode]:
        return list(self.probe_bucket(attribute, key)[1])

    def probe_bucket(self, attribute: str, key: Any) -> tuple:
        """:meth:`probe` as the posting bucket ``(positions, nodes)``."""
        fault_point("index_probe")
        context.emit("index_probes")
        return self._bucket(attribute, key)

    def count(self, attribute: str, key: Any) -> int:
        return len(self._bucket(attribute, key)[1])

    def selectivity(self, attribute: str, key: Any) -> float:
        """Fraction of the tree's nodes a probe on ``key`` returns."""
        return self.count(attribute, key) / max(1, self._postings(attribute).nodes)

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
            if op != "=" or attribute not in self._attributes:
                continue
            constant, bound = params.try_resolve(constant)
            if not bound:
                continue
            terms.append((attribute, op, constant))
        return terms

    def candidate_nodes(
        self,
        predicate: AlphabetPredicate,
        stats: Instrumentation | RunCounters | None = None,
    ) -> tuple[list[TreeNode], bool]:
        """Nodes that might satisfy ``predicate``; ``(nodes, used_index)``.

        With a servable equality term the candidates come from one index
        probe, in preorder (a superset: the matcher's own atom test at
        each candidate is the full-predicate check); with none, every
        element node is returned and the caller scans.
        """
        bucket, used = self.candidate_bucket(predicate, stats)
        return list(bucket[1]), used

    def candidate_bucket(
        self,
        predicate: AlphabetPredicate,
        stats: Instrumentation | RunCounters | None = None,
    ) -> tuple[tuple, bool]:
        """:meth:`candidate_nodes`, a probe's ``(positions, nodes)`` bucket in place of nodes."""
        guard = guardrails.current_guard()
        terms = self.servable_terms(predicate)
        if terms:
            # The probe — and any map it is first to read — is counted
            # where it happens; crediting the caller's sink counts it
            # there exactly once, whether or not the query already did.
            with context.entered(receiver=stats):
                # The smallest bucket among built maps, else the first term
                # (as ``ListIndex``): no map is built only to compare sizes.
                built = self._tree._postings or {}
                attribute, _, constant = min(
                    (term for term in terms if term[0] in built),
                    key=lambda term: self.count(term[0], term[2]),
                    default=terms[0],
                )
                bucket = self.probe_bucket(attribute, constant)
            if stats is not None:
                stats.bump("index_candidates", len(bucket[1]))
            if guard is not None:
                guard.charge_nodes(len(bucket[1]), "tree-index candidates")
            return bucket, True
        nodes = [node for node in self.layout.nodes if not node.is_concat_point]
        if stats is not None:
            stats.bump("full_scans")
            stats.bump("nodes_scanned", len(nodes))
        if guard is not None:
            guard.charge_nodes(len(nodes), "tree scan")
        return (None, nodes), False


class ListIndex:
    """Value/attribute → element positions for one list, built on first probe."""

    def __init__(self, aqua_list: AquaList, attributes: Iterable[str] = ()) -> None:
        self.values = aqua_list.value_array  # not the list: no cycle through its cache
        #: Declared attribute → key → positions, ``None`` until probed.
        self._maps: dict[str, dict | None] = dict.fromkeys((VALUE_ATTRIBUTE, *attributes))

    def _map(self, attribute: str) -> dict[Any, list[int]]:
        return grouped(self._maps, attribute, enumerate(self.values))

    def add_attribute(self, attribute: str) -> None:
        """Declare ``attribute`` servable (its map waits for a probe)."""
        self._maps.setdefault(attribute, None)

    def positions_for(
        self,
        predicate: AlphabetPredicate,
        stats: Instrumentation | RunCounters | None = None,
    ) -> tuple[list[int], bool]:
        """Positions that might satisfy ``predicate``; ``(positions, used_index)``."""
        guard = guardrails.current_guard()
        if not predicate.opaque:
            for attribute, op, constant in predicate.indexable_terms():
                if op != "=" or attribute not in self._maps:
                    continue
                constant, bound = params.try_resolve(constant)
                if not bound:
                    continue
                fault_point("index_probe")
                if stats is not None:
                    stats.bump("index_probes")
                with context.entered(receiver=stats):
                    mapping = self._map(attribute)
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
