"""Node-level indexes over one tree (or list) instance.

§4's split rewrite assumes the system can "use an index to efficiently
locate all nodes in T that match d".  A :class:`TreeIndex` provides that:
maps from stored attribute values — and from the payload itself — to
nodes.  Constructing one only *declares* the attributes it may serve;
each map is built by the first probe that reads it, in one grouped pass
over the tree's preorder :meth:`~repro.core.aqua_tree.AquaTree.layout`.
The index numbers nothing itself: ancestor tests and depths read the
positions of that one layout, the same object the tree's columnar extent
and match contexts read.

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
from . import stats as stats_mod
from .index import _MISSING, VALUE_ATTRIBUTE, read_key
from .stats import Instrumentation


def _built(maps: dict, attribute: str, pairs: Iterable[tuple[Any, Any]]) -> dict:
    """``maps[attribute]``: the declared attribute's key → entries map,
    grouped from ``pairs`` — ``(entry, value)`` in order, consumed only
    then — by the first probe to read it.

    Values without the attribute are skipped; an unhashable key is filed
    under its ``repr`` (see :func:`_hashable_key`).  Racing first probes
    are benign under the same contract as :meth:`AquaTree.layout`: each
    thread groups an equal map from immutable input and one assignment
    publishes it.
    """
    built = maps[attribute]
    if built is None:
        built = {}
        for entry, value in pairs:
            key = read_key(value, attribute)
            if key is _MISSING:
                continue
            try:
                built.setdefault(key, []).append(entry)
            except TypeError:
                built.setdefault(repr(key), []).append(entry)
        maps[attribute] = built
        stats_mod.emit("index_builds")
    return built


class TreeIndex:
    """Attribute → node maps over one tree's layout, built on first probe."""

    def __init__(
        self,
        tree: AquaTree,
        attributes: Iterable[str] = (),
        column_source: Callable[[], Any] | None = None,
    ) -> None:
        self.tree = tree
        self.layout = tree.layout()
        self.node_count = len(self.layout.nodes)
        #: Every attribute this index may serve (the payload itself sits
        #: under ``VALUE_ATTRIBUTE``) → its key → nodes map, ``None``
        #: until a probe reads it.
        self._maps: dict[str, dict | None] = dict.fromkeys((VALUE_ATTRIBUTE, *attributes))
        #: Returns the tree's columnar extent or ``None``; called per
        #: lookup, so a cached index never pins a stale ``AQUA_COLUMNAR*``
        #: on/off or threshold decision.
        self._column_source = column_source or (lambda: None)

    def _map(self, attribute: str) -> dict[Any, list[TreeNode]]:
        nodes = self.layout.nodes
        pairs = ((n, n.value) for n in nodes if not n.is_concat_point)
        return _built(self._maps, attribute, pairs)

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
        self._maps.setdefault(attribute, None)

    def indexed_attributes(self) -> set[str]:
        return set(self._maps) - {VALUE_ATTRIBUTE}

    def probe(self, attribute: str, key: Any) -> list[TreeNode]:
        fault_point("index_probe")
        stats_mod.emit("index_probes")
        return list(self._map(attribute).get(_hashable_key(key), ()))

    def count(self, attribute: str, key: Any) -> int:
        return len(self._map(attribute).get(_hashable_key(key), ()))

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
            if op != "=" or attribute not in self._maps:
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
            # The probe — and any map it is first to read — is counted
            # where it happens; activating the caller's sink credits it
            # there exactly once, whether or not the query already did.
            with stats.activated() if stats is not None else nullcontext():
                # Pick the most selective servable term.
                attribute, _, constant = min(
                    terms, key=lambda term: self.count(term[0], term[2])
                )
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
    """Value/attribute → element positions for one list, built on first probe."""

    def __init__(self, aqua_list: AquaList, attributes: Iterable[str] = ()) -> None:
        self.aqua_list = aqua_list
        self.values = aqua_list.value_array
        #: Declared attribute → key → positions, ``None`` until probed.
        self._maps: dict[str, dict | None] = dict.fromkeys((VALUE_ATTRIBUTE, *attributes))

    def _map(self, attribute: str) -> dict[Any, list[int]]:
        return _built(self._maps, attribute, enumerate(self.values))

    def positions_for(
        self,
        predicate: AlphabetPredicate,
        stats: Instrumentation | None = None,
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
                with stats.activated() if stats is not None else nullcontext():
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
