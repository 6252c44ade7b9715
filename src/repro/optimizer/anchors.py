"""Access-path anchor analysis (paper §4 "Why Split?").

The split/index rewrites all hinge on the same question: *which cheap
predicate must every match satisfy, and can an index serve it?*  This
module holds that analysis in one place so the rewrite rules
(:mod:`repro.optimizer.rules`) and the logical→physical lowering pass
(:mod:`repro.physical.lower`) answer it identically.

* :func:`tree_split_anchors` — the root predicates of a tree pattern,
  when each is index-servable (the §4 "index on d" precondition);
* :func:`probe_anchor_roots` — the runtime half of the same decision:
  probe those anchors' node indexes for candidate match roots (used by
  the index-probing physical operators);
* :func:`list_anchor_choice` — a required atom of a list pattern at a
  bounded offset from the match start, plus the possible offsets;
* :func:`extent_conjunct_split` — the indexed/residual decomposition of
  a conjunctive extent-select predicate.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .. import params
from ..core.aqua_tree import AquaTree, TreeNode
from ..patterns.list_ast import Atom as ListAtom
from ..patterns.list_ast import Concat as ListConcat
from ..patterns.list_ast import ListPattern, ListPatternNode
from ..patterns.tree_ast import TreePattern
from ..predicates.alphabet import AlphabetPredicate, And, TruePredicate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.database import Database
    from ..storage.stats import Instrumentation, RunCounters


def _index_servable(predicate: AlphabetPredicate) -> bool:
    """Can a node index serve ``predicate`` via an equality term?

    Binding-aware for ``$param`` constants: an *unbound* param is
    presumed servable (the prepared plan records the assumption — see
    :class:`~repro.query.prepare.PreparedQuery` — and re-plans if a
    later binding breaks it), while a param currently bound to an
    unhashable value cannot be an index key and disqualifies the term.
    """
    if predicate.opaque:
        return False
    for _, op, constant in predicate.indexable_terms():
        if op != "=":
            continue
        constant, bound = params.try_resolve(constant)
        if bound and not params.is_bindable(constant):
            continue
        return True
    return False


def tree_split_anchors(pattern: TreePattern) -> tuple[AlphabetPredicate, ...] | None:
    """The pattern's usable root-predicate anchors, or ``None``.

    Every match of an unanchored pattern is rooted at a node satisfying
    one of the pattern's root predicates, so probing those predicates'
    indexes yields a complete candidate-root set.  Usable means: the
    pattern is not already pinned to the tree root, it exposes at least
    one root predicate, and each is non-opaque with an equality term an
    index can serve.
    """
    if pattern.root_anchor:
        return None  # already pinned to the tree root; nothing to gain
    anchors = pattern.root_predicates()
    if not anchors:
        return None
    for anchor in anchors:
        if not _index_servable(anchor):
            return None
    return tuple(anchors)


def list_columnar_choice(
    pattern: ListPattern,
) -> tuple[tuple[AlphabetPredicate, tuple[int, ...]], ...] | None:
    """Every column-servable required atom with bounded offsets, or ``None``.

    The columnar analogue of :func:`list_anchor_choice` — but where the
    position index probes *one* anchor (more would mean more probes),
    the shift-AND pass over predicate columns conjoins **all** of them
    at once: each extra ``(predicate, offsets)`` pair is a single
    bitwise AND, and every pair narrows the surviving starts.  Pairs
    with trivially-true predicates are skipped (their column is all
    ones); ``None`` when no usable pair remains.
    """
    from ..storage.columnar import column_servable

    body = pattern.body
    parts: Sequence[ListPatternNode]
    if isinstance(body, ListConcat):
        parts = body.parts
    else:
        parts = (body,)
    choices: list[tuple[AlphabetPredicate, tuple[int, ...]]] = []
    for index, part in enumerate(parts):
        if not isinstance(part, ListAtom):
            continue
        predicate = part.predicate
        if isinstance(predicate, TruePredicate) or not column_servable(predicate):
            continue
        offsets = anchor_offsets(parts, index)
        if offsets is None:
            continue
        choices.append((predicate, offsets))
    return tuple(choices) if choices else None


def probe_anchor_roots(
    db: "Database",
    tree: AquaTree,
    anchors: Iterable[AlphabetPredicate],
    stats: "Instrumentation | RunCounters | None" = None,
) -> "list[TreeNode] | None":
    """Index-probed candidate match roots, in preorder, or ``None``.

    The runtime companion of :func:`tree_split_anchors`, shared by the
    index-probing ``sub_select`` and ``split`` so both charge identical
    work.  Probes answer posting buckets, merged on their preorder
    positions, so the matcher lays out nothing to sort the roots.  They
    are a superset of the true match roots: a probe serves one equality
    term, and the matcher's own atom test at each root is the
    full-predicate check — nothing is evaluated here.  ``None`` when some
    anchor had no servable term — the caller should fall back to the
    full scan rather than probe twice.
    """
    attributes: set[str] = set()
    for anchor in anchors:
        attributes |= anchor.attributes()
    index = db.tree_index(tree, attributes)
    buckets = []
    for anchor in anchors:
        bucket, used = index.candidate_bucket(anchor, stats)
        if not used:
            return None
        buckets.append(zip(*bucket))
    # Keyed by position: a node two anchors post is handed over once.
    return list(dict(heapq.merge(*buckets, key=itemgetter(0))).values())


def anchor_offsets(
    parts: Sequence[ListPatternNode], index: int
) -> tuple[int, ...] | None:
    """Possible distances from a match start to the ``index``-th part."""
    minimum = 0
    maximum = 0
    for part in parts[:index]:
        minimum += part.min_length()
        part_max = part.max_length()
        if part_max is None:
            return None
        maximum += part_max
    return tuple(range(minimum, maximum + 1))


def list_anchor_choice(
    pattern: ListPattern,
) -> tuple[AlphabetPredicate, tuple[int, ...]] | None:
    """A position-index anchor for a list pattern: ``(anchor, offsets)``.

    Picks the required atom with the fewest possible offsets from the
    match start (e.g. the leading ``A`` of ``[A??F]``), so probing the
    list's position index for it and subtracting the offsets yields the
    candidate start positions.  ``None`` when no atom qualifies.
    """
    body = pattern.body
    parts: Sequence[ListPatternNode]
    if isinstance(body, ListConcat):
        parts = body.parts
    else:
        parts = (body,)
    best: tuple[AlphabetPredicate, tuple[int, ...]] | None = None
    for index, part in enumerate(parts):
        if not isinstance(part, ListAtom):
            continue
        predicate = part.predicate
        if not _index_servable(predicate):
            continue
        offsets = anchor_offsets(parts, index)
        if offsets is None:
            continue
        if best is None or len(offsets) < len(best[1]):
            best = (predicate, offsets)
    return best


def extent_conjunct_split(
    predicate: AlphabetPredicate, extent: str, db: "Database"
) -> tuple[AlphabetPredicate, AlphabetPredicate | None] | None:
    """Split a conjunction into ``(indexed, residual)`` for ``extent``.

    The first conjunct with an attribute index on ``extent`` becomes the
    indexed predicate; the rest (conjoined) re-check the survivors.
    ``None`` when no conjunct is servable.
    """
    conjuncts = predicate.conjuncts()
    indexed: AlphabetPredicate | None = None
    residual: list[AlphabetPredicate] = []
    for conjunct in conjuncts:
        if indexed is None and not conjunct.opaque:
            servable = any(
                db.has_index(extent, attribute)
                for attribute, _, _ in conjunct.indexable_terms()
            )
            if servable:
                indexed = conjunct
                continue
        residual.append(conjunct)
    if indexed is None:
        return None
    residual_pred = (
        None
        if not residual
        else (residual[0] if len(residual) == 1 else And(*residual))
    )
    return indexed, residual_pred
