"""The physical operators: one streaming implementation per logical node.

Each class realizes one logical operator from :mod:`repro.query.expr`
as a generator over rows (see :class:`~repro.physical.base.PhysicalOp`
for the pull protocol).  The mapping is chosen by
:func:`repro.physical.lower.lower`; operators that need more than the
logical node carries (anchors, conjunct splits) take it as constructor
configuration, decided at lowering time.

The accounting contract every operator here keeps:

* a full scan is charged in full, but incrementally — the four tree
  pattern operators charge one node per match candidate and top
  up to ``tree.size()`` at exhaustion, list ``sub_select`` / ``split`` do
  the same against ``len + 1`` start positions, and the indexed variants
  charge nothing beyond their probes — so a budget trips mid-scan while a
  completed scan's totals do not depend on how many candidates a filter
  skipped;
* matcher counters are flushed per candidate
  (``flush_per_candidate`` / ``flush_per_start``) so they are credited
  to this operator's attribution frame at pull time;
* set-shaped streams are deduplicated at the producer
  (:func:`~repro.physical.base.dedup`) under the equality the
  operator's ``AquaSet`` result carries, in first-seen order.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from .. import params
from ..algebra.list_ops import build_pieces
from ..algebra.tree_ops import apply_tree, closed_match, select, split_emitter
from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaSet
from ..core.equality import DEFAULT
from ..core.identity import as_cell
from ..errors import QueryError
from ..optimizer.anchors import probe_anchor_roots, tree_columnar_anchors
from ..storage.columnar import columnar_list_for
from ..patterns.list_match import iter_list_matches
from ..patterns.list_parser import list_pattern
from ..patterns.tree_match import iter_tree_matches
from ..patterns.tree_parser import tree_pattern
from .base import PhysicalOp, dedup

# -- sources -------------------------------------------------------------------


class ScanRoot(PhysicalOp):
    """Fetch a named persistent root (a stored reference, not a buffer)."""

    name = "scan_root"
    shape = "value"

    def rows(self) -> Iterator[Any]:
        yield self.ctx.db.root(self.logical.name)

    def access_path(self) -> str:
        return f"named root {self.logical.name!r}"


class ScanExtent(PhysicalOp):
    """Lazily scan a class extent, charging the guard row by row."""

    name = "scan_extent"
    shape = "set"

    def rows(self) -> Iterator[Any]:
        self.result_equality = DEFAULT
        yield from dedup(self.ctx.db.iter_extent(self.logical.name), DEFAULT)

    def access_path(self) -> str:
        return f"lazy scan of extent {self.logical.name!r}"


class LiteralSource(PhysicalOp):
    """A constant handed to the plan (a reference, not a buffer)."""

    name = "literal"
    shape = "value"

    def rows(self) -> Iterator[Any]:
        yield self.logical.value


class ParamSource(PhysicalOp):
    """A ``$name`` slot read from the bindings armed for this execution.

    The slot is resolved per pull, not at lowering, so one prepared plan
    (see :mod:`repro.query.prepare`) serves every binding.
    """

    name = "param"
    shape = "value"

    def rows(self) -> Iterator[Any]:
        yield params.resolve(params.Param(self.logical.name))


# -- tree operators ------------------------------------------------------------


class TreeSelectOp(PhysicalOp):
    """Order-preserving tree select.

    The algorithm is inherently bottom-up (surviving forests propagate
    from the leaves), so the forest is built eagerly and recorded as a
    resident buffer; the members still stream to the parent.
    """

    name = "tree_select"
    shape = "set"

    def rows(self) -> Iterator[Any]:
        tree = self.input_tree()
        result = select(self.ctx.stats.counting(self.logical.predicate), tree)
        self.result_equality = result.equality
        self.note_buffered(len(result))
        yield from result

    def access_path(self) -> str:
        return "bottom-up forest build (buffers survivors)"


class TreeApplyOp(PhysicalOp):
    """``apply(f)(T)``: constructs the isomorphic image tree."""

    name = "tree_apply"
    shape = "value"

    def rows(self) -> Iterator[Any]:
        tree = self.input_tree()
        result = apply_tree(self.logical.function, tree)
        self.note_buffered(result.size())
        yield result


class SubSelectPipe(PhysicalOp):
    """``split(tp, f)(T)`` streamed match by match, by a charged full scan.

    Serves all four tree-pattern operators: ``sub_select`` / ``all_anc``
    / ``all_desc`` arrive as the split functions §4 derives them with
    (``logical.split_function``), so they share candidate sources,
    charges and counters, and each row is emitted as soon as the matcher
    produces its match — the ``(x, y, z)`` trio never piles up in an
    intermediate set.
    """

    name = "sub_select_pipe"
    split_name = "split_pipe"
    shape = "set"

    def __init__(self, logical, child: PhysicalOp, pattern, function) -> None:
        super().__init__(logical, (child,))
        self.pattern = pattern
        self.function = function
        if function is not closed_match:
            self.name = self.split_name

    def _matches(self, tree, tp) -> Iterator[Any]:
        """Every match of ``tp`` in ``tree``, by a charged full scan.

        Charges one node per match candidate as candidates are tried — so a
        ``max_nodes_scanned`` budget trips mid-scan — and tops up to the
        tree's full size at exhaustion: a completed scan costs ``tree.size()``
        nodes whether or not the matcher's columnar root filter skipped some.
        """
        size = tree.size()
        stats = self.ctx.stats
        guard = self.ctx.guard
        charged = 0

        def on_candidate(count: int) -> None:
            nonlocal charged
            charged += count
            stats.bump("nodes_scanned", count)
            if guard is not None:
                guard.charge_nodes(count, "tree scan")

        yield from iter_tree_matches(
            tp, tree, on_candidate=on_candidate, flush_per_candidate=True
        )
        remainder = size - charged
        if remainder > 0:
            stats.bump("nodes_scanned", remainder)
            if guard is not None:
                guard.charge_nodes(remainder, "tree scan")

    def rows(self) -> Iterator[Any]:
        tree = self.input_tree()
        tp = tree_pattern(self.pattern)
        self.result_equality = DEFAULT
        emit = split_emitter(self.function, tree)
        yield from dedup(map(emit, self._matches(tree, tp)), DEFAULT)

    def access_path(self) -> str:
        # Inside a query the matcher narrows an unrestricted candidate
        # walk to the nodes whose root-predicate column bits are set
        # whenever the columnar kernel engages (``AQUA_COLUMNAR`` on,
        # tree at or above the size threshold); say so when the
        # pattern's root predicates are column-servable.
        anchors = tree_columnar_anchors(tree_pattern(self.pattern))
        if anchors is None:
            return "full tree scan"
        columns = ", ".join(anchor.describe() for anchor in anchors)
        return f"full tree scan; columnar bitset filter on {columns} when the kernel engages"


class IndexAnchorScan(SubSelectPipe):
    """The same four operators, tried only at index-probed roots.

    The paper's §4 rewrite ("the split operator uses the index on d to
    pick all the subtrees of T that are rooted at d"): every match roots
    at a node satisfying one of the pattern's root predicates, so probe
    those predicates' indexes and only try the matcher there.  Falls
    back to the full scan when a probe cannot be served (charging
    nothing extra).
    """

    name = "index_anchor_scan"
    split_name = "index_anchor_split"

    def __init__(self, logical, child: PhysicalOp, pattern, anchors, function) -> None:
        super().__init__(logical, child, pattern, function)
        self.anchors = tuple(anchors)

    def _matches(self, tree, tp) -> Iterator[Any]:
        db = self.ctx.db
        roots = probe_anchor_roots(db, tree, self.anchors, db.stats)
        return iter_tree_matches(tp, tree, roots=roots, flush_per_candidate=True)

    def access_path(self) -> str:
        probes = ", ".join(anchor.describe() for anchor in self.anchors)
        return f"node-index probe on {probes}"


# -- list operators ------------------------------------------------------------


class ListSelectPipe(PhysicalOp):
    """Order-preserving list select: streams the surviving cells."""

    name = "list_select_pipe"
    shape = "list"

    def rows(self) -> Iterator[Any]:
        aqua_list = self.input_list()
        counted = self.ctx.stats.counting(self.logical.predicate)
        for cell in aqua_list.cells():
            if counted(cell.contents):
                yield cell


class ListApplyPipe(PhysicalOp):
    """``apply(f)(L)``: streams fresh cells holding the images."""

    name = "list_apply_pipe"
    shape = "list"

    def rows(self) -> Iterator[Any]:
        aqua_list = self.input_list()
        function = self.logical.function
        for cell in aqua_list.cells():
            yield as_cell(function(cell.contents))


def _match_rows(aqua_list: AquaList, matches, function) -> Iterator[Any]:
    """Each list match as its operator's row, deduplicated.

    ``sub_select`` (no ``function``) emits the ``AquaList`` of the kept
    cells; ``split`` emits ``function(x, y, z)`` over the match's pieces.
    """
    if function is None:
        cells = aqua_list.cell_array
        rows = (AquaList([cells[i] for i in match.kept]) for match in matches)
    else:
        pieces = (build_pieces(aqua_list, match) for match in matches)
        rows = (function(p.context, p.match, p.descendants) for p in pieces)
    return dedup(rows, DEFAULT)


class ListSubSelectPipe(PhysicalOp):
    """List ``sub_select`` streamed match by match (all start positions).

    Given a split ``function`` the same scan serves list ``split``: only
    what is emitted per match changes (see :func:`_match_rows`), so the
    two operators share their start sources, charges and counters.
    Charges one position per candidate start and tops up to ``len + 1``
    at exhaustion, so a completed scan costs every start position.
    """

    name = "list_sub_select_pipe"
    split_name = "list_split_pipe"
    shape = "set"

    def __init__(self, logical, child: PhysicalOp, pattern, function=None) -> None:
        super().__init__(logical, (child,))
        self.pattern = pattern
        self.function = function
        if function is not None:
            self.name = self.split_name

    def rows(self) -> Iterator[Any]:
        yield from self._scan_rows(self.input_list())

    def _scan_rows(self, aqua_list: AquaList) -> Iterator[Any]:
        ctx = self.ctx
        lp = list_pattern(self.pattern)
        self.result_equality = DEFAULT
        values = aqua_list.value_array
        total = len(values) + 1
        stats = ctx.stats
        guard = ctx.guard
        charged = 0

        def on_start(start: int) -> None:
            nonlocal charged
            del start
            charged += 1
            stats.bump("positions_scanned", 1)
            if guard is not None:
                guard.charge_nodes(1, "list scan")

        yield from _match_rows(
            aqua_list,
            iter_list_matches(lp, values, on_start=on_start, flush_per_start=True),
            self.function,
        )
        remainder = total - charged
        if remainder > 0:
            stats.bump("positions_scanned", remainder)
            if guard is not None:
                guard.charge_nodes(remainder, "list scan")

    def access_path(self) -> str:
        return "scan of all start positions"


class ColumnarListScan(ListSubSelectPipe):
    """List ``sub_select`` / ``split`` whose start positions come from a
    shift-AND pass over the list's predicate columns.

    The batch-mode list operator the ROADMAP asks for: instead of
    running the pattern automaton from every start (or probing one
    equality anchor), every column-servable required atom is evaluated
    once over the whole label array, each column is shifted by the
    atom's feasible offsets and the results are AND-ed — one bitwise
    pass yielding exactly the starts any match could begin at.  Charging
    mirrors :class:`ListAnchorScan` (one position per surviving start);
    falls back to the inherited full scan when the kernel is gated off.
    """

    name = "columnar_list_scan"
    split_name = "columnar_list_split"

    def __init__(self, logical, child: PhysicalOp, pattern, choices, function=None) -> None:
        super().__init__(logical, child, pattern, function)
        self.choices = tuple(choices)

    def rows(self) -> Iterator[Any]:
        ctx = self.ctx
        aqua_list = self.input_list()
        columns = columnar_list_for(ctx.db, aqua_list)
        if columns is None:
            # Kernel gated off (knob, threshold): behave exactly like
            # the plain pipe, charges included.
            yield from self._scan_rows(aqua_list)
            return
        lp = list_pattern(self.pattern)
        self.result_equality = DEFAULT
        starts = columns.candidate_starts(self.choices)
        ctx.stats.bump("positions_scanned", len(starts))
        if ctx.guard is not None:
            ctx.guard.charge_nodes(len(starts), "columnar candidates")
        yield from _match_rows(
            aqua_list,
            iter_list_matches(
                lp, aqua_list.value_array, starts=starts, flush_per_start=True
            ),
            self.function,
        )

    def access_path(self) -> str:
        passes = ", ".join(
            f"{predicate.describe()} @ -{{{','.join(str(o) for o in offsets)}}}"
            for predicate, offsets in self.choices
        )
        return f"columnar shift-AND over {passes}"


class ListAnchorScan(ListSubSelectPipe):
    """List ``sub_select`` / ``split`` served by a position-index probe.

    Probes the list's position index for a required atom and tries only
    ``position - offset`` candidate starts.  Falls back to the full
    position scan when the probe cannot be served (no extra charges).
    """

    name = "list_anchor_scan"
    split_name = "list_anchor_split"

    def __init__(
        self, logical, child: PhysicalOp, pattern, anchor, offsets, function=None
    ) -> None:
        super().__init__(logical, child, pattern, function)
        self.anchor = anchor
        self.offsets = tuple(offsets)

    def rows(self) -> Iterator[Any]:
        ctx = self.ctx
        aqua_list = self.input_list()
        lp = list_pattern(self.pattern)
        self.result_equality = DEFAULT
        db = ctx.db
        index = db.list_index(aqua_list, self.anchor.attributes())
        positions, used = index.positions_for(self.anchor, db.stats)
        starts = None
        if used:
            # Unordered: the matcher sorts its candidate starts itself.
            starts = {
                position - offset
                for position in positions
                for offset in self.offsets
                if position - offset >= 0
            }
            ctx.stats.bump("positions_scanned", len(starts))
        yield from _match_rows(
            aqua_list,
            iter_list_matches(
                lp, aqua_list.value_array, starts=starts, flush_per_start=True
            ),
            self.function,
        )

    def access_path(self) -> str:
        offsets = ",".join(str(offset) for offset in self.offsets)
        return f"position-index probe on {self.anchor.describe()} @ -{{{offsets}}}"


# -- set operators -------------------------------------------------------------


class SelectFilter(PhysicalOp):
    """``select(p)(S)``: stream the members that satisfy ``p``."""

    name = "select_filter"
    shape = "set"

    def rows(self) -> Iterator[Any]:
        rows, equality = self.set_source(self.children[0])
        self.result_equality = equality
        yield from self._member_rows(rows, equality)

    def _member_rows(self, rows: Iterator[Any], equality) -> Iterator[Any]:
        """The per-member loop, split out so the parallel subclass can
        run it over an already-started stream (undersized fallback)."""
        del equality
        counted = self.ctx.stats.counting(self.logical.predicate)
        for row in rows:
            if counted(row):
                yield row


class IndexedSelectFilter(PhysicalOp):
    """Extent select decomposed into an index probe plus residual check.

    When the logical input is the extent itself, the extent is never
    scanned as a child operator — the candidates come straight from the
    attribute index (or one full scan when no index serves), and both
    conjuncts re-check each candidate.
    """

    name = "indexed_select_filter"
    shape = "set"

    def __init__(
        self, logical, child: PhysicalOp | None, extent: str | None, indexed, residual
    ) -> None:
        super().__init__(logical, () if child is None else (child,))
        self.extent = extent
        self.indexed = indexed
        self.residual = residual

    def rows(self) -> Iterator[Any]:
        ctx = self.ctx
        if not self.children:
            candidates, _ = ctx.db.candidates(self.extent, self.indexed)
            self.note_buffered(len(candidates))
            equality = DEFAULT
            rows: Iterator[Any] = dedup(iter(candidates), DEFAULT)
        else:
            rows, equality = self.set_source(self.children[0])
        self.result_equality = equality
        stats = ctx.stats
        counted_indexed = stats.counting(self.indexed)
        counted_residual = (
            stats.counting(self.residual) if self.residual is not None else None
        )
        for row in rows:
            if not counted_indexed(row):
                continue
            if counted_residual is not None and not counted_residual(row):
                continue
            yield row

    def access_path(self) -> str:
        described = f"extent index on {self.indexed.describe()}"
        if self.residual is not None:
            described += f", residual {self.residual.describe()}"
        return described


class ApplyMap(PhysicalOp):
    """``apply(f)(S)``: stream the images, deduplicated like the set."""

    name = "apply_map"
    shape = "set"

    def rows(self) -> Iterator[Any]:
        rows, equality = self.set_source(self.children[0])
        self.result_equality = equality
        yield from self._member_rows(rows, equality)

    def _member_rows(self, rows: Iterator[Any], equality) -> Iterator[Any]:
        """The per-member loop, split out so the parallel subclass can
        run it over an already-started stream (undersized fallback)."""
        return dedup(map(self.logical.function, rows), equality)


class FlattenPipe(PhysicalOp):
    """``flatten(S)``: stream the members of the member sets."""

    name = "flatten_pipe"
    shape = "set"

    def rows(self) -> Iterator[Any]:
        rows, _equality = self.set_source(self.children[0])
        self.result_equality = DEFAULT
        yield from dedup(self._items(rows), DEFAULT)

    def _items(self, rows: Iterator[Any]) -> Iterator[Any]:
        for member in rows:
            if not isinstance(member, AquaSet):
                raise QueryError(
                    "flatten expects a set of sets"
                    f" (plan path: {self._trail_text()})"
                )
            yield from member


class UnionPipe(PhysicalOp):
    """Set union: left stream first, then the unseen right members.

    Dedup keys use the left side's equality — the rule ``AquaSet.union``
    applies — so no buffering is needed beyond the key set.
    """

    name = "union_pipe"
    shape = "set"

    def rows(self) -> Iterator[Any]:
        left_rows, left_equality = self.set_source(self.children[0])
        self.result_equality = left_equality

        def right_rows() -> Iterator[Any]:
            # Opened only once the left stream is exhausted.
            yield from self.set_source(self.children[1])[0]

        yield from dedup(itertools.chain(left_rows, right_rows()), left_equality)


class IntersectPipe(PhysicalOp):
    """Set intersection, preserving the left side's member order.

    Order preservation forces real buffers (the left members and the
    right key set); both are reported honestly via ``note_buffered``.
    """

    name = "intersect_pipe"
    shape = "set"
    _keep_matches = True

    def rows(self) -> Iterator[Any]:
        left_rows, left_equality = self.set_source(self.children[0])
        buffered: list[Any] = []
        for row in left_rows:
            buffered.append(row)
            self.note_buffered(len(buffered))
        self.result_equality = left_equality
        right_rows, _ = self.set_source(self.children[1])
        right_keys: set[Any] = set()
        for row in right_rows:
            right_keys.add(left_equality.key(row))
            self.note_buffered(len(buffered) + len(right_keys))
        for row in buffered:
            if (left_equality.key(row) in right_keys) == self._keep_matches:
                yield row

    def access_path(self) -> str:
        return "buffers left members + right keys"


class DiffPipe(IntersectPipe):
    """Set difference: the left members whose key the right side lacks."""

    name = "diff_pipe"
    _keep_matches = False
