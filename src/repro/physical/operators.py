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
* counters are flushed at hand-over: the matchers emit theirs as they
  hand a match (a list start's batch) to the operator, a full scan
  bumps ``nodes_scanned`` / ``positions_scanned`` at the same points
  (:func:`_charged_scan`), and the select filters count their
  ``predicate_evals`` in a local int flushed as each row is handed over
  (:func:`_counted_filter`) — all the work between two hand-overs runs
  inside one ``next()``, so it is credited to this operator at pull
  time — while the guard is still charged per candidate, so
  ``max_nodes_scanned`` trips at the same node;
* predicates are tested through their compiled closures
  (:meth:`~repro.predicates.alphabet.AlphabetPredicate.compile`, made
  once per execution), falling back to the predicate itself when it
  does not compile;
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
from ..optimizer.anchors import probe_anchor_roots
from ..patterns.list_match import iter_list_matches
from ..patterns.list_parser import list_pattern
from ..patterns.tree_match import describe_filters, iter_tree_matches
from ..patterns.tree_parser import tree_pattern
from ..predicates.alphabet import Comparison, SymbolEquals
from ..storage.columnar import columnar_list_for
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


def _charged_scan(ctx, counter: str, seam: str, total: int, scan) -> Iterator[Any]:
    """``scan(charge)`` — a matcher stream over a full scan — charged.

    ``charge(count)`` is the matcher's candidate hook: it charges the
    guard at once, so a ``max_nodes_scanned`` budget trips mid-scan, and
    ``counter`` in bulk as each match is handed over and when the stream
    ends.  Exhaustion tops up to ``total``: a completed scan costs every
    node (start position) whether or not a filter skipped some.
    """
    counters, guard = ctx.counters, ctx.guard
    charged = bumped = 0

    def charge(count: int) -> None:
        nonlocal charged
        charged += count
        if guard is not None:
            guard.charge_nodes(count, seam)

    try:
        for match in scan(charge):
            if charged > bumped:
                counters.bump(counter, charged - bumped)
                bumped = charged
            yield match
        if total > charged:
            charge(total - charged)
    finally:
        if charged > bumped:
            counters.bump(counter, charged - bumped)


def _counted_filter(counters, rows, tests, charged: int = 0) -> Iterator[Any]:
    """The rows passing every test in ``tests`` (in order, stopping at
    the first that fails), ``predicate_evals`` counted in a local int.

    Each test made counts one evaluation, and every row is charged
    ``charged`` more (an exact index probe's answered conjunct).  The
    count is flushed as a row is handed over and when the stream ends,
    so the pulling operator is credited exactly as if each test had been
    counted on its own.
    """
    evals = 0
    try:
        for row in rows:
            evals += charged
            for test in tests:
                evals += 1
                if not test(row):
                    break
            else:
                counters.bump("predicate_evals", evals)
                evals = 0
                yield row
    finally:
        if evals:
            counters.bump("predicate_evals", evals)


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
        predicate = self.logical.predicate
        test = predicate.compile() or predicate
        evals = 0

        def counted(value: Any) -> bool:
            nonlocal evals
            evals += 1
            return test(value)

        try:
            result = select(counted, tree)
        finally:
            if evals:
                self.ctx.counters.bump("predicate_evals", evals)
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
        """Every match of ``tp`` in ``tree``, by a charged full scan
        (:func:`_charged_scan` over ``tree.size()`` nodes)."""
        return _charged_scan(
            self.ctx,
            "nodes_scanned",
            "tree scan",
            tree.size(),
            lambda charge: iter_tree_matches(tp, tree, on_candidate=charge),
        )

    def rows(self) -> Iterator[Any]:
        tree = self.input_tree()
        tp = tree_pattern(self.pattern)
        self.result_equality = DEFAULT
        emit = split_emitter(self.function, tree)
        yield from dedup(map(emit, self._matches(tree, tp)), DEFAULT)

    def access_path(self) -> str:
        # The matcher narrows its candidates itself (``_candidate_roots``
        # and the child signature); EXPLAIN names the tests it makes.
        return "full tree scan" + describe_filters(tree_pattern(self.pattern))


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
        ctx = self.ctx
        roots = probe_anchor_roots(ctx.db, tree, self.anchors, ctx.counters)
        return iter_tree_matches(tp, tree, roots=roots, preordered=True)

    def access_path(self) -> str:
        probes = ", ".join(anchor.describe() for anchor in self.anchors)
        filters = describe_filters(tree_pattern(self.pattern), probed=True)
        return f"node-index probe on {probes}{filters}"


# -- list operators ------------------------------------------------------------


class ListSelectPipe(PhysicalOp):
    """Order-preserving list select: streams the surviving cells."""

    name = "list_select_pipe"
    shape = "list"

    def rows(self) -> Iterator[Any]:
        aqua_list = self.input_list()
        predicate = self.logical.predicate
        test = predicate.compile() or predicate
        tests = (lambda cell: test(cell.contents),)
        yield from _counted_filter(self.ctx.counters, aqua_list.cells(), tests)


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
        lp = list_pattern(self.pattern)
        self.result_equality = DEFAULT
        values = aqua_list.value_array
        matches = _charged_scan(
            self.ctx,
            "positions_scanned",
            "list scan",
            len(values) + 1,
            lambda charge: iter_list_matches(
                lp, values, on_start=lambda start: charge(1)
            ),
        )
        return _match_rows(aqua_list, matches, self.function)

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
    a list under ``COLUMNAR_MIN_LENGTH`` takes the inherited full scan.
    """

    name = "columnar_list_scan"
    split_name = "columnar_list_split"

    def __init__(self, logical, child: PhysicalOp, pattern, choices, function=None) -> None:
        super().__init__(logical, child, pattern, function)
        self.choices = tuple(choices)

    def rows(self) -> Iterator[Any]:
        ctx = self.ctx
        aqua_list = self.input_list()
        columns = columnar_list_for(aqua_list)
        if columns is None:
            # A short list: behave exactly like the plain pipe, charges
            # included.
            yield from self._scan_rows(aqua_list)
            return
        lp = list_pattern(self.pattern)
        self.result_equality = DEFAULT
        starts = columns.candidate_starts(self.choices)
        ctx.counters.bump("positions_scanned", len(starts))
        if ctx.guard is not None:
            ctx.guard.charge_nodes(len(starts), "columnar candidates")
        yield from _match_rows(
            aqua_list,
            iter_list_matches(lp, aqua_list.value_array, starts=starts),
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
        positions, used = index.positions_for(self.anchor, ctx.counters)
        starts = None
        if used:
            # Unordered: the matcher sorts its candidate starts itself.
            starts = {
                position - offset
                for position in positions
                for offset in self.offsets
                if position - offset >= 0
            }
            ctx.counters.bump("positions_scanned", len(starts))
        yield from _match_rows(
            aqua_list,
            iter_list_matches(lp, aqua_list.value_array, starts=starts),
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
        predicate = self.logical.predicate
        test = predicate.compile() or predicate
        yield from _counted_filter(self.ctx.counters, rows, (test,))


class IndexedSelectFilter(PhysicalOp):
    """Extent select decomposed into an index probe plus residual check.

    When the logical input is the extent itself, the extent is never
    scanned as a child operator — the candidates come straight from the
    attribute index (or one full scan when no index serves).  An exact
    probe — a hash or ordered index answering the indexed comparison
    itself — answers its conjunct (§4's decomposition), so only the
    residual tests each candidate; the answered conjunct is still charged
    one ``predicate_evals`` per candidate, so the counts read as if it had
    been tested.  After a full-scan fallback, or over a child stream,
    both conjuncts test each row.

    Candidates stay deduplicated: an object inserted into the extent
    twice is posted twice, so an index bucket is not a set.
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
        answered = False
        if not self.children:
            candidates, used = ctx.db.candidates(self.extent, self.indexed, ctx.counters)
            self.note_buffered(len(candidates))
            equality = DEFAULT
            rows: Iterator[Any] = dedup(iter(candidates), DEFAULT)
            answered = used and isinstance(self.indexed, (Comparison, SymbolEquals))
        else:
            rows, equality = self.set_source(self.children[0])
        self.result_equality = equality
        conjuncts = () if answered else (self.indexed,)
        if self.residual is not None:
            conjuncts += (self.residual,)
        tests = tuple(conjunct.compile() or conjunct for conjunct in conjuncts)
        yield from _counted_filter(ctx.counters, rows, tests, charged=int(answered))

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
        yield from dedup(map(self.logical.function, rows), equality)


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
