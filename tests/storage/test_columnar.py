"""Unit tests for the columnar list start source and the tree structures
that need no columns.

Covers predicate-column semantics of :class:`ColumnarList` against the
element-at-a-time oracle under both backends (missing attributes,
negation, mixed payloads, ordering comparisons, Params), the shift-AND
start set, the length gate and the per-list cache, backend resolution
(numpy when it imports, with no knob), and — for trees — the
:class:`~repro.core.aqua_tree.TreeLayout` arrays that hold the
structure vectors, the node index's scan fallback and the matcher's
outcome bitmap, none of which builds a column.
"""

import pytest

from repro.core import AquaList, AquaTree
from repro.core.aqua_tree import TreeNode
from repro.core.concat import ConcatPoint
from repro.core.identity import Record
from repro.errors import QueryError
from repro.params import Param
from repro.predicates import attr, sym
from repro.predicates.alphabet import TruePredicate
from repro.query import Q, evaluate
from repro.storage import Database
from repro.storage import columnar as C
from repro.storage.columnar import (
    COLUMNAR_MIN_LENGTH,
    ColumnarList,
    column_servable,
    columnar_list_for,
    numpy_available,
    resolve_backend,
)
from repro.storage.stats import Instrumentation

from ..reference import list_columns

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

backend_param = pytest.mark.parametrize("backend", BACKENDS)

RETIRED_KNOBS = ("AQUA_COLUMNAR", "AQUA_COLUMNAR_BACKEND", "AQUA_COLUMNAR_THRESHOLD")


def labeled_tree() -> AquaTree:
    #       a
    #      / \
    #     b   c
    #    / \   \
    #   d   b   d
    return AquaTree.build(
        "a",
        [
            AquaTree.build("b", [AquaTree.leaf("d"), AquaTree.leaf("b")]),
            AquaTree.build("c", [AquaTree.leaf("d")]),
        ],
    )


def people() -> AquaList:
    return AquaList.of(
        Record(name="Ana", citizen="Brazil"),
        Record(name="Bo", citizen="USA"),
        Record(name="Cleo"),  # no citizen attribute
    )


def matching(columns: ColumnarList, predicate) -> list:
    """The values whose bit ``predicate``'s column sets, in order."""
    values = columns.values
    return [values[p] for p in columns.positions(columns.predicate_column(predicate))]


def long_list(length: int = COLUMNAR_MIN_LENGTH) -> AquaList:
    return AquaList.of(*("abc" * length)[:length])


# -- tree structure: the layout's arrays ---------------------------------------


@backend_param
def test_structure_vectors(backend):
    """Parent / depth / subtree-end are the layout's arrays; first child
    and next sibling follow from them.  No column backend is read."""
    with list_columns(backend):
        layout = labeled_tree().layout()
    # Preorder: a b d b c d
    assert [n.value for n in layout.nodes] == list("abdbcd")
    assert layout.parent == [-1, 0, 1, 1, 0, 4]
    assert layout.depth == [0, 1, 2, 2, 1, 2]
    assert [end - p for p, end in enumerate(layout.end)] == [6, 3, 1, 1, 2, 1]
    first_child = [p + 1 if end > p + 1 else -1 for p, end in enumerate(layout.end)]
    assert first_child == [1, 2, -1, -1, 5, -1]
    count = len(layout.nodes)
    next_sibling = [
        end if end < count and layout.parent[end] == layout.parent[p] else -1
        for p, end in enumerate(layout.end)
    ]
    assert next_sibling == [-1, 4, 3, -1, -1, -1]


@backend_param
def test_structure_counts_concat_points(backend):
    tree = AquaTree.build("a", ["b"])
    tree.root.children.append(TreeNode(ConcatPoint("1")))
    with list_columns(backend):
        layout = tree.layout()
    assert layout.element_count == 2  # elements only
    assert len(layout.nodes) == 3  # positions include the labeled NULL
    assert layout.end[0] == 3


# -- predicate columns over a list ---------------------------------------------


@backend_param
def test_symbol_column_matches_oracle(backend):
    columns = ColumnarList(AquaList.of(*"abdbcd"), backend=backend)
    assert columns.backend == backend
    assert columns.positions(columns.predicate_column(sym("b"))) == [1, 3]


@backend_param
def test_missing_attribute_is_false_and_not_respects_presence(backend):
    columns = ColumnarList(people(), backend=backend)
    brazilian = attr("citizen") == "Brazil"
    assert [r.name for r in matching(columns, brazilian)] == ["Ana"]
    # NOT(citizen = Brazil) holds for everyone else — including Cleo,
    # whose missing attribute made the comparison itself False.
    assert [r.name for r in matching(columns, ~brazilian)] == ["Bo", "Cleo"]


@backend_param
def test_or_and_true_predicate_columns(backend):
    columns = ColumnarList(AquaList.of(*"abdbcd"), backend=backend)
    assert matching(columns, sym("b") | sym("c")) == ["b", "b", "c"]
    assert matching(columns, sym("b") & ~sym("b")) == []
    assert len(matching(columns, TruePredicate())) == columns.size == 6


@backend_param
def test_concat_points_never_match(backend):
    """Labeled NULLs are not elements: no column has a position for
    them, so no start the shift-AND yields can point at one."""
    aqua_list = AquaList.of("a", ConcatPoint("1"), "b")
    columns = ColumnarList(aqua_list, backend=backend)
    assert columns.size == 2
    assert matching(columns, TruePredicate()) == ["a", "b"]
    assert columns.candidate_starts(((sym("b"), (0,)),)) == [1]


def test_param_predicates_are_not_servable():
    assert not column_servable(attr("citizen") == Param("who"))
    assert not column_servable(sym(Param("label")))
    assert column_servable(sym("b") | (attr("age") > 3))


@backend_param
def test_ordering_comparison_column(backend):
    ages = AquaList.of(Record(age=50), Record(age=10), Record(age=30))
    columns = ColumnarList(ages, backend=backend)
    assert [r.age for r in matching(columns, attr("age") > 20)] == [50, 30]


@backend_param
def test_mixed_payload_types_match_oracle(backend):
    # Strings mixed with records: the vectorized leaf path must bail to
    # the per-element oracle without changing outcomes.
    aged = Record(age=7)
    columns = ColumnarList(AquaList.of("a", aged, "b", 3), backend=backend)
    assert matching(columns, attr("age") == 7) == [aged]
    assert matching(columns, sym("b")) == ["b"]


# -- building and caching --------------------------------------------------------


@backend_param
def test_outcome_for_never_builds(backend):
    """A column is built once per predicate, and the shift-AND builds
    only the columns its atoms name."""
    columns = ColumnarList(AquaList.of(*"abcabca"), backend=backend)
    assert columns.column_builds == 0
    columns.candidate_starts(((sym("a"), (0,)),))
    assert columns.column_builds == 1
    columns.candidate_starts(((sym("a"), (0,)), (sym("c"), (2,))))
    assert columns.column_builds == 2  # ``a`` served, ``c`` built
    assert columns.column_rows == 2 * columns.size


@backend_param
def test_candidate_roots_cached_by_anchor_set(backend):
    columns = ColumnarList(AquaList.of(*"abcabca"), backend=backend)
    first = columns.predicate_column(sym("b"))
    # Cached by predicate equality, not object identity.
    assert columns.predicate_column(sym("b")) is first


# -- backend resolution: numpy when it imports, no knob ---------------------------


def test_resolve_backend_auto(monkeypatch):
    expected = "numpy" if numpy_available() else "python"
    assert resolve_backend() == expected
    # The retired backend variable is read by nobody.
    monkeypatch.setenv("AQUA_COLUMNAR_BACKEND", "python")
    assert resolve_backend() == expected
    monkeypatch.setattr(C, "numpy_available", lambda: False)
    assert resolve_backend() == "python"
    assert ColumnarList(AquaList.of("a")).backend == "python"


def test_pinned_numpy_without_numpy_is_an_error(monkeypatch):
    monkeypatch.setattr(C, "_import_numpy", lambda: None)
    with pytest.raises(QueryError):
        ColumnarList(AquaList.of("a"), backend="numpy")
    with pytest.raises(QueryError):
        ColumnarList(AquaList.of("a"), backend="rust")
    assert resolve_backend() == "python"


def test_knob_validation(monkeypatch):
    """The three retired variables are knobs no more: any value, however
    malformed, is ignored and every query answers as without it."""
    db = Database()
    db.bind_root("T", labeled_tree())
    db.bind_root("L", long_list())
    queries = [
        Q.root("T").sub_select("b(?*)").build(),
        Q.root("L").lsub_select("[a?c]").build(),
    ]
    expected = [evaluate(query, db) for query in queries]
    for knob in RETIRED_KNOBS:
        monkeypatch.setenv(knob, "sometimes")
    assert [evaluate(query, db) for query in queries] == expected


def test_column_provider_reresolves_knobs(monkeypatch):
    """The gate is the module constant: a short list gets no columns and
    a long one the same cached columns, whatever the environment says."""
    short, long = long_list(COLUMNAR_MIN_LENGTH - 1), long_list()
    first = columnar_list_for(long)
    monkeypatch.setenv("AQUA_COLUMNAR_THRESHOLD", "0")
    monkeypatch.setenv("AQUA_COLUMNAR", "off")
    assert columnar_list_for(short) is None
    assert columnar_list_for(long) is first


def test_threshold_gates_extent(monkeypatch):
    assert COLUMNAR_MIN_LENGTH == 512
    assert columnar_list_for(long_list(511)) is None
    assert isinstance(columnar_list_for(long_list(512)), ColumnarList)
    monkeypatch.setattr(C, "COLUMNAR_MIN_LENGTH", 0)
    assert columnar_list_for(AquaList.of("a")) is not None


# -- database / snapshot plumbing --------------------------------------------


def test_rebind_invalidates_extent():
    """Columns are cached on the list: a rebound root is a new list with
    its own columns, and the old list's columns stay its own."""
    db = Database()
    old = long_list()
    db.bind_root("L", old)
    query = Q.root("L").lsub_select("[a?c]").build()
    assert len(evaluate(query, db)) == 1
    first = columnar_list_for(old)
    assert first is not None and first.column_builds == 2
    replacement = AquaList.of(*("zzz" * COLUMNAR_MIN_LENGTH))
    db.rebind_root("L", replacement)
    assert len(evaluate(query, db)) == 0
    assert columnar_list_for(replacement) is not first
    assert columnar_list_for(old) is first


def test_snapshot_serves_consistent_cut():
    db = Database()
    old = long_list()
    db.bind_root("L", old)
    snapshot = db.snapshot()
    db.rebind_root("L", AquaList.of(*("zzz" * COLUMNAR_MIN_LENGTH)))
    pinned = snapshot.root("L")
    assert pinned is old
    query = Q.root("L").lsub_select("[a?c]").build()
    assert len(evaluate(query, snapshot)) == 1
    assert len(evaluate(query, db)) == 0
    assert columnar_list_for(pinned).positions(
        columnar_list_for(pinned).predicate_column(sym("a"))
    )[:2] == [0, 3]


# -- the shift-AND start set ----------------------------------------------------


@backend_param
def test_list_candidate_starts(backend):
    values = list("abcabca")
    columns = ColumnarList(AquaList.of(*values), backend=backend)
    # 'a' at offset 0 and 'c' at offset 2 — the shape of "[a?c]".
    choices = ((sym("a"), (0,)), (sym("c"), (2,)))
    starts = columns.candidate_starts(choices)
    brute = [
        i
        for i in range(len(values))
        if values[i] == "a" and i + 2 < len(values) and values[i + 2] == "c"
    ]
    assert starts == brute == [0, 3]


# -- trees build no columns -----------------------------------------------------


def test_candidate_nodes_falls_back_to_columns():
    """With no servable equality term the node index hands back every
    element node and says so — one full scan, no column."""
    db = Database()
    tree = labeled_tree()
    db.bind_root("T", tree)
    stats = Instrumentation()
    nodes, definitive = db.tree_index(tree).candidate_nodes(~sym("a"), stats)
    assert not definitive
    assert stats["full_scans"] == 1
    assert stats["nodes_scanned"] == 6
    assert [n.value for n in nodes] == list("abdbcd")


def test_bitmap_serves_column_outcomes_as_hits():
    """Under a closure the matcher answers each predicate at most once
    per node from its outcome bitmap: repeats are hits, and no column
    is ever built for a tree."""
    db = Database()
    db.bind_root("T", labeled_tree())
    # A closure pattern: the matcher consults the outcome bitmap (a
    # closure-free one calls declarative predicates directly).
    query = Q.root("T").sub_select("[[b(d @)]]+@ .@ b").build()
    with db.stats.scope():
        result = evaluate(query, db)
        assert db.stats["bitmap_hits"] > 0
        assert db.stats["bitmap_fills"] > 0
        assert db.stats["column_builds"] == 0
    assert len(result) == 1


def test_columnar_counters_reach_stats():
    db = Database()
    aqua_list = long_list()
    db.bind_root("L", aqua_list)
    query = Q.root("L").lsub_select("[a?c]").build()
    values = aqua_list.value_array
    starts = [i for i in range(len(values) - 2) if values[i] == "a" and values[i + 2] == "c"]
    with db.stats.scope():
        evaluate(query, db)
        assert db.stats["column_builds"] == 2
        assert db.stats["column_rows"] == 2 * COLUMNAR_MIN_LENGTH
        # Only the surviving starts are charged as the scan's positions.
        assert db.stats["positions_scanned"] == len(starts) == 170


def test_escape_hatch_disables_the_kernel(monkeypatch):
    """There is no escape hatch any more: with the retired switch set to
    ``off`` a long list still takes the shift-AND start source, with the
    same answer the plain scan gives."""
    monkeypatch.setenv("AQUA_COLUMNAR", "off")
    db = Database()
    db.bind_root("L", long_list())
    query = Q.root("L").lsub_select("[a?c]").build()
    with db.stats.scope():
        result = evaluate(query, db)
        assert db.stats["column_builds"] == 2
    with list_columns("python", min_length=COLUMNAR_MIN_LENGTH + 1):
        db.bind_root("L2", long_list())
        plain = evaluate(Q.root("L2").lsub_select("[a?c]").build(), db)
    assert result == plain
    assert len(result) == 1
