"""Unit tests for the columnar tree kernel (PR 8).

Covers the structure-of-arrays encoding (parent / first-child /
next-sibling / depth / subtree-size vectors), predicate-column
semantics against the node-at-a-time oracle (missing attributes,
negation over the present mask, Params), backend resolution and the
``AQUA_COLUMNAR*`` knobs, the never-build contract of the bitmap
``source`` hook, and the :class:`TreeIndex` fallback that serves
candidates from shared predicate columns.
"""

import pytest

from repro import config
from repro.core import AquaList, AquaTree
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
    ColumnarExtent,
    ColumnarList,
    column_servable,
    columnar_source_for,
    numpy_available,
    resolve_backend,
)

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

backend_param = pytest.mark.parametrize("backend", BACKENDS)


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


def person_tree() -> AquaTree:
    return AquaTree.build(
        Record(name="Ana", citizen="Brazil"),
        [
            AquaTree.leaf(Record(name="Bo", citizen="USA")),
            AquaTree.leaf(Record(name="Cleo")),  # no citizen attribute
        ],
    )


# -- structure vectors --------------------------------------------------------


@backend_param
def test_structure_vectors(backend):
    extent = ColumnarExtent(labeled_tree(), backend=backend)
    structure = extent.structure()
    # Preorder: a b d b c d
    assert list(structure["parent"]) == [-1, 0, 1, 1, 0, 4]
    assert list(structure["depth"]) == [0, 1, 2, 2, 1, 2]
    assert list(structure["first_child"]) == [1, 2, -1, -1, 5, -1]
    assert list(structure["next_sibling"]) == [-1, 4, 3, -1, -1, -1]
    assert list(structure["subtree_size"]) == [6, 3, 1, 1, 2, 1]


@backend_param
def test_structure_counts_concat_points(backend):
    from repro.core.aqua_tree import TreeNode

    tree = AquaTree.build("a", ["b"])
    tree.root.children.append(TreeNode(ConcatPoint("1")))
    extent = ColumnarExtent(tree, backend=backend)
    assert extent.size == 2  # elements only
    assert extent.position_count == 3  # positions include the labeled NULL
    assert list(extent.structure()["subtree_size"]) == [3, 1, 1]


# -- predicate columns --------------------------------------------------------


@backend_param
def test_symbol_column_matches_oracle(backend):
    extent = ColumnarExtent(labeled_tree(), backend=backend)
    matches = extent.matching_nodes(sym("b"))
    assert [n.value for n in matches] == ["b", "b"]
    # Preorder order of the returned candidates.
    assert [extent.position_of(n) for n in matches] == [1, 3]


@backend_param
def test_missing_attribute_is_false_and_not_respects_presence(backend):
    extent = ColumnarExtent(person_tree(), backend=backend)
    brazilian = attr("citizen") == "Brazil"
    assert [n.value.name for n in extent.matching_nodes(brazilian)] == ["Ana"]
    # NOT(citizen = Brazil) holds for everyone else *present* — including
    # Cleo, whose missing attribute made the comparison itself False.
    names = [n.value.name for n in extent.matching_nodes(~brazilian)]
    assert names == ["Bo", "Cleo"]


@backend_param
def test_or_and_true_predicate_columns(backend):
    extent = ColumnarExtent(labeled_tree(), backend=backend)
    either = sym("b") | sym("c")
    assert [n.value for n in extent.matching_nodes(either)] == ["b", "b", "c"]
    everything = extent.matching_nodes(TruePredicate())
    assert len(everything) == extent.size


@backend_param
def test_concat_points_never_match(backend):
    tree = AquaTree.build("a", ["b"])
    from repro.core.aqua_tree import TreeNode

    tree.root.children.append(TreeNode(ConcatPoint("1")))
    extent = ColumnarExtent(tree, backend=backend)
    assert len(extent.matching_nodes(TruePredicate())) == 2


def test_param_predicates_are_not_servable():
    assert not column_servable(attr("citizen") == Param("who"))
    assert not column_servable(sym(Param("label")))
    assert column_servable(sym("b") | (attr("age") > 3))


@backend_param
def test_ordering_comparison_column(backend):
    tree = AquaTree.build(
        Record(age=50),
        [AquaTree.leaf(Record(age=10)), AquaTree.leaf(Record(age=30))],
    )
    extent = ColumnarExtent(tree, backend=backend)
    assert [n.value.age for n in extent.matching_nodes(attr("age") > 20)] == [50, 30]


@backend_param
def test_mixed_payload_types_match_oracle(backend):
    # Strings mixed with records: the vectorized leaf path must bail to
    # the per-element oracle without changing outcomes.
    aged = Record(age=7)
    tree = AquaTree.build(
        "a", [AquaTree.leaf(aged), AquaTree.leaf("b"), AquaTree.leaf(3)]
    )
    extent = ColumnarExtent(tree, backend=backend)
    assert [n.value for n in extent.matching_nodes(attr("age") == 7)] == [aged]
    assert [n.value for n in extent.matching_nodes(sym("b"))] == ["b"]


# -- never-build contract and caching ----------------------------------------


@backend_param
def test_outcome_for_never_builds(backend):
    extent = ColumnarExtent(labeled_tree(), backend=backend)
    node = next(iter(extent.nodes))
    assert extent.outcome_for(sym("a"), node) is None  # no column yet
    assert extent.column_builds == 0
    extent.predicate_column(sym("a"))
    assert extent.column_builds == 1
    assert extent.outcome_for(sym("a"), node) is True
    assert extent.column_builds == 1  # served, not rebuilt


@backend_param
def test_candidate_roots_cached_by_anchor_set(backend):
    extent = ColumnarExtent(labeled_tree(), backend=backend)
    first = extent.candidate_roots((sym("b"),))
    again = extent.candidate_roots((sym("b"),))
    assert first is again


# -- backend resolution and knobs --------------------------------------------


def test_resolve_backend_auto(monkeypatch):
    expected = "numpy" if numpy_available() else "python"
    assert resolve_backend("auto") == expected
    assert resolve_backend("python") == "python"
    # No argument: the environment's pin (CI's python leg), else auto.
    monkeypatch.setenv("AQUA_COLUMNAR_BACKEND", "python")
    assert resolve_backend() == "python"
    monkeypatch.delenv("AQUA_COLUMNAR_BACKEND")
    assert resolve_backend() == expected


def test_pinned_numpy_without_numpy_is_an_error(monkeypatch):
    monkeypatch.setattr(C, "_import_numpy", lambda: None)
    with pytest.raises(QueryError):
        resolve_backend("numpy")


def test_knob_validation():
    with pytest.raises(QueryError):
        config.validated_columnar("sometimes")
    with pytest.raises(QueryError):
        config.validated_columnar_backend("rust")
    with pytest.raises(QueryError):
        config.validated_columnar_threshold(-1)
    assert config.validated_columnar_threshold(0) == 0


def test_column_provider_reresolves_knobs():
    """A cached tree index re-reads the columnar knobs on every lookup:
    the same index serves ``~a`` from a column or by full scan as the
    switch and the threshold move around it."""
    db = Database()
    tree = labeled_tree()
    db.bind_root("T", tree)
    index = db.tree_index(tree)

    def served_from_a_column():
        return index.candidate_nodes(~sym("a"))[1]

    with config.columnar_threshold_scope(0):
        assert served_from_a_column()
        with config.columnar_scope("off"):
            assert not served_from_a_column()
        assert served_from_a_column()
    # Default threshold (512) exceeds this 6-node tree.
    assert not served_from_a_column()


def test_threshold_gates_extent(monkeypatch):
    db = Database()
    tree = labeled_tree()
    db.bind_root("T", tree)
    with config.columnar_threshold_scope(0):
        assert columnar_source_for(db, tree) is not None
    with config.columnar_threshold_scope(100):
        assert columnar_source_for(db, tree) is None


# -- database / snapshot plumbing --------------------------------------------


def test_rebind_invalidates_extent():
    db = Database()
    tree = labeled_tree()
    db.bind_root("T", tree)
    first = db.columnar_extent(tree)
    assert db.columnar_extent(tree) is first
    replacement = AquaTree.build("z", ["b"])
    db.rebind_root("T", replacement)
    assert db.columnar_extent(replacement) is not first
    assert [n.value for n in db.columnar_extent(replacement).nodes] == ["z", "b"]


def test_snapshot_serves_consistent_cut():
    db = Database()
    old = labeled_tree()
    db.bind_root("T", old)
    snapshot = db.snapshot()
    db.rebind_root("T", AquaTree.build("z", ["z"]))
    pinned = snapshot.root("T")
    assert pinned is old
    extent = snapshot.columnar_extent(pinned)
    assert [n.value for n in extent.matching_nodes(sym("b"))] == ["b", "b"]


# -- columnar lists -----------------------------------------------------------


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


# -- TreeIndex fallback via shared columns (satellite 2) ----------------------


def test_candidate_nodes_falls_back_to_columns():
    from repro.storage.stats import Instrumentation

    db = Database()
    tree = labeled_tree()
    db.bind_root("T", tree)
    stats = Instrumentation()
    with config.columnar_threshold_scope(0):
        index = db.tree_index(tree)
        nodes, definitive = index.candidate_nodes(~sym("a"), stats)
    assert definitive
    assert stats["column_scans"] == 1
    assert stats["full_scans"] == 0
    assert sorted(n.value for n in nodes) == ["b", "b", "c", "d", "d"]


def test_bitmap_serves_column_outcomes_as_hits():
    db = Database()
    tree = labeled_tree()
    db.bind_root("T", tree)
    # A closure pattern: the matcher consults the outcome bitmap (a
    # closure-free one calls declarative predicates directly).
    query = Q.root("T").sub_select("[[b(d @)]]+@ .@ b").build()
    with config.columnar_threshold_scope(0):
        evaluate(query, db)  # build the shared column
        with db.stats.scope():
            result = evaluate(query, db)
            assert db.stats["column_hits"] > 0
            assert db.stats["column_builds"] == 0
    assert len(result) == 1


def test_columnar_counters_reach_stats():
    db = Database()
    tree = labeled_tree()
    db.bind_root("T", tree)
    query = Q.root("T").sub_select("b(?*)").build()
    with config.columnar_threshold_scope(0):
        with db.stats.scope():
            evaluate(query, db)
            assert db.stats["column_builds"] >= 1
            assert db.stats["column_rows"] >= 6
            assert db.stats["columnar_roots"] == 2
            assert db.stats["columnar_pruned"] == 4


def test_escape_hatch_disables_the_kernel():
    db = Database()
    tree = labeled_tree()
    db.bind_root("T", tree)
    query = Q.root("T").sub_select("b(?*)").build()
    with config.columnar_threshold_scope(0), config.columnar_scope("off"):
        with db.stats.scope():
            result = evaluate(query, db)
            assert db.stats["column_builds"] == 0
            assert db.stats["columnar_roots"] == 0
    assert len(result) == 2
