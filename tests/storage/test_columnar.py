"""Unit tests for the columnar list start source and the tree structures
that need no columns.

Covers predicate-column semantics of :class:`ColumnarList` against the
element-at-a-time and the numpy oracle (:func:`tests.reference.list_columns`
checks every column built; missing attributes, negation, mixed payloads,
ordering comparisons, Params), a property over random lists and atoms,
the shift-AND start set, the length gate and the per-list cache, that
columns need no numpy and take no backend, and — for trees — the
:class:`~repro.core.aqua_tree.TreeLayout` arrays that hold the
structure vectors, the node index's scan fallback and the matcher's
outcome bitmap, none of which builds a column.
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AquaList, AquaTree
from repro.core.aqua_tree import TreeNode
from repro.core.concat import ConcatPoint
from repro.core.identity import Record
from repro.params import Param
from repro.predicates import attr, sym
from repro.predicates.alphabet import And, Comparison, Not, Or, SymbolEquals, TruePredicate
from repro.query import Q, evaluate
from repro.storage import Database
from repro.storage import columnar as C
from repro.storage.columnar import (
    COLUMNAR_MIN_LENGTH,
    ColumnarList,
    column_servable,
    columnar_list_for,
)
from repro.storage.stats import Instrumentation

from ..reference import BACKENDS, list_columns

SRC = Path(C.__file__).resolve().parents[2]


@pytest.fixture(params=BACKENDS)
def backend(request):
    """The oracle every column built during the test is checked against."""
    with list_columns(request.param):
        yield request.param


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


def test_structure_vectors(backend):
    """Parent / depth / subtree-end are the layout's arrays; first child
    and next sibling follow from them.  No column is built."""
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


def test_structure_counts_concat_points(backend):
    tree = AquaTree.build("a", ["b"])
    tree.root.children.append(TreeNode(ConcatPoint("1")))
    layout = tree.layout()
    assert layout.element_count == 2  # elements only
    assert len(layout.nodes) == 3  # positions include the labeled NULL
    assert layout.end[0] == 3


# -- predicate columns over a list ---------------------------------------------


def test_symbol_column_matches_oracle(backend):
    columns = ColumnarList(AquaList.of(*"abdbcd"))
    assert columns.positions(columns.predicate_column(sym("b"))) == [1, 3]


def test_missing_attribute_is_false_and_not_respects_presence(backend):
    columns = ColumnarList(people())
    brazilian = attr("citizen") == "Brazil"
    assert [r.name for r in matching(columns, brazilian)] == ["Ana"]
    # NOT(citizen = Brazil) holds for everyone else — including Cleo,
    # whose missing attribute made the comparison itself False.
    assert [r.name for r in matching(columns, ~brazilian)] == ["Bo", "Cleo"]


def test_or_and_true_predicate_columns(backend):
    columns = ColumnarList(AquaList.of(*"abdbcd"))
    assert matching(columns, sym("b") | sym("c")) == ["b", "b", "c"]
    assert matching(columns, sym("b") & ~sym("b")) == []
    assert len(matching(columns, TruePredicate())) == columns.size == 6


def test_concat_points_never_match(backend):
    """Labeled NULLs are not elements: no column has a position for
    them, so no start the shift-AND yields can point at one."""
    aqua_list = AquaList.of("a", ConcatPoint("1"), "b")
    columns = ColumnarList(aqua_list)
    assert columns.size == 2
    assert matching(columns, TruePredicate()) == ["a", "b"]
    assert columns.candidate_starts(((sym("b"), (0,)),)) == [1]


def test_param_predicates_are_not_servable():
    assert not column_servable(attr("citizen") == Param("who"))
    assert not column_servable(sym(Param("label")))
    assert column_servable(sym("b") | (attr("age") > 3))


def test_ordering_comparison_column(backend):
    ages = AquaList.of(Record(age=50), Record(age=10), Record(age=30))
    columns = ColumnarList(ages)
    assert [r.age for r in matching(columns, attr("age") > 20)] == [50, 30]


def test_mixed_payload_types_match_oracle(backend):
    # Strings mixed with records: the numpy oracle declines both leaves
    # (missing attributes, a mixed array), the element loop checks them.
    aged = Record(age=7)
    columns = ColumnarList(AquaList.of("a", aged, "b", 3))
    assert matching(columns, attr("age") == 7) == [aged]
    assert matching(columns, sym("b")) == ["b"]


# -- building and caching --------------------------------------------------------


def test_outcome_for_never_builds(backend):
    """A column is built once per predicate, and the shift-AND builds
    only the columns its atoms name."""
    columns = ColumnarList(AquaList.of(*"abcabca"))
    assert columns.column_builds == 0
    columns.candidate_starts(((sym("a"), (0,)),))
    assert columns.column_builds == 1
    columns.candidate_starts(((sym("a"), (0,)), (sym("c"), (2,))))
    assert columns.column_builds == 2  # ``a`` served, ``c`` built
    assert columns.column_rows == 2 * columns.size


def test_candidate_roots_cached_by_anchor_set(backend):
    columns = ColumnarList(AquaList.of(*"abcabca"))
    first = columns.predicate_column(sym("b"))
    # Cached by predicate equality, not object identity.
    assert columns.predicate_column(sym("b")) is first


# -- one representation: int bitsets, no backend to pick -------------------------


def test_resolve_backend_auto():
    """Columns need no numpy: a long-list columnar query in a fresh
    interpreter builds its columns and never imports ``numpy``, and the
    retired backend variable, set to ``numpy``, changes nothing."""
    script = textwrap.dedent(
        """
        import sys
        from repro.core import AquaList
        from repro.query import Q, evaluate
        from repro.storage import Database
        from repro.storage.columnar import COLUMNAR_MIN_LENGTH

        db = Database()
        db.bind_root("L", AquaList.of(*("abc" * COLUMNAR_MIN_LENGTH)[:COLUMNAR_MIN_LENGTH]))
        with db.stats.scope():
            result = evaluate(Q.root("L").lsub_select("[a?c]").build(), db)
            builds = db.stats["column_builds"]
        print(len(result), builds, "numpy" in sys.modules)
        """
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "AQUA_COLUMNAR_BACKEND": "numpy"}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["1", "2", "False"]


def test_pinned_numpy_without_numpy_is_an_error():
    """There is no backend to pin: ``backend=`` is a ``TypeError``
    whatever it names (as ``parallel_workers=`` became), and nothing
    resolves or reports one."""
    for backend in ("numpy", "python", "rust"):
        with pytest.raises(TypeError):
            ColumnarList(AquaList.of("a"), backend=backend)
    assert not hasattr(ColumnarList(AquaList.of("a")), "backend")
    for retired in ("resolve_backend", "numpy_available", "attribute_column"):
        assert not hasattr(C, retired) and not hasattr(ColumnarList, retired)


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


def test_list_candidate_starts(backend):
    values = list("abcabca")
    columns = ColumnarList(AquaList.of(*values))
    # 'a' at offset 0 and 'c' at offset 2 — the shape of "[a?c]".
    choices = ((sym("a"), (0,)), (sym("c"), (2,)))
    starts = columns.candidate_starts(choices)
    brute = [
        i
        for i in range(len(values))
        if values[i] == "a" and i + 2 < len(values) and values[i + 2] == "c"
    ]
    assert starts == brute == [0, 3]


#: Element kinds a random list draws from: bare symbols, records with a
#: numeric or a string ``pitch``, and records without one.
VOCABULARY = ["a", "b", "c", 3] + [Record(pitch=k) for k in range(5)] + [
    Record(pitch="high"),
    Record(name="rest"),
]

#: Sizes on and around the int bitsets' old 64-bit chunk edges and the
#: 512-element gate, besides any size up to 1,500.
list_sizes = st.one_of(
    st.integers(0, 1500), st.sampled_from([0, 1, 63, 64, 65, 511, 512, 513, 1500])
)

leaves = st.one_of(
    st.sampled_from(["a", "b", "c", 3, "z"]).map(SymbolEquals),
    st.builds(
        Comparison,
        st.just("pitch"),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.one_of(st.integers(-1, 5), st.just("high")),
    ),
    st.just(TruePredicate()),
)

atoms = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda terms: And(*terms)),
        st.lists(inner, min_size=2, max_size=3).map(lambda terms: Or(*terms)),
        inner.map(Not),
    ),
    max_leaves=5,
)


@st.composite
def random_lists(draw) -> list:
    """A list of a drawn size, its elements drawn by a seeded generator
    from a drawn share of the vocabulary (so columns run dense or sparse)."""
    size = draw(list_sizes)
    kinds = draw(st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return [rng.choice(kinds) for _ in range(size)]


@settings(max_examples=60, deadline=None)
@example(values=["a"], choices=[(SymbolEquals("a"), [0])])
@example(values=[], choices=[(Not(SymbolEquals("a")), [0, 1])])
@given(
    values=random_lists(),
    choices=st.lists(
        st.tuples(atoms, st.lists(st.integers(0, 1600), min_size=1, max_size=3)),
        max_size=3,
    ),
)
def test_columns_and_starts_equal_the_element_loop(values, choices):
    """Every column is the element loop's bit for bit, and the shift-AND
    start set is the brute-force one: a start (``0 .. size``) survives
    iff each required atom holds at one of its offsets, offsets past the
    list's end holding nowhere."""
    columns = ColumnarList(AquaList.of(*values))
    size = len(values)
    for predicate, _ in choices:
        column = columns.predicate_column(predicate)
        want = [position for position, value in enumerate(values) if predicate(value)]
        assert column == sum(1 << position for position in want)
        assert columns.positions(column) == want
    brute = [
        start
        for start in range(size + 1)
        if all(
            any(start + offset < size and predicate(values[start + offset]) for offset in offsets)
            for predicate, offsets in choices
        )
    ]
    assert columns.candidate_starts(choices) == brute


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
