"""Streaming pipeline ≡ reference evaluator, bit for bit.

The physical layer's contract: lowering a logical plan to the
Volcano-style pipeline changes *when* work happens, never *what* comes
out — same members in the same order under the same equality notion as
the plain recursion over the algebra definitions (``tests/reference.py``),
per-operator metrics at the logical plan's paths with the reference's
cardinalities, full scans charged in full, coercion errors naming the
plan path.
"""

import pytest

from repro.core import make_tuple
from repro.core.aqua_list import AquaList
from repro.core.aqua_set import AquaSet
from repro.core.identity import Record
from repro.errors import QueryError
from repro.predicates import attr
from repro.query import Q, evaluate
from repro.query.interpreter import evaluate_with_metrics
from repro.query.metrics import cardinality
from repro.storage import Database
from repro.workloads import (
    BRAZIL,
    by_citizen_or_name,
    by_element,
    by_pitch,
    figure3_family_tree,
    random_family_tree,
    random_rna_structure,
    song_with_melody,
)

from ..reference import reference_eval


def ordered(value):
    """Observable member order (sets and lists stream in a fixed order)."""
    if isinstance(value, AquaSet):
        return list(value)
    if isinstance(value, AquaList):
        return value.values()
    return value


def family_db() -> Database:
    db = Database()
    db.bind_root("family", figure3_family_tree())
    db.bind_root("big", random_family_tree(80, seed=3, planted_matches=2))
    return db


def music_db() -> Database:
    db = Database()
    db.bind_root("song", song_with_melody(120, ["A", "C", "D", "F"], 3, seed=11))
    return db


def rna_db() -> Database:
    db = Database()
    db.bind_root("rna", random_rna_structure(120, seed=7))
    return db


def person_db() -> Database:
    db = Database()
    db.insert_many(
        [
            Record(name=f"p{i}", age=i % 60, city=f"C{i % 10}", salary=i % 900)
            for i in range(150)
        ],
        "Person",
    )
    db.create_index("Person", "city")
    return db


CASES = {
    "tree-select": lambda: (family_db(), Q.root("family").select(BRAZIL).build()),
    "tree-apply": lambda: (
        family_db(),
        Q.root("family").apply(lambda person: person.name).build(),
    ),
    "sub-select": lambda: (
        family_db(),
        Q.root("big")
        .sub_select("Brazil(!?* USA !?*)", resolver=by_citizen_or_name)
        .build(),
    ),
    "split": lambda: (
        family_db(),
        Q.root("big")
        .split("Brazil(!?* USA !?*)", make_tuple, resolver=by_citizen_or_name)
        .build(),
    ),
    "split-then-apply": lambda: (
        family_db(),
        Q.root("big")
        .split("Brazil(!?* USA !?*)", make_tuple, resolver=by_citizen_or_name)
        .sapply(lambda t: t[1])
        .build(),
    ),
    "all-anc": lambda: (
        family_db(),
        Q.root("big")
        .all_anc("USA", make_tuple, resolver=by_citizen_or_name)
        .build(),
    ),
    "all-desc": lambda: (
        family_db(),
        Q.root("big")
        .all_desc("USA", make_tuple, resolver=by_citizen_or_name)
        .build(),
    ),
    "rna-motif": lambda: (
        rna_db(),
        Q.root("rna").sub_select("S(H)", resolver=by_element).build(),
    ),
    "list-select": lambda: (
        music_db(),
        Q.root("song").lselect(attr("pitch") == "A").build(),
    ),
    "list-apply": lambda: (
        music_db(),
        Q.root("song").lapply(lambda note: note.pitch).build(),
    ),
    "list-sub-select": lambda: (
        music_db(),
        Q.root("song").lsub_select("[A??F]", resolver=by_pitch).build(),
    ),
    "extent-select": lambda: (
        person_db(),
        Q.extent("Person")
        .sselect((attr("age") > 30) & (attr("city") == "C3"))
        .build(),
    ),
    "extent-apply": lambda: (
        person_db(),
        Q.extent("Person")
        .sselect(attr("age") > 50)
        .sapply(lambda p: p.city)
        .build(),
    ),
    "union": lambda: (
        person_db(),
        Q.extent("Person")
        .sselect(attr("city") == "C3")
        .union(Q.extent("Person").sselect(attr("age") > 55))
        .build(),
    ),
    "intersect": lambda: (
        person_db(),
        Q.extent("Person")
        .sselect(attr("city") == "C3")
        .intersect(Q.extent("Person").sselect(attr("age") > 30))
        .build(),
    ),
    "difference": lambda: (
        person_db(),
        Q.extent("Person")
        .sselect(attr("city") == "C3")
        .difference(Q.extent("Person").sselect(attr("age") > 30))
        .build(),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_identical_including_member_order(case):
    db, query = CASES[case]()
    streamed = evaluate(query, db)
    reference = reference_eval(query, db)
    assert streamed == reference
    assert ordered(streamed) == ordered(reference)


def plan_nodes(node, path=()):
    """Every logical node of a plan, keyed by its path from the root."""
    yield path, node
    for index, child in enumerate(node.children()):
        yield from plan_nodes(child, (*path, index))


@pytest.mark.parametrize("case", sorted(CASES))
def test_metrics_line_up_with_the_logical_plan(case):
    db, query = CASES[case]()
    _, metrics = evaluate_with_metrics(query, db)
    nodes = dict(plan_nodes(query))
    assert set(metrics.operators) == set(nodes)
    for path, op in metrics.operators.items():
        assert op.head == nodes[path].head()
        assert op.calls == 1
        assert op.rows_out == cardinality(reference_eval(nodes[path], db)), path


@pytest.mark.parametrize(
    "case, counter, scanned",
    [
        ("sub-select", "nodes_scanned", lambda db: db.root("big").size()),
        ("rna-motif", "nodes_scanned", lambda db: db.root("rna").size()),
        ("list-sub-select", "positions_scanned", lambda db: len(db.root("song")) + 1),
    ],
)
def test_completed_full_scans_are_charged_in_full(case, counter, scanned):
    """One charge per candidate, topped up at exhaustion to the whole input."""
    db, query = CASES[case]()
    with db.stats.scope() as counters:
        evaluate(query, db)
        charged = counters.snapshot()[counter]
    assert charged == scanned(db)


class TestEqualityNotions:
    def test_set_results_preserve_the_producer_equality(self):
        db, query = CASES["tree-select"]()
        assert evaluate(query, db).equality is reference_eval(query, db).equality

    def test_apply_deduplicates_under_source_equality(self):
        db, query = CASES["extent-apply"]()
        streamed = evaluate(query, db)
        reference = reference_eval(query, db)
        assert len(streamed) == len(reference)
        assert ordered(streamed) == ordered(reference)


class TestCoercionDiagnostics:
    """Satellite: type errors name the offending plan path (head chain)."""

    def test_tree_operator_over_a_list_names_the_head_chain(self):
        db, _ = CASES["list-select"]()
        query = Q.root("song").sub_select("a").sapply(lambda t: t).build()
        with pytest.raises(QueryError) as info:
            evaluate(query, db)
        message = str(info.value)
        assert "plan path:" in message
        # The chain runs from the plan root down to the offending operator.
        assert "sapply" in message
        assert "sub_select[a]" in message
