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
from repro.physical import ExecutionContext, lower
from repro.predicates import attr
from repro.query import Q, evaluate
from repro.query.interpreter import evaluate_with_metrics
from repro.plan.metrics import cardinality
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
    "list-sub-select-unanchored": lambda: (
        music_db(),
        Q.root("song").lsub_select("[[[A|C]] ?]", resolver=by_pitch).build(),
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


def docstore_case():
    """A path query: ``index_anchor_split`` plus ``flatten(apply(step))``."""
    from repro.docstore import Document

    doc = Document.from_text(
        "<html><body><article lang='en'><p>a</p><p>a</p></article>"
        "<article lang='de'><p>b</p></article></body></html>",
        "html",
    )
    return doc, "//article//p"


class TestSetStreams:
    """Every set-shaped operator deduplicates its own stream, so the
    result sink keys nothing again."""

    def test_every_set_shaped_stream_is_duplicate_free(self, monkeypatch):
        from repro.physical import operators
        from repro.physical.base import PhysicalOp

        streams: dict = {}
        original = PhysicalOp.next_batch

        def recorded(self):
            batch = original(self)
            if self.shape == "set":
                streams.setdefault(self, []).extend(batch)
            return batch

        monkeypatch.setattr(PhysicalOp, "next_batch", recorded)
        for case in sorted(CASES):
            db, query = CASES[case]()
            if "song" in db.roots():
                db.list_index(db.root("song"), ["pitch"])
            for choose in (True, False):
                lower(query, db, choose_access_paths=choose).execute(ExecutionContext(db=db))
        doc, path = docstore_case()
        doc.path(path)
        for op, rows in streams.items():
            keys = [op.result_equality.key(row) for row in rows]
            assert len(set(keys)) == len(keys), op.name
        set_shaped = {
            cls
            for cls in vars(operators).values()
            if isinstance(cls, type) and issubclass(cls, PhysicalOp) and cls.shape == "set"
            and cls.__module__ == operators.__name__
        }
        assert {type(op) for op in streams} == set_shaped

    @pytest.mark.parametrize(
        "case, path",
        [("sub-select", None), ("docstore", "//p"), ("docstore-step", "//article[@lang='en']//p")],
        ids=["sub-select", "docstore", "docstore-step"],
    )
    def test_a_query_result_keys_each_row_exactly_once(self, monkeypatch, case, path):
        """A path step's selected subtrees are keyed by the flatten above
        it, not a second time by the step's own result set."""
        from collections import Counter

        from repro.core.equality import DEFAULT

        keyed: Counter = Counter()
        original = DEFAULT.key
        monkeypatch.setattr(DEFAULT, "key", lambda row: keyed.update([id(row)]) or original(row))
        if path is not None:
            doc, _ = docstore_case()
            result = doc.path(path)
        else:
            result = evaluate(*reversed(CASES[case]()))
        assert len(result) > 1
        assert [keyed[id(row)] for row in result] == [1] * len(result)


def batch_leg(db, query, optimize, budget):
    """One run under ``budget``: its answers (or its trip), every
    operator's ``rows_out`` / ``calls`` / counters, the sink's totals and
    the guard's spend."""
    from repro import context as query_context
    from repro.api import Session
    from repro.errors import ResourceExhaustedError
    from repro.query.plan_cache import PlanCache

    db.stats.reset()
    session = Session(db, plan_cache=PlanCache())
    with query_context.entered(budget.arm) as run:
        guard = run.guard
        try:
            result, metrics = session.query_with_metrics(query, optimize=optimize)
            outcome = (type(result), ordered(result))
        except ResourceExhaustedError as error:
            metrics = error.metrics
            outcome = (error.limit_name, error.limit, error.spent, error.plan_path, error.operator)
    operators = {
        path: (op.rows_out, op.calls, dict(op.counters)) for path, op in metrics.operators.items()
    }
    spend = (guard.steps, guard.nodes_scanned)
    return outcome, operators, db.stats.snapshot(), spend


@pytest.mark.parametrize("optimize", [True, False], ids=["chosen", "plain"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batches_hand_over_what_rows_do(monkeypatch, case, optimize):
    """Full batches ≡ batch size 1 (the row-at-a-time pull): answers and
    their order, per-operator counters, sink totals and guard spend under
    a deadline-only budget; and under each row-tripped limit, the trip's
    limit, spent value, plan path and operator."""
    from repro.guardrails import Budget
    from repro.physical import base

    db, query = CASES[case]()
    if "song" in db.roots():
        db.list_index(db.root("song"), ["pitch"])
    budgets = [Budget(deadline_seconds=60)] + [
        Budget(**{knob: limit})
        for knob in ("max_results", "max_steps", "max_nodes_scanned")
        for limit in (1, 3, 7)
    ]
    batch_leg(db, query, optimize, budgets[0])  # builds what a first read builds
    for budget in budgets:
        batched = batch_leg(db, query, optimize, budget)
        with monkeypatch.context() as patch:
            patch.setattr(base, "BATCH", 1)
            assert batch_leg(db, query, optimize, budget) == batched, budget


def test_a_deadline_only_read_ticks_once_per_batch(monkeypatch):
    """An unlimited read hands over batches: each operator's pulls tick
    the guard once per batch, ⌈rows / BATCH⌉ + 1 times at most, and the
    steps still total one per row handed over plus one per exhausting
    pull."""
    from repro.api import Session
    from repro.guardrails import Budget, Guard
    from repro.physical.base import BATCH
    from repro.query.plan_cache import PlanCache

    db = Database()
    db.insert_many(
        [
            Record(name=f"p{i}", age=i % 60, city=f"C{i % 10}", salary=i * 7 % 2000)
            for i in range(5000)
        ],
        "Person",
    )
    db.create_index("Person", "city")
    ticks: list[int] = []
    original = Guard.tick

    def spied(self, amount=1, seam="matcher step", depth=None):
        if seam == "executor pull":
            ticks.append(amount)
        return original(self, amount, seam, depth)

    monkeypatch.setattr(Guard, "tick", spied)
    text = 'extent Person | sselect {age > 30 and city = "C3" and salary > 1000} | project name'
    result, metrics = Session(db, plan_cache=PlanCache()).query_with_metrics(
        text, budget=Budget(deadline_seconds=60)
    )
    operators = list(metrics.operators.values())
    candidates = metrics.total("index_candidates")
    assert len(operators) == 2 and candidates == 500 and len(result) > 1
    assert len(ticks) <= len(operators) * (-(-candidates // BATCH) + 1)
    assert sum(ticks) == sum(op.rows_out for op in operators) + len(operators)


def test_a_limited_pull_is_charged_before_it_runs():
    """Under a limit each pull ticks before its generator runs, as the
    row-at-a-time pull did, so the second step is the select's pull and
    the trip names the select, not the extent scan below it."""
    from repro.errors import ResourceExhaustedError
    from repro.guardrails import Budget

    db, query = CASES["extent-apply"]()
    with pytest.raises(ResourceExhaustedError) as info:
        evaluate(query, db, budget=Budget(max_steps=1))
    assert (info.value.spent, info.value.plan_path) == (2, (0,))
    assert info.value.operator == query.children()[0].head()
