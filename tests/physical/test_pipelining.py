"""The payoff tests: pipelining shrinks buffers and trips budgets early.

Acceptance criteria for the physical layer (ISSUE 3): on the fig4-style
indexed-split benchmark the pipeline's peak intermediate cardinality is
exactly its result sink — never the input tree an operator-at-a-time
evaluation would hold — with results identical to the reference
evaluator, and a ``max_nodes_scanned`` budget trips mid-stream — after
charging only the candidates actually tried, not the whole input.
"""

import pytest

from repro.api import Session
from repro.core import make_tuple, parse_tree
from repro.errors import ResourceExhaustedError
from repro.guardrails import Budget
from repro.physical import lower, operators as P
from repro.query import Q, evaluate
from repro.query.interpreter import evaluate_with_metrics
from repro.storage import Database
from repro.workloads import random_labeled_tree

from ..reference import reference_eval


def indexed_tree_db() -> tuple[Database, int]:
    """The CLAIM-SPLIT setup at test scale: rare anchor, node index."""
    labels = ["d", "e", "h", "i", "j", "u", "v", "w", "x", "y"]
    weights = [1.0] + [11.0] * 9
    tree = random_labeled_tree(1200, labels, seed=42, weights=weights)
    db = Database()
    db.bind_root("T", tree)
    db.tree_index(tree)
    return db, tree.size()


class TestPeakIntermediateCardinality:
    def test_indexed_sub_select_buffers_only_its_result(self):
        db, size = indexed_tree_db()
        query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
        # Optimized execution serves this through the index anchor scan.
        assert type(lower(query, db, choose_access_paths=True).root) is P.IndexAnchorScan

        result, metrics = Session(db).query_with_metrics(query, optimize=True)
        reference = reference_eval(query, db)
        assert result == reference
        assert list(result) == list(reference)
        # The whole root tree is never held as an operator's buffer; the
        # pipeline's only resident buffer is the final result sink.
        assert metrics.peak_intermediate() == len(result) < size

    def test_indexed_split_buffers_only_its_result(self):
        db, size = indexed_tree_db()
        query = Q.root("T").split("d(e(h i) j ?*)", make_tuple).build()
        assert (
            lower(query, db, choose_access_paths=True).root.name == "index_anchor_split"
        )

        result, metrics = Session(db).query_with_metrics(query, optimize=True)
        assert result == reference_eval(query, db)
        assert metrics.peak_intermediate() == len(result) < size

    def test_source_scans_are_not_counted_as_buffers(self):
        db, _ = indexed_tree_db()
        query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
        _, streaming = evaluate_with_metrics(query, db)
        # scan_root yields a stored reference, not a materialized copy.
        assert streaming[(0,)].peak_buffered == 0


class TestMidStreamBudgetTrips:
    def test_nodes_budget_trips_before_the_scan_finishes(self):
        tree = parse_tree("a(b(c d) e)")  # 5 nodes
        db = Database()
        db.bind_root("T", tree)
        query = Q.root("T").sub_select("z").build()
        with pytest.raises(ResourceExhaustedError) as info:
            evaluate(query, db, budget=Budget(max_nodes_scanned=2))
        assert info.value.limit_name == "max_nodes_scanned"
        # Charged candidate by candidate: the trip fires on the third
        # node tried, before the 5-node tree has been scanned.
        assert info.value.spent == 3 < tree.size()

    def test_trip_is_annotated_with_the_pulling_operator(self):
        tree = parse_tree("a(b(c d) e)")
        db = Database()
        db.bind_root("T", tree)
        query = Q.root("T").sub_select("z").build()
        with pytest.raises(ResourceExhaustedError) as info:
            evaluate(query, db, budget=Budget(max_nodes_scanned=2))
        assert info.value.plan_path == ()
        assert info.value.operator == query.head()

    def test_results_budget_trips_at_the_limit_not_the_cardinality(self):
        from repro.core.identity import Record

        db = Database()
        db.insert_many([Record(name=f"p{i}") for i in range(10)], "Person")
        query = Q.extent("Person").build()
        with pytest.raises(ResourceExhaustedError) as info:
            evaluate(query, db, budget=Budget(max_results=3))
        # Row-by-row counting stops at limit+1, not at all 10 members.
        assert info.value.spent == 4
