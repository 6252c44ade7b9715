"""The candidate-roots seam of ``iter_tree_matches`` (ISSUE 21).

A closure-free pattern's root predicates compile to a *first-set*: the
scan tests it on every node and enters the matcher only for survivors,
charging the nodes it rejects in bulk.  The reference is the same scan
under ``tests/reference.py::untabled_scope`` — the null-table context
takes no prefilter, so it is the node-at-a-time scan this one replaced.
"""

import gc
import inspect

import pytest

from repro import faults, params
from repro.core import AquaTree, parse_tree
from repro.errors import InjectedFaultError, QueryError, ResourceExhaustedError
from repro.guardrails import Budget
from repro.params import Param
from repro.patterns import find_tree_matches, parse_tree_pattern, tree_in_language
from repro.patterns import tree_match
from repro.patterns.tree_ast import TreeAtom, TreePattern
from repro.patterns.tree_match import _TreeMatcher, iter_tree_matches
from repro.predicates import attr, pred
from repro.query import Q, evaluate
from repro.storage import Database
from repro.workloads import by_citizen_or_name, random_family_tree

from ..reference import untabled, untabled_scope

FIGURE4 = "Brazil(!?* USA !?*)"


def family(planted: int = 1) -> AquaTree:
    return random_family_tree(350, seed=11, planted_matches=planted)


def figure4():
    return parse_tree_pattern(FIGURE4, resolver=by_citizen_or_name)


def root_entries(monkeypatch) -> list:
    """Spy on ``match_node``: the nodes it is entered for at depth 0."""
    entered: list = []
    original = _TreeMatcher.match_node

    def spy(self, tp, node, env, guard=frozenset(), depth=0):
        if depth == 0:
            entered.append(node)
        return original(self, tp, node, env, guard, depth)

    monkeypatch.setattr(_TreeMatcher, "match_node", spy)
    return entered


class TestFirstSetScan:
    def test_matcher_is_entered_only_for_the_one_brazilian(self, monkeypatch):
        tree = family()
        assert sum(v.citizen == "Brazil" for v in tree.values()) == 1
        entered = root_entries(monkeypatch)
        matches = find_tree_matches(figure4(), tree)
        assert len(matches) == 1
        assert [node.value.citizen for node in entered] == ["Brazil"]
        assert entered[0] is matches[0].root

    def test_reference_context_still_enters_for_every_node(self, monkeypatch):
        tree, pattern = family(), figure4()
        entered = root_entries(monkeypatch)
        find_tree_matches(pattern, tree, context=untabled(pattern, tree))
        assert len(entered) == tree.size()

    def test_scan_lays_out_no_tree(self):
        tree = family()
        assert find_tree_matches(figure4(), tree)
        assert tree._layout is None

    @pytest.mark.parametrize(
        "text",
        [
            "^a(?*)",  # pinned to the tree root
            "?(b)",  # every node passes a bare ?
            "@1 | a",  # a root that is not an atom
            "[[a(?* @1 ?*)]]+@1",  # vertical closure: the bitmap's business
        ],
    )
    def test_patterns_without_a_first_set_take_the_plain_walk(self, monkeypatch, text):
        tree = parse_tree("a(b(a c) a(b))")
        pattern = parse_tree_pattern(text)
        reference = find_tree_matches(pattern, tree, context=untabled(pattern, tree))
        expected = [m.key() for m in reference]
        entered = root_entries(monkeypatch)
        assert [m.key() for m in find_tree_matches(pattern, tree)] == expected
        candidates = 1 if pattern.root_anchor else tree.size()
        assert len(entered) == candidates

    def test_opaque_root_keeps_its_once_per_node_promise(self):
        seen: list = []
        pattern = TreePattern(TreeAtom(pred(lambda v: seen.append(v) or v == "a", "is_a")))
        assert pattern.root_first_set() is None
        tree = parse_tree("a(b a)")
        assert len(find_tree_matches(pattern, tree)) == 2
        assert sorted(seen) == ["a", "a", "b"]

    def test_root_first_set_reports_what_a_rejection_costs(self):
        assert parse_tree_pattern("a(b)").root_first_set()[1:] == (1, 1)
        # union + two atoms entered, both atoms evaluated
        assert parse_tree_pattern("a | b(c)").root_first_set()[1:] == (3, 2)
        # concat + union + two atoms
        assert parse_tree_pattern("[[a(@1) | b]] .@1 c").root_first_set()[1:] == (4, 2)
        accepts = parse_tree_pattern("a | b(c)").root_first_set().accepts
        assert [accepts(v) for v in "abc"] == [True, True, False]


def scan_query(text: str = "z | y(?*)"):
    return Q.root("T").sub_select(text).build()


def scan_db(tree: AquaTree | None = None) -> Database:
    db = Database()
    db.bind_root("T", tree if tree is not None else parse_tree("a(b(c d) e(f g(h)) i)"))
    return db


def trip(db, query, budget, reference: bool):
    with pytest.raises(ResourceExhaustedError) as info:
        if reference:
            with untabled_scope(db):
                evaluate(query, db, budget=budget)
        else:
            evaluate(query, db, budget=budget)
    return info.value


class TestBudgetAndFaultParity:
    """Rejected candidates are charged in bulk; limits still mean the same."""

    @pytest.mark.parametrize(
        "budget",
        [Budget(max_steps=7), Budget(max_nodes_scanned=4)],
        ids=["max_steps", "max_nodes_scanned"],
    )
    def test_counted_limits_trip_at_the_same_node(self, budget):
        db, query = scan_db(), scan_query()
        got, want = trip(db, query, budget, False), trip(db, query, budget, True)
        assert (got.limit_name, got.seam) == (want.limit_name, want.seam)
        assert got.usage["nodes_scanned"] == want.usage["nodes_scanned"]
        assert 0 <= got.spent - want.spent < 3  # within one rejected node's steps

    def test_deadline_trips_in_the_scan_within_one_batch(self):
        from repro.workloads import random_labeled_tree

        db = scan_db(random_labeled_tree(400, "abcd", seed=2, max_arity=3))
        budget = Budget(deadline_seconds=1e-9)
        got = trip(db, scan_query(), budget, False)
        want = trip(db, scan_query(), budget, True)
        assert (got.limit_name, got.seam) == ("deadline_seconds", want.seam)
        assert abs(got.usage["steps"] - want.usage["steps"]) <= 64

    def test_unlimited_scan_totals_equal_the_reference(self):
        db, query = scan_db(), scan_query()
        totals = []
        for scope in (untabled_scope(db, "memo"), untabled_scope(db)):
            with db.stats.scope() as stats, scope:
                evaluate(query, db)
                totals.append(
                    {k: stats[k] for k in ("backtrack_steps", "predicate_evals", "nodes_scanned")}
                )
        assert totals[0] == totals[1]
        assert totals[0]["nodes_scanned"] == 9

    def test_seeded_fault_fires_at_the_same_candidate(self):
        tree, pattern = family(planted=3), figure4()
        hits = []
        for context in (None, untabled(pattern, tree)):
            plan = faults.FaultPlan(
                [faults.FaultRule("matcher_step", "error", probability=0.01)], seed=5
            )
            with faults.injected(plan), pytest.raises(InjectedFaultError) as info:
                find_tree_matches(pattern, tree, context=context)
            hits.append((info.value.hit, plan.hits["matcher_step"]))
        assert hits[0] == hits[1]
        assert 1 < hits[0][0] < tree.size()

    def test_fault_free_plan_counts_every_candidate(self):
        tree = family()
        plan = faults.FaultPlan([faults.FaultRule("matcher_step", "error", probability=0.0)])
        with faults.injected(plan):
            find_tree_matches(figure4(), tree)
        assert plan.hits["matcher_step"] == tree.size()

    def test_unbound_param_in_a_root_predicate_raises_the_same_error(self):
        pattern = TreePattern(TreeAtom(attr("citizen") == Param("who")))
        tree = family()
        messages = []
        for context in (None, untabled(pattern, tree)):
            with pytest.raises(QueryError) as info:
                find_tree_matches(pattern, tree, context=context)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "unbound query parameter $who" in messages[0]
        with params.bound_params({"who": "Brazil"}):
            assert len(find_tree_matches(pattern, tree)) == 1


class TestMatchersDieWithTheirScan:
    def test_no_matcher_is_left_for_the_cyclic_collector(self):
        wide = AquaTree.build("a", [AquaTree.leaf("bcx"[i % 3]) for i in range(20)])
        ladder = parse_tree("a(a(a(b)))")
        gc.collect()
        gc.disable()
        try:
            find_tree_matches(figure4(), family(planted=2))  # prune companion
            find_tree_matches(figure4(), family(planted=2), limit=1)  # abandoned
            find_tree_matches(parse_tree_pattern("a(?* b ?* c ?*)"), wide)  # wide tables
            find_tree_matches(parse_tree_pattern("[[a(@1)]]+@1 .@1 b"), ladder)
            assert tree_in_language(parse_tree_pattern("[[a(@1)]]+@1 .@1 b"), ladder)
            alive = [o for o in gc.get_objects() if isinstance(o, _TreeMatcher)]
        finally:
            gc.enable()
        assert alive == []


def test_one_match_loop_behind_the_seam() -> None:
    """Three candidate sources, one ``match_node(pattern.body`` call site
    in ``iter_tree_matches`` (the CI lint job greps for the same)."""
    assert inspect.getsource(iter_tree_matches).count("match_node(pattern.body") == 1
    for source in (tree_match._first_set_scan, tree_match._candidate_roots):
        assert "match_node(" not in inspect.getsource(source)
