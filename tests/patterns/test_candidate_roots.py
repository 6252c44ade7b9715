"""The candidate-roots seam of ``iter_tree_matches`` (ISSUE 21).

A closure-free pattern's root predicates compile to a *first-set*: the
scan tests it on every node and enters the matcher only for survivors,
charging the nodes it rejects in bulk.  The reference is the same scan
under ``tests/reference.py::untabled_scope`` — the null-table context
takes no prefilter, so it is the node-at-a-time scan this one replaced.
"""

import gc
import inspect
import sys

import pytest

from repro import context as query_context
from repro import faults
from repro.core import AquaTree, parse_tree
from repro.errors import InjectedFaultError, QueryError, ResourceExhaustedError
from repro.guardrails import Budget
from repro.params import Param
from repro.patterns import (
    MatchContextRegistry,
    find_tree_matches,
    parse_tree_pattern,
    tree_in_language,
)
from repro.patterns import tree_match
from repro.patterns.tree_ast import TreeAtom, TreePattern
from repro.patterns.tree_match import _TreeMatcher, iter_tree_matches
from repro.predicates import attr, pred, sym
from repro.api import Session
from repro.query import Q, evaluate
from repro.storage import Database
from repro.workloads import by_citizen_or_name, random_family_tree, random_labeled_tree

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
        # The walk still meets the child signature: ``?(b)`` enters the
        # matcher only at the two nodes with a ``b`` child.
        candidates = {"^a(?*)": 1, "?(b)": 2}.get(text, tree.size())
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


class TestChildSignature:
    """A candidate without a child the pattern requires is rejected in
    the candidate loop, before the matcher, whatever supplied it."""

    def test_only_candidates_with_the_required_children_enter(self, monkeypatch):
        tree = parse_tree("r(d(e(h) x) d(e(x)) d(x e(h)) d(e) e(h))")
        pattern = parse_tree_pattern("d(?* e(?* h ?*) ?*)")
        assert pattern.required_children() == ((sym("e"), ((sym("h"), ()),)),)
        want = [m.key() for m in find_tree_matches(pattern, tree, context=untabled(pattern, tree))]
        entered = root_entries(monkeypatch)
        for roots in (None, [n for n in tree.nodes() if n.value == "d"]):
            entered.clear()
            assert [m.key() for m in find_tree_matches(pattern, tree, roots=roots)] == want
            assert [str(n.children[0].value) + str(len(n.children)) for n in entered] == [
                "e2", "x2"
            ]

    @pytest.mark.parametrize(
        "text, signature",
        [
            ("a(b ?* c | c b)", "b, c"),  # an alternation keeps what all branches need
            ("a(b | c(d))", ""),
            ("a(b+ c+)", "b, c"),
            ("a(?(c) !d ?*)", "?(c)"),  # a prune requires nothing, a bare ? only its own
            ("a(b* @1 [[c | d]])", ""),  # star, point, tree union: nothing
            ("a(b(c(d)))", "b(c)"),  # two levels down
            ("[[a(b @1)]] .@1 c", ""),  # a root that is not an atom
            ("[[a(b @1)]]+@1", ""),  # a vertical closure
        ],
    )
    def test_required_children(self, text, signature):
        from repro.patterns.tree_match import _describe_signature

        assert _describe_signature(parse_tree_pattern(text).required_children()) == signature

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_an_armed_depth_limit_trips_as_the_walk_does(self, depth):
        """Rejecting ``d(x)`` unentered would skip the trip the walk down
        to its ``e`` child raises: under a depth limit the filter is off."""
        tree = parse_tree("r(d(x) d(e(h)))")
        pattern = parse_tree_pattern("d(?* e(?* h ?*) ?*)")
        errors = []
        for context in (None, untabled(pattern, tree)):
            with query_context.entered(Budget(max_backtrack_depth=depth).arm):
                with pytest.raises(ResourceExhaustedError) as info:
                    find_tree_matches(pattern, tree, context=context)
            error = info.value
            errors.append((error.limit_name, error.spent, error.usage["steps"]))
        assert errors[0] == errors[1]
        assert errors[0][0] == "max_backtrack_depth"

    def test_a_wide_rejected_node_trips_a_depth_limit_as_the_walk_does(self):
        """The walk's depth through ``?*`` grows with the fan-out, so no
        pattern-only depth makes skipping the walk safe."""
        tree = AquaTree.build("d", [AquaTree.leaf("x") for _ in range(30)])
        pattern = parse_tree_pattern("d(?* e ?*)")
        for context in (None, untabled(pattern, tree)):
            with query_context.entered(Budget(max_backtrack_depth=20).arm):
                with pytest.raises(ResourceExhaustedError):
                    find_tree_matches(pattern, tree, context=context)


class TestProbedRoots:
    def test_probe_roots_arrive_in_preorder_and_lay_out_nothing(self):
        """Two anchors' buckets merge on their posted positions: the
        matcher is handed preordered roots and sorts nothing."""
        from repro.optimizer.anchors import probe_anchor_roots

        tree = random_labeled_tree(300, "abcdef", seed=4, max_arity=3)
        pattern = parse_tree_pattern("b(?* c ?*) | c(?* b ?*)")
        want = [m.key() for m in find_tree_matches(pattern, tree, context=untabled(pattern, tree))]
        assert len(want) > 1 and tree._layout is None
        roots = probe_anchor_roots(scan_db(tree), tree, pattern.root_predicates())
        assert roots == [n for n in tree.nodes() if n.value in ("b", "c")]
        got = iter_tree_matches(pattern, tree, roots=roots, preordered=True)
        assert [m.key() for m in got] == want
        assert tree._layout is None
        # Caller-supplied roots are still sorted (which lays the tree out).
        got = find_tree_matches(pattern, tree, roots=roots[::-1])
        assert [m.key() for m in got] == want


class TestPatternFacts:
    def test_facts_are_derived_once_per_compiled_pattern(self, monkeypatch):
        from repro.patterns import tree_ast

        tree, pattern = family(planted=2), figure4()
        want = [m.key() for m in find_tree_matches(pattern, tree)]
        calls = []
        for owner, name in (
            (tree_ast.TreePatternNode, "walk"),
            (tree_ast.ChildPatternNode, "walk"),
            (TreePattern, "has_vertical_closure"),
            (TreePattern, "atom_predicates"),
        ):
            original = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, _o=original, _n=name: calls.append(_n) or _o(*a)
            )
        for _ in range(300):
            assert [m.key() for m in find_tree_matches(pattern, tree)] == want
        assert calls == []
        fresh = figure4()
        find_tree_matches(fresh, tree)
        assert calls  # a fresh pattern derives its facts, once
        derived = len(calls)
        for _ in range(3):
            find_tree_matches(fresh, tree)
        assert len(calls) == derived

    def test_racing_first_reads_publish_equal_facts(self):
        import threading

        pattern = parse_tree_pattern("d(?* e(?* h ?*) ?*) | [[a(b @1)]] .@1 c(d e)")
        barrier = threading.Barrier(8)
        seen = []

        def race() -> None:
            barrier.wait()
            seen.append(pattern.facts())

        threads = [threading.Thread(target=race) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 8 and all(facts == seen[0] for facts in seen)
        assert seen[0] == TreePattern(pattern.body).facts()
        assert pattern.facts() in seen


def scan_query(text: str = "z | y(?*)"):
    return Q.root("T").sub_select(text).build()


def scan_db(tree: AquaTree | None = None) -> Database:
    db = Database()
    db.bind_root("T", tree if tree is not None else parse_tree("a(b(c d) e(f g(h)) i)"))
    return db


def trip(db, query, budget, reference: bool):
    with pytest.raises(ResourceExhaustedError) as info:
        if reference:
            with untabled_scope():
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
        for scope in (untabled_scope("memo"), untabled_scope()):
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
        with query_context.entered(bindings={"who": "Brazil"}):
            assert len(find_tree_matches(pattern, tree)) == 1

    def test_unbound_param_in_a_child_atom_raises_the_same_error(self):
        pattern, tree = child_param_pattern(), family()
        messages = []
        for context in (None, untabled(pattern, tree)):
            with pytest.raises(QueryError) as info:
                find_tree_matches(pattern, tree, context=context)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "unbound query parameter $who" in messages[0]

    def test_each_binding_of_a_child_param_gets_its_own_answer(self):
        """A child atom's compiled test reads ``$who`` once per matcher,
        so one match scope — one shared context — serves two bindings."""
        pattern, tree = child_param_pattern(), family()
        answers = {}
        with query_context.entered(registry=MatchContextRegistry):
            for who in ("Chile", "Peru"):
                with query_context.entered(bindings={"who": who}):
                    got = [m.key() for m in find_tree_matches(pattern, tree)]
                    want = find_tree_matches(pattern, tree, context=untabled(pattern, tree))
                assert got == [m.key() for m in want]
                answers[who] = got
        assert len(answers["Chile"]) == 43 and len(answers["Peru"]) == 32
        assert not set(answers["Chile"]) & set(answers["Peru"])


def child_param_pattern():
    """French parents with a child whose citizenship is ``$who``."""
    return parse_tree_pattern("France(!?* {citizen = $who} !?*)", resolver=by_citizen_or_name)


def equal_postings(published, fresh) -> bool:
    return (published.nodes, published.points, published.exact) == (
        fresh.nodes, fresh.points, fresh.exact
    ) and {k: (list(p), n) for k, (p, n) in published.buckets.items()} == {
        k: (list(p), n) for k, (p, n) in fresh.buckets.items()
    }


@pytest.mark.usefixtures("posting_scans")
class TestPostingsSource:
    """A scan whose root first-set is one equality is served from the
    tree's postings: built by the first such scan, kept on the tree, and
    shared with the node index."""

    def test_warm_scan_tests_only_the_posted_nodes(self, monkeypatch):
        tree, pattern = family(planted=2), figure4()
        want = [m.key() for m in find_tree_matches(pattern, tree)]  # cold: builds
        assert tree._postings["citizen"].exact
        tested = []
        first_set = pattern.root_first_set()
        spied = first_set._replace(accepts=lambda v: tested.append(v) or first_set.accepts(v))
        monkeypatch.setattr(TreePattern, "root_first_set", lambda self: spied)
        assert [m.key() for m in find_tree_matches(pattern, tree)] == want
        assert len(tested) == sum(v.citizen == "Brazil" for v in tree.values()) == 2

    def test_a_scan_and_a_probe_share_one_map(self):
        from repro.storage.stats import Instrumentation
        from repro.workloads.family import BRAZIL

        tree, pattern = family(), figure4()
        sink = Instrumentation()
        with query_context.entered(receiver=sink):
            matches = find_tree_matches(pattern, tree)
            nodes, used = Database().tree_index(tree, ["citizen"]).candidate_nodes(BRAZIL)
        assert used and nodes == [m.root for m in matches]
        assert sink["index_builds"] == 1
        assert tree._layout is None

    def test_racing_first_scans_and_probes_publish_one_equal_map(self):
        import threading

        from repro.core.aqua_tree import TreePostings
        from repro.workloads.family import BRAZIL

        tree, pattern = family(planted=3), figure4()
        want = [m.key() for m in find_tree_matches(pattern, tree, context=untabled(pattern, tree))]
        brazilians = [n for n in tree.nodes() if n.value.citizen == "Brazil"]
        index = Database().tree_index(tree, ["citizen"])
        barrier = threading.Barrier(8)
        scans, probes = [], []

        def race(turn: int) -> None:
            barrier.wait()
            for step in (turn, turn + 1):  # half the threads scan first
                if step % 2:
                    scans.append([m.key() for m in find_tree_matches(pattern, tree)])
                else:
                    probes.append(index.candidate_nodes(BRAZIL))

        threads = [threading.Thread(target=race, args=(turn,)) for turn in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often, so builds interleave
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert scans == [want] * 8
        assert probes == [(brazilians, True)] * 8
        assert equal_postings(tree._postings["citizen"], TreePostings(tree.root, "citizen"))

    @pytest.mark.parametrize(
        "budget",
        [Budget(max_steps=300), Budget(max_nodes_scanned=200)],
        ids=["max_steps", "max_nodes_scanned"],
    )
    def test_counted_limits_trip_at_the_same_node_cold_and_warm(self, budget):
        db = scan_db(family(planted=3))
        query = Q.root("T").sub_select(figure4()).build()
        session = Session(db)

        def tripped():
            with pytest.raises(ResourceExhaustedError) as info:
                session.query(query, optimize=False, budget=budget)
            return info.value

        cold = tripped()
        tree = db.root("T")
        assert tree._postings is None  # a counted scan walks and builds nothing
        session.query(query, optimize=False)
        assert tree._postings is not None
        warm = tripped()
        assert (warm.limit_name, warm.seam, warm.spent) == (cold.limit_name, cold.seam, cold.spent)
        usage = ("steps", "nodes_scanned")
        assert [warm.usage[k] for k in usage] == [cold.usage[k] for k in usage]

    def test_seeded_fault_fires_at_the_same_candidate_cold_and_warm(self):
        tree, pattern = family(planted=3), figure4()

        def fired():
            plan = faults.FaultPlan(
                [faults.FaultRule("matcher_step", "error", probability=0.01)], seed=5
            )
            with faults.injected(plan), pytest.raises(InjectedFaultError) as info:
                find_tree_matches(pattern, tree)
            return info.value.hit, plan.hits["matcher_step"]

        cold = fired()
        assert tree._postings is None  # an armed plan walks and builds nothing
        find_tree_matches(pattern, tree)
        assert tree._postings is not None
        assert fired() == cold


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

    def test_compiled_child_tests_leave_no_matcher_behind(self):
        gc.collect()
        gc.disable()
        try:
            with query_context.entered(bindings={"who": "Chile"}):
                assert find_tree_matches(child_param_pattern(), family())
                assert find_tree_matches(child_param_pattern(), family(), limit=1)
            alive = [o for o in gc.get_objects() if isinstance(o, _TreeMatcher)]
        finally:
            gc.enable()
        assert alive == []


def test_one_match_loop_behind_the_seam() -> None:
    """Three candidate sources, one ``match_node(pattern.body`` call site
    in ``iter_tree_matches``."""
    assert inspect.getsource(iter_tree_matches).count("match_node(pattern.body") == 1
    for source in (tree_match._first_set_scan, tree_match._candidate_roots):
        assert "match_node(" not in inspect.getsource(source)
