"""A one-atom pattern's candidates are its matches.

Paper §4 has ``split`` "use an index to efficiently locate all nodes in
T that match d": for a pattern that is one childless atom, the node the
candidate source hands over and its test passes *is* the match — the
node kept, every child pruned.  ``iter_tree_matches`` hands it over
without entering ``match_node`` when the context is tabled and the
pattern carries no ``⊥``.  Two oracles pin that it changes nothing:

* the same tabled context with the hand-over switched off (the matcher
  leg) — every counter, bitmap traffic included;
* the null-table context (``tests/reference.py``), which keeps the
  matcher — answers, order, counters and trips.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import context as query_context
from repro.core.aqua_tree import AquaTree, TreeNode
from repro.core.concat import ConcatPoint
from repro.core.identity import Cell, Record
from repro.errors import ResourceExhaustedError
from repro.guardrails import Budget
from repro.optimizer.anchors import probe_anchor_roots
from repro.patterns import parse_tree_pattern, tree_match
from repro.patterns.tree_ast import TreeAtom, TreePattern
from repro.predicates import attr, pred
from repro.query import Q, evaluate
from repro.query.interpreter import evaluate_with_metrics
from repro.storage import Database
from repro.storage.stats import Instrumentation

from ..reference import untabled, untabled_scope

TAGS = "pqr"
LANGS = ("en", "de")


@st.composite
def documents(draw) -> AquaTree:
    """A random tree of ``Record(tag, lang)`` payloads, some NULL leaves."""
    size = draw(st.integers(1, 30))
    nodes = [
        TreeNode(Cell(Record(tag=draw(st.sampled_from(TAGS)), lang=draw(st.sampled_from(LANGS)))))
        for _ in range(size)
    ]
    for index in range(1, size):
        nodes[draw(st.integers(0, index - 1))].children.append(nodes[index])
    for _ in range(draw(st.integers(0, 3))):
        nodes[draw(st.integers(0, size - 1))].children.append(TreeNode(ConcatPoint("1")))
    return AquaTree(nodes[0])


def lone_atom(kind: str, tag: str) -> TreePattern:
    """One childless atom, chosen so each candidate source serves it."""
    predicates = {
        "posting": attr("tag") == tag,  # one equality: the postings
        "residual": (attr("tag") == tag) & (attr("lang") == "en"),  # postings + re-test
        "walk": attr("tag") > tag,  # no equality: the first-set walk
        "every-node": None,  # a bare ?: every node, NULLs included
        "top": attr("tag") == tag,  # ⊤: the root alone
        "probe": attr("tag") == tag,  # node-index probe roots
        "opaque": pred(lambda v, t=tag: v.tag == t, f"is_{tag}"),
    }
    if kind == "every-node":
        return parse_tree_pattern("?")
    return TreePattern(TreeAtom(predicates[kind]), root_anchor=kind == "top")


KINDS = ("posting", "residual", "walk", "every-node", "top", "probe", "opaque")


@st.composite
def scan_cases(draw) -> tuple:
    """A tree, a lone-atom kind and tag, and a step limit (or none) drawn
    within the tree's candidate count, so a limit trips inside the scan —
    often in the first-set walk's rejections."""
    tree = draw(documents())
    steps = draw(st.one_of(st.none(), st.integers(1, tree.size())))
    return tree, draw(st.sampled_from(KINDS)), draw(st.sampled_from(TAGS)), steps


def two_rejected_nodes() -> AquaTree:
    """Two ``p`` nodes: a ``{tag = 'q'}`` walk rejects both."""
    return AquaTree(TreeNode(Cell(Record(tag="p")), [TreeNode(Cell(Record(tag="p")))]))


def scan(pattern, tree, context=None, budget=None, roots=None):
    """``(match keys, candidate charges, counters, trip)`` of one scan."""
    sink, charged, keys, trip = Instrumentation(), [], [], None
    with query_context.entered(budget.arm if budget else None, receiver=sink):
        try:
            for match in tree_match.iter_tree_matches(
                pattern,
                tree,
                roots=roots,
                preordered=roots is not None,
                on_candidate=charged.append,
                context=context,
            ):
                keys.append(match.key())
        except ResourceExhaustedError as error:
            trip = (error.limit_name, error.spent, error.seam, error.usage["steps"])
    return keys, sum(charged), sink.snapshot(), trip


def probe_roots(kind, pattern, tree):
    if kind != "probe":
        return None
    return probe_anchor_roots(Database(), tree, pattern.root_predicates())


@pytest.mark.usefixtures("posting_scans")
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=scan_cases())
@example(case=(two_rejected_nodes(), "posting", "q", 1))
def test_hand_over_equals_the_matcher(monkeypatch, case):
    tree, kind, tag, steps = case
    pattern = lone_atom(kind, tag)
    roots = probe_roots(kind, pattern, tree)
    budget = None if steps is None else Budget(max_steps=steps)
    scan(pattern, tree, roots=roots)  # builds the postings a scan reads
    got = scan(pattern, tree, budget=budget, roots=roots)
    with monkeypatch.context() as patch:
        patch.setattr(tree_match, "_lone_atom", lambda pattern, matcher: None)
        assert scan(pattern, tree, budget=budget, roots=roots) == got
    if kind == "opaque":  # the null table keeps no predicate bitmap
        return
    want = scan(pattern, tree, untabled(pattern, tree), budget=budget, roots=roots)
    assert got == want


def test_a_step_trip_in_the_first_set_walk_counts_what_the_matcher_counts():
    """The walk ticks a rejected node's step before it charges its test,
    as the matcher does, so a trip there reads the same counters."""
    pattern = parse_tree_pattern("{tag = 'q'}")
    tree = two_rejected_nodes()
    budget = Budget(max_steps=1)
    got = scan(pattern, tree, budget=budget)
    want = scan(pattern, tree, untabled(pattern, tree), budget=budget)
    assert got[3] == want[3] == ("max_steps", 2, "tree matcher", 2)
    assert got[2]["predicate_evals"] == want[2]["predicate_evals"] == 1
    assert got == want


@pytest.mark.usefixtures("posting_scans")
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    tree=documents(),
    kind=st.sampled_from(("posting", "residual", "walk", "top")),
    tag=st.sampled_from(TAGS),
    limit=st.one_of(st.none(), st.integers(0, 6)),
)
def test_queries_equal_the_untabled_scope(tree, kind, tag, limit):
    """Answers, their order, the sink's totals, every operator's counters
    and a ``max_results`` trip's row are the reference's."""
    pattern = lone_atom(kind, tag)
    query = Q.root("T").sub_select(pattern).build()
    budget = None if limit is None else Budget(max_results=limit)
    legs = []
    for scope in (untabled_scope("memo"), untabled_scope()):
        db = Database()
        db.bind_root("T", tree)
        evaluate(query, db)  # builds the postings a scan reads
        db.stats.reset()
        with scope:
            try:
                result, metrics = evaluate_with_metrics(query, db, budget=budget)
                outcome = (list(result), {p: o.counters for p, o in metrics.operators.items()})
            except ResourceExhaustedError as error:
                outcome = (error.limit_name, error.spent, error.plan_path, error.operator)
        legs.append((outcome, db.stats.snapshot()))
    assert legs[0] == legs[1]


@pytest.mark.usefixtures("posting_scans")
def test_a_one_atom_path_never_enters_the_atom_matcher(monkeypatch):
    from repro.docstore import Document, naive_path, to_html

    text = (
        "<html><body><article lang='en'><p>a <em>b</em></p><p>c</p></article>"
        "<nav><a href='x'>d</a></nav><p>e</p></body></html>"
    )
    entered = []
    original = tree_match._NODE[TreeAtom]
    monkeypatch.setitem(
        tree_match._NODE,
        TreeAtom,
        lambda *args: entered.append(args[2]) or original(*args),
    )
    doc = Document.from_text(text, "html")
    for path in ("//p", "//text()", "//*"):
        got = sorted(to_html(member) for member in doc.path(path))
        assert got == sorted(to_html(member) for member in naive_path(doc.tree, path))
    assert entered == []
    # A pattern with children still goes through the matcher.
    db = Database()
    db.bind_root("T", doc.tree)
    assert evaluate(Q.root("T").sub_select('{tag = "p"}(?*)').build(), db)
    assert entered


def test_leaf_anchor_and_the_null_table_keep_the_matcher(monkeypatch):
    """``⊥`` turns an interior node's match away, so the matcher decides."""
    calls = Counter()
    original = tree_match._NODE[TreeAtom]

    def spy(*args):
        calls[args[0].context.tabled] += 1
        return original(*args)

    monkeypatch.setitem(tree_match._NODE, TreeAtom, spy)
    tree = AquaTree.from_nested(("a", [("b", []), "a"]))
    anchored = parse_tree_pattern("a$")
    assert [m.root.value for m in tree_match.find_tree_matches(anchored, tree)] == ["a"]
    pattern = parse_tree_pattern("a")
    assert len(tree_match.find_tree_matches(pattern, tree, context=untabled(pattern, tree))) == 2
    assert calls == {True: 2, False: 3}


def test_a_handed_over_match_builds_its_shape_on_first_read():
    tree = AquaTree.from_nested(("a", [("b", []), "c"]))
    pattern = parse_tree_pattern("a")
    (match,) = tree_match.find_tree_matches(pattern, tree)
    assert match._shape is None
    (reference,) = tree_match.find_tree_matches(pattern, tree, context=untabled(pattern, tree))
    assert match.key() == reference.key()
    assert match.shape == reference.shape
    assert [str(t) for t in match.pruned_subtrees()] == [
        str(t) for t in reference.pruned_subtrees()
    ]
