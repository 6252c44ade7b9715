"""The matcher's packrat tables (ISSUE 4): bitmaps, tables, sharing, budgets.

``"backtrack"`` in :func:`match_keys` is the reference: the same matcher
handed a null-table context.
"""

import pytest

from repro import context as query_context
from repro import guardrails
from repro.algebra import split_pieces
from repro.core import AquaTree
from repro.errors import ResourceExhaustedError
from repro.patterns import (
    MatchContextRegistry,
    TreeMatchContext,
    find_tree_matches,
    parse_tree_pattern,
    tree_in_language,
)
from repro.patterns.tree_memo import WIDE_CHILD_LIST, PredicateBitmap
from repro.predicates import pred, sym
from repro.storage.stats import Instrumentation
from repro.workloads import (
    by_citizen_or_name,
    by_element,
    element,
    random_family_tree,
    random_rna_structure,
)

from ..reference import untabled, untabled_scope

LADDER = "[[S(B(@))]]+@ .@ S(H)"
#: Closure-free, four sibling closures, and ``z`` never occurs: the
#: backtracker re-derives each suffix once per placement of the earlier
#: parts — O(k⁴) over k children — before failing.
DEAD_END = "a(?* b ?* c ?* b ?* z ?*)"


def fan(width: int) -> AquaTree:
    """``a`` over ``width`` leaves cycling b, c, x."""
    return AquaTree.build("a", [AquaTree.leaf("bcx"[i % 3]) for i in range(width)])


def z_first_fan(width: int) -> AquaTree:
    """:func:`fan` with a ``z`` first: ``a`` has every child DEAD_END
    requires, so its child signature passes — yet the one ``z`` precedes
    every ``b``, so the match still dead-ends after trying each placement."""
    return AquaTree.build("a", [AquaTree.leaf(c) for c in "z" + ("bcx" * width)[: width - 1]])


def chain(depth: int) -> AquaTree:
    """``S(B(S(B(...S(H)...))))`` — the CLAIM-KLEENE ladder workload."""
    tree = AquaTree.build(element("S"), [AquaTree.leaf(element("H"))])
    for _ in range(depth):
        tree = AquaTree.build(element("S"), [AquaTree.build(element("B"), [tree])])
    return tree


def match_keys(pattern, tree, engine):
    context = untabled(pattern, tree) if engine == "backtrack" else None
    return [m.key() for m in find_tree_matches(pattern, tree, context=context)]


def closure_ladder():
    """The ladder closure over a depth-64 chain and a 1 552-node RNA tree."""
    pattern = parse_tree_pattern(LADDER, resolver=by_element)
    trees = (chain(64), random_rna_structure(1500, seed=7))
    return lambda: [
        [m.key() for m in find_tree_matches(pattern, tree)] for tree in trees
    ]


def fig4_split():
    """Figure 4's split over a 2 000-node family tree: closure-free, narrow."""
    family = random_family_tree(2000, seed=8, planted_matches=8)
    return lambda: len(
        split_pieces("Brazil(!?* USA !?*)", family, resolver=by_citizen_or_name)
    )


def wide_dead_end():
    pattern, tree = parse_tree_pattern(DEAD_END), z_first_fan(80)
    return lambda: [m.key() for m in find_tree_matches(pattern, tree)]


class TestEngineKnob:
    def test_memo_is_the_default(self, monkeypatch):
        """There is no knob left: a bare call tables a closure pattern,
        whatever the retired variable holds."""
        monkeypatch.setenv("AQUA_TREE_ENGINE", "backtrack")
        stats = Instrumentation()
        with query_context.entered(receiver=stats):
            find_tree_matches(parse_tree_pattern(LADDER, resolver=by_element), chain(8))
        assert stats["memo_misses"] > 0 and stats["bitmap_fills"] > 0


class TestEquivalenceAndSpeedup:
    def test_identical_match_stream_on_the_ladder(self):
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        tree = chain(24)
        assert match_keys(pattern, tree, "memo") == match_keys(
            pattern, tree, "backtrack"
        )

    def test_memo_cuts_matcher_steps_10x_on_closure_heavy_workload(self):
        """The acceptance criterion: ≥10x fewer steps, bit-identical
        results.  The ladder suffix query is quadratic under the
        backtracker (every suffix re-derives the shared tail) and linear
        under the packrat tables."""
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        tree = chain(64)
        steps = {}
        keys = {}
        for engine in ("memo", "backtrack"):
            stats = Instrumentation()
            with query_context.entered(receiver=stats):
                keys[engine] = match_keys(pattern, tree, engine)
            steps[engine] = stats["backtrack_steps"]
        assert keys["memo"] == keys["backtrack"]
        assert steps["backtrack"] >= 10 * steps["memo"]

    @pytest.mark.parametrize(
        "workload,untabled_steps,default_steps,table_lookups",
        [
            # CLAIM-MEMO: tables everywhere under the closure; none where no
            # second request can occur; child-sequence tables at 80 children.
            (closure_ladder, 20029, 7207, (1627, 5009)),
            (fig4_split, 2024, 2024, (0, 0)),
            (wide_dead_end, 144151, 701, (2977, 1103)),
        ],
        ids=["closure_ladder", "fig4_split", "wide_dead_end"],
    )
    def test_claim_memo_step_counts(
        self, workload, untabled_steps, default_steps, table_lookups
    ):
        """Matcher steps, exactly, default scope vs the null-table scope,
        and the default leg's table (hits, misses).  The step counts are
        those the experiment harness printed at the commit that retired
        it; a moved count is a changed table gate."""
        run = workload()
        stats = {"backtrack": Instrumentation(), "memo": Instrumentation()}
        answers = {}
        for engine, sink in stats.items():
            with untabled_scope(engine=engine), query_context.entered(receiver=sink):
                answers[engine] = run()
        assert answers["memo"] == answers["backtrack"]
        assert stats["backtrack"]["backtrack_steps"] == untabled_steps
        assert stats["memo"]["backtrack_steps"] == default_steps
        assert (stats["memo"]["memo_hits"], stats["memo"]["memo_misses"]) == table_lookups

    def test_prune_fanout_agrees(self):
        fan = AquaTree.build(
            element("M"), [AquaTree.leaf(element("S")) for _ in range(8)]
        )
        pattern = parse_tree_pattern("M(!?* S !?*)", resolver=by_element)
        assert match_keys(pattern, fan, "memo") == match_keys(
            pattern, fan, "backtrack"
        )

    def test_leaf_anchor_with_prunes_agrees(self):
        tree = chain(6)
        for source in ("S(B(@))$", "[[S(!B(@))]]+@ .@ S(H)$", "b(d e)$"):
            pattern = parse_tree_pattern(source, resolver=by_element)
            assert match_keys(pattern, tree, "memo") == match_keys(
                pattern, tree, "backtrack"
            )

    def test_tree_in_language_agrees(self):
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        for depth in (0, 1, 3):
            tree = chain(depth)
            assert tree_in_language(pattern, tree) == tree_in_language(
                pattern, tree, context=untabled(pattern, tree)
            )


class TestMemoGate:
    """Tables are consulted only where a second request can occur."""

    def test_closure_free_narrow_match_touches_no_table(self):
        pattern = parse_tree_pattern(DEAD_END)
        tree = fan(WIDE_CHILD_LIST - 1)
        context = TreeMatchContext(pattern, tree)
        assert not context.closure
        stats = Instrumentation()
        with query_context.entered(receiver=stats):
            keys = [m.key() for m in find_tree_matches(pattern, tree, context=context)]
        assert keys == match_keys(pattern, tree, "backtrack")
        assert stats["backtrack_steps"] > 0
        assert stats["memo_hits"] == stats["memo_misses"] == 0
        assert stats["bitmap_fills"] == stats["bitmap_hits"] == 0
        # The tree was never laid out, and no bitmap was ever built.
        assert context._pre is None and context.bitmap is None
        assert tree._layout is None

    def test_wide_child_list_engages_the_sequence_tables(self):
        pattern = parse_tree_pattern(DEAD_END)
        tree = z_first_fan(WIDE_CHILD_LIST)
        stats = Instrumentation()
        with query_context.entered(receiver=stats):
            assert match_keys(pattern, tree, "memo") == []
        assert stats["memo_misses"] > 0 and stats["memo_hits"] > 0
        assert stats["bitmap_fills"] == 0  # declarative predicates: direct

    def test_wide_dead_end_stays_inside_a_memo_sized_budget(self):
        """80 children: ~21k budget steps tabled, ~299k untabled — the
        fan-out gate cannot go without this tripping."""
        pattern = parse_tree_pattern(DEAD_END)
        tree = z_first_fan(80)
        with query_context.entered(guardrails.Budget(max_steps=40_000).arm):
            assert find_tree_matches(pattern, tree) == []
        with pytest.raises(ResourceExhaustedError):
            with query_context.entered(guardrails.Budget(max_steps=40_000).arm):
                find_tree_matches(pattern, tree, context=untabled(pattern, tree))

    def test_wide_dead_end_without_the_required_child_is_rejected_in_one_step(self):
        """The twin of the sequence-table tests: under a plain ``fan`` no
        child is a ``z``, so the child signature rejects ``a`` before the
        matcher — one step and the 83 child tests it took to find b and
        c and miss z — where the null-table walk pays 151 459 steps."""
        pattern, tree = parse_tree_pattern(DEAD_END), fan(80)
        counters = ("backtrack_steps", "predicate_evals", "memo_hits", "memo_misses")
        stats = {"backtrack": Instrumentation(), "memo": Instrumentation()}
        for engine, sink in stats.items():
            with query_context.entered(receiver=sink):
                assert match_keys(pattern, AquaTree(tree.root), engine) == []
        # The 80 leaves are the first-set's, charged alike on both legs.
        assert [stats["memo"][name] for name in counters] == [1 + 80, 83 + 80, 0, 0]
        assert stats["backtrack"]["backtrack_steps"] == 151459

    def test_closure_pattern_tables_narrow_lists_too(self):
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        context = TreeMatchContext(pattern, chain(4))
        assert context.closure
        stats = Instrumentation()
        with query_context.entered(receiver=stats):
            find_tree_matches(pattern, context.tree, context=context)
        assert stats["memo_misses"] > 0 and stats["bitmap_fills"] > 0

    def test_opaque_predicate_still_runs_at_most_once_per_node(self):
        calls: list[str] = []
        opaque = {
            symbol: pred(lambda v, s=symbol: not calls.append(v) and v == s, symbol)
            for symbol in "bc"
        }
        pattern = parse_tree_pattern(
            "a(?* b ?* c ?* b ?*)", resolver=lambda s: opaque.get(s) or sym(s)
        )
        tree = fan(9)  # narrow: the sequence tables stay out of it
        memo = match_keys(pattern, tree, "memo")
        evaluated = len(calls)
        assert evaluated <= 2 * 9  # two opaque predicates × nine children
        calls.clear()
        assert match_keys(pattern, tree, "backtrack") == memo
        assert len(calls) > evaluated  # the saved work


class TestPredicateBitmap:
    def test_each_predicate_runs_at_most_once_per_node(self):
        counts: dict[str, int] = {}
        cache: dict[str, object] = {}

        def resolver(symbol):
            if symbol not in cache:
                base = by_element(symbol)

                def fn(value, base=base, symbol=symbol):
                    counts[symbol] = counts.get(symbol, 0) + 1
                    return base(value)

                cache[symbol] = pred(fn, symbol)
            return cache[symbol]

        pattern = parse_tree_pattern(LADDER, resolver=resolver)
        tree = chain(16)
        find_tree_matches(pattern, tree)
        nodes = tree.size()
        assert counts  # the predicates did run
        assert all(count <= nodes for count in counts.values())

        baseline: dict[str, int] = {}
        counts_backtrack = baseline
        cache.clear()
        counts.clear()
        # Same resolver closure machinery, fresh counters, no tables.
        pattern = parse_tree_pattern(LADDER, resolver=resolver)
        find_tree_matches(pattern, tree, context=untabled(pattern, tree))
        counts_backtrack.update(counts)
        assert sum(counts_backtrack.values()) > nodes  # the saved work

    def test_unlabeled_node_evaluates_without_caching(self):
        # A bitmap over one tree's layout, asked about another tree's node.
        bitmap = PredicateBitmap(chain(2).layout())
        calls = []
        probe = pred(lambda v: not calls.append(v), "probe")
        node = chain(2).root
        assert bitmap.outcome(probe, node) == (True, True)
        assert bitmap.outcome(probe, node) == (True, True)
        assert len(calls) == 2  # never cached: every call is a fill

    def test_reset_clears_planes_and_counters(self):
        """Planes live and die with their bitmap — there is nothing to
        reset: a second bitmap over the same layout starts cold."""
        tree = chain(2)
        s_pred = by_element("S")
        bitmap = PredicateBitmap(tree.layout())
        assert bitmap.outcome(s_pred, tree.root) == (True, True)  # a fill
        assert bitmap.outcome(s_pred, tree.root) == (True, False)  # a hit
        fresh = PredicateBitmap(tree.layout())
        assert fresh.outcome(s_pred, tree.root) == (True, True)


class TestContextSharing:
    def test_explicit_context_replays_across_calls(self):
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        tree = chain(12)
        context = TreeMatchContext(pattern, tree)
        first = [m.key() for m in find_tree_matches(pattern, tree, context=context)]
        stats = Instrumentation()
        with query_context.entered(receiver=stats):
            second = [
                m.key() for m in find_tree_matches(pattern, tree, context=context)
            ]
        assert first == second
        # The whole second run is table replays and bitmap hits.
        assert stats["memo_hits"] > 0
        assert stats["memo_misses"] == 0
        assert stats["bitmap_fills"] == 0
        assert stats["predicate_evals"] == 0

    def test_match_scope_shares_one_context_per_pair(self):
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        tree = chain(12)
        assert query_context.current() is None
        with query_context.entered(registry=MatchContextRegistry) as run:
            registry = run.registry
            assert isinstance(registry, MatchContextRegistry)
            find_tree_matches(pattern, tree)
            cells = registry.memo_cells()
            assert cells > 0
            stats = Instrumentation()
            with query_context.entered(receiver=stats):
                find_tree_matches(pattern, tree)
            assert stats["memo_misses"] == 0  # served by the shared context
            assert registry.memo_cells() == cells
        assert query_context.current() is None

    def test_nested_scopes_reuse_the_outer_registry(self):
        with query_context.entered(registry=MatchContextRegistry) as outer:
            registry = outer.registry
            with query_context.entered(registry=MatchContextRegistry) as inner:
                assert inner is outer and inner.registry is registry

    def test_match_scope_resets_database_bitmaps(self):
        """Outcome planes belong to the scope's registry: a second scope
        starts cold, so two identical queries report identical fills."""
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        tree = chain(4)
        fills = []
        for _ in range(2):
            stats = Instrumentation()
            with query_context.entered(registry=MatchContextRegistry, receiver=stats):
                find_tree_matches(pattern, tree)
            fills.append(stats["bitmap_fills"])
        assert fills[0] == fills[1] > 0

    def test_early_exit_does_not_poison_the_tables(self):
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        tree = chain(12)
        context = TreeMatchContext(pattern, tree)
        partial = find_tree_matches(pattern, tree, limit=1, context=context)
        assert len(partial) == 1
        full = [m.key() for m in find_tree_matches(pattern, tree, context=context)]
        assert full == match_keys(pattern, tree, "backtrack")


class TestBudgets:
    def test_memo_stores_charge_the_step_budget(self):
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        tree = chain(32)
        budget = guardrails.Budget(max_steps=40)
        with pytest.raises(ResourceExhaustedError):
            with query_context.entered(budget.arm):
                find_tree_matches(pattern, tree)

    def test_generous_budget_unaffected(self):
        pattern = parse_tree_pattern(LADDER, resolver=by_element)
        tree = chain(8)
        with query_context.entered(guardrails.Budget(max_steps=100_000).arm):
            matches = find_tree_matches(pattern, tree)
        assert len(matches) == 8
