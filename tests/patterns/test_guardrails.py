"""Execution guardrails: budgets, cancellation, fault injection (ISSUE 2).

The backtracking matchers are worst-case exponential (paper footnote 3),
so these tests pit genuinely catastrophic inputs — a prune-closure over
alternatives that differ only in pruning, and a 1500-deep chain tree —
against small budgets and assert the engine *always* fails fast with a
structured :class:`ResourceExhaustedError`, never a raw
``RecursionError`` or a hang.
"""

import pytest

from repro import Session, context, faults, guardrails
from repro.core import make_tuple
from repro.core.aqua_tree import AquaTree, TreeNode
from repro.core.concat import ALPHA
from repro.core.identity import as_cell
from repro.core.notation import parse_list, parse_tree
from repro.errors import (
    AquaError,
    InjectedFaultError,
    QueryCancelledError,
    QueryError,
    ResourceExhaustedError,
)
from repro.guardrails import Budget, CancellationToken, Guard
from repro.patterns.list_match import find_list_matches
from repro.patterns.list_parser import parse_list_pattern
from repro.patterns.tree_match import find_tree_matches, tree_in_language
from repro.patterns.tree_parser import parse_tree_pattern
from repro.query import Q, evaluate, expr as E, parse_aql
from repro.query.interpreter import evaluate_with_metrics
from repro.storage import Database
from repro.workloads import by_pitch, random_labeled_tree, random_song

#: Exponentially many derivations: every ``a`` can be kept or pruned, and
#: the prune structure differs, so the backtracking matcher cannot
#: memoize (2^40 derivations without a budget).
CATASTROPHIC = "[[[!a|a]]*]"


def deep_chain(depth: int) -> AquaTree:
    """x(x(...x(y)...)) nested ``depth`` levels, built iteratively."""
    node = TreeNode(as_cell("y"))
    for _ in range(depth):
        node = TreeNode(as_cell("x"), [node])
    return AquaTree(node)


class TestStepBudget:
    def test_catastrophic_list_pattern_trips(self):
        pattern = parse_list_pattern(CATASTROPHIC)
        with pytest.raises(ResourceExhaustedError) as info:
            with context.entered(Budget(max_steps=20_000).arm):
                find_list_matches(pattern, list("a" * 40))
        exc = info.value
        assert exc.limit_name == "max_steps"
        assert exc.limit == 20_000
        assert exc.spent > 20_000
        assert exc.usage["steps"] == exc.spent

    def test_deep_tree_trips_before_recursion_error(self):
        """A 1500-deep chain would blow Python's stack; the step budget
        must unwind it first (each recursion level charges steps)."""
        pattern = parse_tree_pattern("[[x(@)]]*@ .@ y")
        tree = deep_chain(1500)
        with pytest.raises(ResourceExhaustedError):
            with context.entered(Budget(max_steps=300).arm):
                tree_in_language(pattern, tree)
        # With no budget armed the stack does run out — and that, too, is
        # the typed error, converted once at the matcher entry points.
        for match in (tree_in_language, find_tree_matches):
            with pytest.raises(ResourceExhaustedError) as info:
                match(pattern, tree)
            assert info.value.limit_name == "max_backtrack_depth"
            assert info.value.seam == "tree matcher"
        with pytest.raises(ResourceExhaustedError) as info:
            with context.entered(Budget(max_steps=10**9).arm):
                find_tree_matches(pattern, tree)
        assert info.value.usage["steps"] > 0

    def test_deep_chain_context_is_built_without_recursion(self):
        """The ``x`` piece of a match 10⁴ levels down is the whole chain
        with α at the bottom: ``all_anc`` and a context-reading ``split``
        answer through ``Session.query`` — or trip a budget with the
        typed error — where the recursive rebuild blew the stack."""
        depth = 10**4
        chain_db = Database()
        chain_db.bind_root("T", deep_chain(depth))
        session = Session(chain_db)
        (pair,) = session.query(Q.root("T").all_anc("y", make_tuple).build())
        assert (pair[0].size(), pair[1].to_notation()) == (depth, "y")
        assert pair[0].concat_points() == [ALPHA]
        sizes = Q.root("T").split("y", lambda x, y, z: (x.size(), y.size(), len(z)))
        assert list(session.query(sizes.build())) == [(depth, 1, 0)]
        every_level = Q.root("T").all_anc("x", make_tuple).build()
        with pytest.raises(ResourceExhaustedError) as info:
            session.query(every_level, budget=Budget(max_nodes_scanned=50), optimize=False)
        assert (info.value.limit_name, info.value.spent) == ("max_nodes_scanned", 51)

    def test_env_knob_reaches_bare_matcher_call(self, monkeypatch):
        """``find_list_matches`` arms its own guard from the environment,
        so limits apply even without going through the interpreter."""
        monkeypatch.setenv("AQUA_MAX_STEPS", "1000")
        pattern = parse_list_pattern(CATASTROPHIC)
        with pytest.raises(ResourceExhaustedError):
            find_list_matches(pattern, list("a" * 40))

    def test_trip_is_an_aqua_error(self):
        assert issubclass(ResourceExhaustedError, AquaError)

    def test_under_budget_results_are_unchanged(self):
        pattern = parse_list_pattern("[A??F]")
        values = list("GAXYFBACDFE")
        unbudgeted = find_list_matches(pattern, values)
        with context.entered(Budget(max_steps=1_000_000).arm):
            budgeted = find_list_matches(pattern, values)
        assert [m.span for m in budgeted] == [m.span for m in unbudgeted]


class TestDepthBudget:
    def test_backtrack_depth_trips_list_matcher(self):
        pattern = parse_list_pattern(CATASTROPHIC)
        with pytest.raises(ResourceExhaustedError) as info:
            with context.entered(Budget(max_backtrack_depth=5).arm):
                find_list_matches(pattern, list("a" * 40))
        assert info.value.limit_name == "max_backtrack_depth"

    def test_binding_cycle_trips_nullability_analysis(self):
        """The old magic ``depth > 64`` guard is now the budget knob: a
        concatenation-point binding cycle trips ResourceExhaustedError
        with the offending pattern rendered."""
        pattern = parse_tree_pattern("[[a(@)]]*@ .@ @")
        with pytest.raises(ResourceExhaustedError) as info:
            tree_in_language(pattern, parse_tree("a(a(b))"))
        exc = info.value
        assert exc.limit_name == "max_backtrack_depth"
        assert exc.limit == guardrails.DEFAULT_NULLABLE_DEPTH
        assert "max_backtrack_depth" in str(exc)
        assert exc.seam == "nullability analysis"

    def test_budget_overrides_nullable_depth(self):
        pattern = parse_tree_pattern("[[a(@)]]*@ .@ @")
        with pytest.raises(ResourceExhaustedError) as info:
            with context.entered(Budget(max_backtrack_depth=7).arm):
                tree_in_language(pattern, parse_tree("a(a(b))"))
        assert info.value.limit == 7

    def test_legitimate_nesting_below_limit_still_works(self):
        pattern = parse_tree_pattern("[[a(b c @)]]*@")
        assert tree_in_language(pattern, parse_tree("a(b c a(b c))"))


class TestDeadlineAndCancellation:
    def test_deadline_trips(self):
        pattern = parse_list_pattern(CATASTROPHIC)
        with pytest.raises(ResourceExhaustedError) as info:
            with context.entered(Budget(deadline_seconds=0.02).arm):
                find_list_matches(pattern, list("a" * 60))
        exc = info.value
        assert exc.limit_name == "deadline_seconds"
        assert exc.spent >= 0.02

    def test_cancelled_token_unwinds(self):
        token = CancellationToken()
        token.cancel()
        pattern = parse_list_pattern(CATASTROPHIC)
        with pytest.raises(QueryCancelledError):
            with context.entered(Budget(token=token).arm):
                find_list_matches(pattern, list("a" * 60))

    def test_uncancelled_token_is_harmless(self):
        token = CancellationToken()
        pattern = parse_list_pattern("[A??F]")
        with context.entered(Budget(token=token).arm):
            assert find_list_matches(pattern, list("GAXYF")) != []
        assert not token.cancelled


class TestInterpreterBudgets:
    @pytest.fixture()
    def db(self):
        db = Database()
        db.bind_root("T", parse_tree("a(b c d e)"))
        db.insert_many(range(10), extent="Nums")
        return db

    def test_nodes_scanned_trips_tree_scan(self, db):
        plan = parse_aql('root T | sub_select "b"')
        with pytest.raises(ResourceExhaustedError) as info:
            evaluate(plan, db, budget=Budget(max_nodes_scanned=2))
        exc = info.value
        assert exc.limit_name == "max_nodes_scanned"
        assert "scan" in exc.seam

    @pytest.mark.parametrize("optimize", [True, False])
    def test_nodes_scanned_trips_list_split_like_its_sub_select_twin(self, optimize):
        """List ``split`` runs through the same start sources as
        ``lsub_select`` and so pays the same positions: a budget the twin
        trips, ``lsplit`` trips too — at the same spend."""
        song = random_song(2_000, seed=0)
        melody_db = Database()
        melody_db.bind_root("song", song)
        melody_db.list_index(song, ["pitch"])
        session = Session(melody_db)
        twin = Q.root("song").lsub_select("[A??F]", resolver=by_pitch).build()
        split = Q.root("song").lsplit(
            "[A??F]", lambda x, y, z: (len(x), len(y), len(z)), resolver=by_pitch
        ).build()
        spent = []
        for plan in (twin, split):
            with pytest.raises(ResourceExhaustedError) as info:
                session.query(plan, budget=Budget(max_nodes_scanned=10), optimize=optimize)
            assert info.value.limit_name == "max_nodes_scanned"
            spent.append(info.value.spent)
        assert spent[0] == spent[1] > 10
        # Unbudgeted, the split reports the positions it examined.
        _, metrics = session.query_with_metrics(split, optimize=optimize)
        assert metrics.total("positions_scanned") > 0

    def test_full_scan_list_split_tops_up_to_every_start(self):
        """No servable atom: one position per start tried, ``len + 1``
        once the scan completes — and a small budget trips mid-scan."""
        list_db = Database()
        list_db.bind_root("L", parse_list("[a b a c a b]"))
        session = Session(list_db)
        split = Q.root("L").lsplit("[[[a|b]] ?]", lambda x, y, z: len(x)).build()
        rows, metrics = session.query_with_metrics(split)
        assert sorted(rows) == [0, 1, 2, 4]
        assert metrics.total("positions_scanned") == 7
        with pytest.raises(ResourceExhaustedError) as info:
            session.query(split, budget=Budget(max_nodes_scanned=3))
        assert info.value.spent == 4

    def test_nodes_scanned_trips_tree_split_like_its_sub_select_twin(self):
        """A full-scan tree ``split`` is the same scan as ``sub_select``: a
        budget the twin trips, the split trips too — at the same spend —
        and a completed scan reports every node of the tree.  So are
        ``all_anc`` / ``all_desc`` (splits by derivation; they used to run
        the whole algebra function uncharged, behind ``MaterializeOp``)."""
        tree = random_labeled_tree(550, ["a", "b", "c", "d"], seed=0)
        tree_db = Database()
        tree_db.bind_root("T", tree)
        session = Session(tree_db)
        plans = [
            Q.root("T").sub_select("b(c ?*)").build(),
            Q.root("T").split("b(c ?*)", lambda x, y, z: y.size()).build(),
            Q.root("T").all_anc("b(c ?*)", make_tuple).build(),
            Q.root("T").all_desc("b(c ?*)", make_tuple).build(),
        ]
        for plan in plans:
            with pytest.raises(ResourceExhaustedError) as info:
                session.query(plan, budget=Budget(max_nodes_scanned=10), optimize=False)
            assert info.value.limit_name == "max_nodes_scanned"
            assert info.value.spent == 11
            assert info.value.operator == plan.head()
            _, metrics = session.query_with_metrics(plan, optimize=False)
            assert metrics.total("nodes_scanned") == tree.size()

    @pytest.mark.parametrize("operator", ["all_anc", "all_desc"])
    def test_max_results_trips_all_anc_and_all_desc_mid_stream(self, operator):
        """66 distinct rows from a 13-node tree: the root is one row, and
        a limit of 13 trips the operator at its 14th row, with nothing
        buffered — the full result never exists."""
        tree_db = Database()
        tree_db.bind_root("T", parse_tree("a(" + " ".join(f"b{i}" for i in range(12)) + ")"))
        stage = getattr(Q.root("T"), operator)("a(!?* ? !?* ? !?*)", make_tuple)
        plan = stage.sapply(lambda pair: pair).build()
        assert len(evaluate(plan, tree_db)) == 66
        with pytest.raises(ResourceExhaustedError) as info:
            evaluate_with_metrics(plan, tree_db, budget=Budget(max_results=13))
        exc = info.value
        assert (exc.limit_name, exc.spent) == ("max_results", 14)
        assert exc.operator.startswith(operator)
        assert exc.metrics[(0,)].rows_out == 14
        assert exc.metrics[(0,)].peak_buffered == 0

    def test_extent_scan_charges_nodes(self, db):
        with pytest.raises(ResourceExhaustedError):
            evaluate(E.Extent("Nums"), db, budget=Budget(max_nodes_scanned=5))

    def test_max_results_trips_with_operator_name(self, db):
        with pytest.raises(ResourceExhaustedError) as info:
            evaluate(E.Extent("Nums"), db, budget=Budget(max_results=3))
        exc = info.value
        assert exc.limit_name == "max_results"
        # The result count is checked row by row, so it trips at
        # limit+1 — without pulling the extent's other 6 rows.
        assert exc.spent == 4

    def test_trip_carries_partial_metrics(self, db):
        plan = parse_aql('root T | sub_select "b"')
        with pytest.raises(ResourceExhaustedError) as info:
            evaluate_with_metrics(plan, db, budget=Budget(max_nodes_scanned=2))
        exc = info.value
        assert exc.metrics is not None
        assert exc.operator is not None  # which operator tripped
        assert exc.plan_path is not None

    def test_trip_bumps_stats_counter(self, db):
        plan = parse_aql('root T | sub_select "b"')
        with pytest.raises(ResourceExhaustedError):
            evaluate(plan, db, budget=Budget(max_nodes_scanned=2))
        assert db.stats.snapshot().get("budget_trips", 0) >= 1

    def test_unbudgeted_query_unchanged(self, db):
        plan = parse_aql('root T | sub_select "b"')
        assert len(evaluate(plan, db)) == len(
            evaluate(plan, db, budget=Budget(max_steps=1_000_000))
        )


class TestBudgetConfig:
    def test_from_env_parses_all_knobs(self):
        env = {
            "AQUA_DEADLINE": "1.5",
            "AQUA_MAX_STEPS": "100",
            "AQUA_MAX_BACKTRACK_DEPTH": "32",
            "AQUA_MAX_RESULTS": "10",
            "AQUA_MAX_NODES_SCANNED": "500",
        }
        budget = Budget.from_env(env)
        assert budget == Budget(
            deadline_seconds=1.5,
            max_steps=100,
            max_backtrack_depth=32,
            max_results=10,
            max_nodes_scanned=500,
        )

    def test_from_env_ignores_malformed(self):
        budget = Budget.from_env({"AQUA_MAX_STEPS": "not-a-number"})
        assert budget.is_unlimited

    def test_to_dict_excludes_token(self):
        budget = Budget(max_steps=5).with_token(CancellationToken())
        assert "token" not in budget.to_dict()
        assert budget.to_dict()["max_steps"] == 5

    def test_unlimited_budget_installs_no_guard(self):
        with context.entered(Budget().arm) as run:
            assert run.guard is None  # nothing to arm: no context installed
            assert context.current() is None
            assert guardrails.current_guard() is None

    def test_nested_guarded_reuses_outer_guard(self):
        with context.entered(Budget(max_steps=100).arm) as outer:
            guard = outer.guard
            with context.entered(Budget(max_steps=1).arm) as inner:
                assert inner is outer  # outermost scope wins
                assert guardrails.current_guard() is guard
                assert guard.budget.max_steps == 100

    def test_guard_usage_snapshot(self):
        guard = Guard(Budget(max_steps=100))
        guard.tick(3)
        guard.charge_nodes(7)
        usage = guard.usage()
        assert usage["steps"] == 3
        assert usage["nodes_scanned"] == 7
        assert usage["elapsed_seconds"] >= 0


class TestFaultInjection:
    def test_error_fault_fires_at_storage_seam(self):
        db = Database()
        db.bind_root("T", parse_tree("a(b)"))
        plan = faults.FaultPlan([faults.FaultRule("storage_lookup", "error")])
        with faults.injected(plan):
            with pytest.raises(InjectedFaultError) as info:
                db.root("T")
        assert "storage_lookup" in str(info.value)
        assert plan.fired["storage_lookup"] == 1
        # Deactivated once the scope exits.
        assert db.root("T") is not None

    def test_budget_fault_raises_resource_exhausted(self):
        plan = faults.FaultPlan([faults.FaultRule("matcher_step", "budget")])
        pattern = parse_list_pattern("[a]")
        with faults.injected(plan):
            with pytest.raises(ResourceExhaustedError) as info:
                find_list_matches(pattern, list("a"))
        assert info.value.limit_name == "injected"

    def test_probabilistic_firing_is_deterministic(self):
        def fired_hits(seed):
            plan = faults.FaultPlan(
                [faults.FaultRule("index_probe", "error", probability=0.3)],
                seed=seed,
            )
            hits = []
            for hit in range(50):
                try:
                    plan.check("index_probe")
                except InjectedFaultError:
                    hits.append(hit)
            return hits

        assert fired_hits(42) == fired_hits(42)
        assert fired_hits(42) != fired_hits(43)

    def test_latency_fault_does_not_raise(self):
        plan = faults.FaultPlan(
            [faults.FaultRule("storage_lookup", "latency", value=0.0)]
        )
        db = Database()
        db.bind_root("T", parse_tree("a"))
        with faults.injected(plan):
            assert db.root("T") is not None
        assert plan.fired["storage_lookup"] == 1

    def test_parse_rules_grammar(self):
        rules = faults.parse_rules(
            "storage_lookup:error:1.0,index_probe:latency:0.5:0.002"
        )
        assert rules == [
            faults.FaultRule("storage_lookup", "error", 1.0, 0.0),
            faults.FaultRule("index_probe", "latency", 0.5, 0.002),
        ]

    def test_parse_rules_rejects_malformed(self):
        # parse_rules (the AQUA_FAULTS surface) raises QueryError naming
        # the knob; the FaultRule constructor keeps plain ValueError.
        with pytest.raises(QueryError, match="AQUA_FAULTS"):
            faults.parse_rules("storage_lookup")
        with pytest.raises(ValueError):
            faults.FaultRule("storage_lookup", "explode")
        with pytest.raises(ValueError):
            faults.FaultRule("storage_lookup", "error", probability=2.0)

    def test_plan_from_env(self):
        plan = faults.plan_from_env(
            {"AQUA_FAULTS": "matcher_step:error:1.0", "AQUA_FAULT_SEED": "7"}
        )
        assert plan is not None
        assert plan.seed == 7
        assert faults.plan_from_env({}) is None

    def test_index_probe_seam(self):
        db = Database()
        db.insert_many([{"k": i} for i in range(5)], extent="Rows")
        db.create_index("Rows", "k")
        plan = faults.FaultPlan([faults.FaultRule("index_probe", "error")])
        with faults.injected(plan):
            with pytest.raises(InjectedFaultError):
                db.index_for("Rows", "k").lookup(3)


class TestOptimizerDegradation:
    @pytest.fixture()
    def db(self):
        db = Database()
        db.bind_root("T", parse_tree("a(b c d)"))
        return db

    def test_rewrite_fault_skips_rule_keeps_plan(self, db):
        from repro.optimizer.engine import Optimizer

        plan = parse_aql('root T | sub_select "b"')
        fault = faults.FaultPlan([faults.FaultRule("optimizer_rewrite", "error")])
        with faults.injected(fault):
            optimized, trace = Optimizer(db).optimize(plan)
        # Every rule probe faulted, so the plan is unchanged ...
        assert optimized.describe() == plan.describe()
        assert any("skipped" in step for step in trace.steps)
        # ... and the un-decomposed plan still executes.
        with faults.injected(fault):
            assert len(evaluate(optimized, db)) == 1

    def test_pipeline_abort_falls_back_to_logical_plan(self, db, monkeypatch):
        from repro.optimizer.engine import Optimizer

        plan = parse_aql('root T | sub_select "b"')
        optimizer = Optimizer(db)

        def boom(expr):
            raise ResourceExhaustedError("budget exhausted during costing")

        monkeypatch.setattr(optimizer.cost_model, "cost", boom)
        optimized, trace = optimizer.optimize(plan)
        assert optimized is plan
        assert any("fallback" in step for step in trace.steps)

    def test_shell_survives_rewrite_faults_end_to_end(self, db):
        from repro.query.aql import run_aql

        fault = faults.FaultPlan([faults.FaultRule("optimizer_rewrite", "error")])
        with faults.injected(fault):
            result = run_aql('root T | sub_select "b"', db)
        assert len(result) == 1
