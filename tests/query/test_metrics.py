"""Tests for the instrumented executor behind EXPLAIN ANALYZE."""

import threading

from repro import config
from repro.core import make_tuple, parse_tree
from repro.query import (
    PlanMetrics,
    Q,
    evaluate,
    evaluate_with_metrics,
    explain_analyze,
    render_analysis,
)
from repro.storage import Database
from repro.storage.stats import Instrumentation
from repro.workloads import (
    BRAZIL,
    by_citizen_or_name,
    figure3_family_tree,
    random_labeled_tree,
)


def make_db() -> Database:
    db = Database()
    db.bind_root("T", parse_tree("r(d(e(h i) j) s(d(e(h i) j) k) d(x))"))
    return db


class TestPlanMetricsCollection:
    def test_one_scope_per_plan_node(self):
        db = make_db()
        query = (
            Q.root("T")
            .sub_select("d(e(h i) j)")
            .union(Q.root("T").sub_select("d(x)"))
            .build()
        )
        _, metrics = evaluate_with_metrics(query, db)

        def paths(node, path=()):
            yield path
            for i, child in enumerate(node.children()):
                yield from paths(child, (*path, i))

        assert set(metrics.operators) == set(paths(query))
        assert all(op.calls == 1 for op in metrics.operators.values())

    def test_paths_distinguish_equal_subplans(self):
        db = make_db()
        query = Q.root("T").sub_select("d(x)").union(
            Q.root("T").sub_select("d(x)")
        ).build()
        _, metrics = evaluate_with_metrics(query, db)
        # Both branches are structurally identical but get their own scopes.
        assert metrics[(0,)] is not metrics[(1,)]
        assert metrics[(0,)].head == metrics[(1,)].head

    def test_rows_out_matches_interpreter_fig3(self):
        db = Database()
        query = Q.value(figure3_family_tree()).select(BRAZIL).build()
        result, metrics = evaluate_with_metrics(query, db)
        assert metrics[()].rows_out == len(result)
        assert metrics[(0,)].rows_out == figure3_family_tree().size()

    def test_rows_out_matches_interpreter_fig4(self):
        db = Database()
        query = Q.value(figure3_family_tree()).split(
            "Brazil(!?* USA !?*)",
            lambda x, y, z: make_tuple(x, y, z),
            resolver=by_citizen_or_name,
        ).build()
        result, metrics = evaluate_with_metrics(query, db)
        assert metrics[()].rows_out == len(result) == 1

    def test_counters_attributed_exclusively(self):
        db = make_db()
        query = Q.root("T").sub_select("d(e(h i) j)").build()
        _, metrics = evaluate_with_metrics(query, db)
        # The scan work belongs to sub_select, none of it to the source.
        assert metrics[()].counters["nodes_scanned"] == 15
        assert metrics[(0,)].counters == {}

    def test_engine_counters_reach_the_operator(self):
        db = make_db()
        query = Q.root("T").sub_select("d(e(h i) j)").build()
        _, metrics = evaluate_with_metrics(query, db)
        assert metrics[()].counters["backtrack_steps"] > 0
        assert metrics.total("backtrack_steps") == db.stats["backtrack_steps"]

    def test_evaluate_without_collector_is_unchanged(self):
        db = make_db()
        query = Q.root("T").sub_select("d(e(h i) j)").build()
        plain = evaluate(query, db)
        instrumented, _ = evaluate_with_metrics(query, db)
        assert plain == instrumented

    def test_claim_split_indexed_access_path_does_strictly_less_predicate_work(self):
        from repro.api import Session

        db = make_db()
        query = Q.root("T").sub_select("d(e(h i) j)").build()
        session = Session(db)
        naive, naive_metrics = session.query_with_metrics(query)
        indexed, indexed_metrics = session.query_with_metrics(query, optimize=True)
        assert naive == indexed
        assert (
            indexed_metrics.total("predicate_evals")
            < naive_metrics.total("predicate_evals")
        )

        # CLAIM-SPLIT at benchmark scale: a 4 000-node tree whose anchor
        # `d` labels ~1 % of the nodes.  The scan visits every node; the
        # probe hands the matcher 37 candidates.  (Kernel pinned off: its
        # bitset filter would narrow the *naive* leg's roots as well.)
        big = Database()
        tree = random_labeled_tree(
            4000, "dehijuvwxy", seed=99, weights=[1.0] + [11.0] * 9, max_arity=4
        )
        big.bind_root("T", tree)
        big.tree_index(tree)
        query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
        session = Session(big)
        with config.columnar_scope("off"):
            naive, naive_metrics = session.query_with_metrics(query)
            indexed, indexed_metrics = session.query_with_metrics(query, optimize=True)
        assert naive == indexed
        counters = ("nodes_scanned", "index_candidates", "predicate_evals")
        assert [naive_metrics.total(name) for name in counters] == [4000, 0, 4018]
        assert [indexed_metrics.total(name) for name in counters] == [0, 37, 55]


class TestRendering:
    def test_render_analysis_golden(self):
        db = make_db()
        query = Q.root("T").sub_select("d(e(h i) j)").build()
        _, metrics = evaluate_with_metrics(query, db)
        text = render_analysis(query, db, metrics, timings=False)
        assert text == (
            "sub_select[d(e(h i) j)]  (est rows≈2, cost≈75 | act rows=1, units=39)\n"
            "  · backtrack_steps=24, nodes_scanned=15, predicate_evals=24\n"
            "  root(T)  (est rows≈15, cost≈1 | act rows=15, units=0)"
        )

    def test_explain_analyze_runs_and_flags_nothing_when_estimates_hold(self):
        db = make_db()
        query = Q.root("T").sub_select("d(e(h i) j)").build()
        text = explain_analyze(query, db)
        assert "act rows=1" in text
        assert "time=" in text
        assert "⚠" not in text

    def test_misestimate_flagged(self):
        from repro.predicates import sym

        db = Database()
        db.bind_root("big", parse_tree("r(" + "a" * 150 + ")"))
        # Estimate: 10% of 151 nodes survive; actually nothing matches.
        query = Q.root("big").select(sym("zzz")).build()
        text = explain_analyze(query, db, timings=False)
        assert "⚠ rows" in text

    def test_unexecuted_operator_is_marked(self):
        db = make_db()
        query = Q.root("T").sub_select("d(x)").build()
        metrics = PlanMetrics()  # nothing collected
        text = render_analysis(query, db, metrics, timings=False)
        assert "never executed" in text


class TestInstrumentationThreadSafety:
    def test_concurrent_bumps_do_not_drop_counts(self):
        stats = Instrumentation()
        threads = [
            threading.Thread(
                target=lambda: [stats.bump("predicate_evals") for _ in range(10_000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats["predicate_evals"] == 80_000

    def test_scope_isolates_and_restores(self):
        stats = Instrumentation()
        stats.bump("nodes_scanned", 7)
        with stats.scope():
            assert stats["nodes_scanned"] == 0
            stats.bump("nodes_scanned", 3)
            assert stats["nodes_scanned"] == 3
        assert stats["nodes_scanned"] == 7

    def test_scope_restores_on_error(self):
        stats = Instrumentation()
        stats.bump("index_probes", 2)
        try:
            with stats.scope():
                stats.bump("index_probes", 99)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert stats["index_probes"] == 2

    def test_concurrent_instrumented_evaluations_stay_separate(self):
        db = make_db()
        query = Q.root("T").sub_select("d(e(h i) j)").build()
        results: list[PlanMetrics] = []
        lock = threading.Lock()

        def run() -> None:
            _, metrics = evaluate_with_metrics(query, db)
            with lock:
                results.append(metrics)

        threads = [threading.Thread(target=run) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        for metrics in results:
            assert metrics[()].counters["nodes_scanned"] == 15
            assert metrics[()].calls == 1


class TestPlanMetricsMerge:
    """The shard-registry fold behind parallel EXPLAIN ANALYZE (PR 9)."""

    @staticmethod
    def registry(path=(), head="op", *, counters=None, rows=None, wall=0.0,
                 buffered=0, flags=(), shards=None):
        metrics = PlanMetrics()
        op = metrics.register(path, head)
        for name, value in (counters or {}).items():
            op.counters[name] += value
        op.rows_out = rows
        op.wall_seconds = wall
        op.peak_buffered = buffered
        op.flags |= set(flags)
        op.shards = shards
        return metrics

    def test_counters_rows_and_calls_sum(self):
        left = self.registry(counters={"predicate_evals": 3}, rows=2)
        right = self.registry(counters={"predicate_evals": 5, "index_probes": 1}, rows=4)
        merged = left.merge(right)
        assert merged is left
        op = merged[()]
        assert op.counters == {"predicate_evals": 8, "index_probes": 1}
        assert op.rows_out == 6
        assert op.calls == 2

    def test_zero_row_shard_folds_cleanly(self):
        # A hash shard can own members yet keep none; its registry must
        # not perturb the totals or flip rows_out to None.
        busy = self.registry(counters={"predicate_evals": 7}, rows=7, wall=0.5)
        empty = self.registry(counters={"predicate_evals": 2}, rows=0, wall=0.1)
        op = busy.merge(empty, wall="max")[()]
        assert op.rows_out == 7
        assert op.counters["predicate_evals"] == 9
        assert op.wall_seconds == 0.5

    def test_single_shard_merge_is_identity_shaped(self):
        only = self.registry(counters={"nodes_scanned": 4}, rows=3, wall=0.2,
                             buffered=5, flags={"misestimate"})
        rolled = PlanMetrics().merge(only, wall="max")[()]
        assert rolled.counters == {"nodes_scanned": 4}
        assert rolled.rows_out == 3
        assert rolled.wall_seconds == 0.2
        assert rolled.peak_buffered == 5
        assert rolled.flags == {"misestimate"}

    def test_wall_sum_vs_max(self):
        slow = self.registry(wall=0.4)
        fast = self.registry(wall=0.1)
        assert slow.merge(fast)[()].wall_seconds == 0.5
        overlapped = self.registry(wall=0.4).merge(self.registry(wall=0.1), wall="max")
        assert overlapped[()].wall_seconds == 0.4

    def test_bad_wall_mode_raises(self):
        import pytest

        with pytest.raises(ValueError, match="wall"):
            self.registry().merge(self.registry(), wall="avg")

    def test_peak_buffered_takes_the_max_not_the_sum(self):
        merged = self.registry(buffered=10).merge(self.registry(buffered=25))
        assert merged[()].peak_buffered == 25
        # ...and the registry-wide peak follows the folded records.
        assert merged.peak_intermediate() == 25

    def test_flags_or_together(self):
        clean = self.registry()
        flagged = self.registry(flags={"misestimate"})
        assert clean.merge(flagged)[()].flags == {"misestimate"}
        # And a flag already present survives a clean merge.
        assert flagged.merge(self.registry())[()].flags == {"misestimate"}

    def test_shard_summaries_concatenate(self):
        a = self.registry(shards=[{"shard": 0, "rows": 1}])
        b = self.registry(shards=[{"shard": 1, "rows": 2}])
        merged = a.merge(b)[()]
        assert [s["shard"] for s in merged.shards] == [0, 1]
        untouched = self.registry().merge(self.registry())[()]
        assert untouched.shards is None

    def test_disjoint_paths_union(self):
        left = self.registry(path=(), head="root", rows=1)
        right = self.registry(path=(0,), head="child", rows=9)
        merged = left.merge(right)
        assert merged[()].rows_out == 1
        assert merged[(0,)].rows_out == 9
        assert merged[(0,)].head == "child"
