"""Tests for the instrumented executor behind EXPLAIN ANALYZE."""

import threading

import pytest

from repro import context
from repro.api import Session
from repro.core import make_tuple, parse_tree
from repro.errors import ResourceExhaustedError
from repro.guardrails import Budget
from repro.patterns import find_list_matches, find_tree_matches, parse_tree_pattern
from repro.patterns.list_parser import list_pattern
from repro.physical.base import BATCH
from repro.query import (
    PlanMetrics,
    Q,
    evaluate,
    evaluate_with_metrics,
    explain_analyze,
    render_analysis,
)
from repro.storage import Database
from repro.storage import stats as stats_mod
from repro.storage.stats import Instrumentation
from repro.workloads import (
    BRAZIL,
    by_citizen_or_name,
    figure3_family_tree,
    random_labeled_tree,
)
from repro.workloads.generators import random_list


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
        # probe hands over 37 candidates.  (The naive leg's first-set
        # scan rejects the rest unentered but charges them.)  None of the
        # 37 has the e and j children the pattern requires, so both legs
        # reject each on its child signature — 38 child tests in all —
        # without entering the matcher.
        big = Database()
        tree = random_labeled_tree(
            4000, "dehijuvwxy", seed=99, weights=[1.0] + [11.0] * 9, max_arity=4
        )
        big.bind_root("T", tree)
        big.tree_index(tree)
        query = Q.root("T").sub_select("d(e(h i) j ?*)").build()
        session = Session(big)
        naive, naive_metrics = session.query_with_metrics(query)
        indexed, indexed_metrics = session.query_with_metrics(query, optimize=True)
        assert naive == indexed
        counters = ("nodes_scanned", "index_candidates", "predicate_evals")
        assert [naive_metrics.total(name) for name in counters] == [4000, 0, 4001]
        assert [indexed_metrics.total(name) for name in counters] == [0, 37, 38]


#: The matcher and scan counters EXPLAIN ANALYZE attributes per operator.
SCAN_COUNTERS = (
    "backtrack_steps",
    "predicate_evals",
    "memo_hits",
    "memo_misses",
    "bitmap_fills",
    "bitmap_hits",
    "nodes_scanned",
)


def scan_counters(metrics) -> dict:
    return {
        path: {name: op.counters[name] for name in SCAN_COUNTERS if op.counters[name]}
        for path, op in metrics.operators.items()
    }


def counted_flushes(monkeypatch) -> list:
    """Spy on ``emit_many``: the matcher flushes (batches with steps)."""
    flushes: list = []
    emit_many = context.emit_many

    def spy(counts):
        if "backtrack_steps" in counts:
            flushes.append(dict(counts))
        emit_many(counts)

    monkeypatch.setattr(context, "emit_many", spy)
    return flushes


def two_scan_union():
    """Two tree scans under one union; 42 pairs of siblings, then a(b)."""
    db = Database()
    db.bind_root("W", parse_tree("r(a(b c d e f g h) x(a(i j k l m n o)))"))
    query = (
        Q.root("W")
        .sub_select("a(!?* ? !?* ? !?*)")
        .union(Q.root("W").sub_select("a(!?* b !?*)"))
        .build()
    )
    return db, query


#: A deadline-only budget hands over full batches, a step limit one row
#: per pull — whatever the suite's environment arms.
BATCHES = {"full": Budget(deadline_seconds=60), "one": Budget(max_steps=10**9)}


def flush_bound(matches: int, batch: str) -> int:
    """One flush per batch of matches handed over, plus the stream end's."""
    return -(-matches // BATCH) + 1 if batch == "full" else matches + 1


class TestCountersFlushAtHandOver:
    """Matchers emit their counters once per batch of matches handed
    over (per match at batch size one), not once per candidate or per
    match, and every operator is still credited its own work."""

    @pytest.mark.parametrize("optimize", [True, False], ids=["probe", "scan"])
    def test_a_tree_scan_flushes_once_per_match(self, monkeypatch, optimize):
        db = Database()
        tree = random_labeled_tree(3000, "dehijuvwxy", seed=7, max_arity=4)
        db.bind_root("T", tree)
        db.tree_index(tree)
        pattern = "d(?* e(?* h ?*) ?*)"
        matches = len(find_tree_matches(parse_tree_pattern(pattern), tree))
        flushes = counted_flushes(monkeypatch)
        for batch, budget in BATCHES.items():
            flushes.clear()
            result, metrics = Session(db).query_with_metrics(
                Q.root("T").sub_select(pattern).build(), optimize=optimize, budget=budget
            )
            assert len(result) == matches == 6
            assert len(flushes) <= flush_bound(matches, batch)  # 323 at one per candidate
            # The scan charges every node the first-set rejected as the
            # node-at-a-time reference does (322 probed candidates vs 3000);
            # of the 322, those without an e child with an h child are
            # rejected on the child signature at one step each.
            assert sum(f["backtrack_steps"] for f in flushes) == metrics[()].counters[
                "backtrack_steps"
            ] == (374 if optimize else 3052)

    def test_a_list_scan_flushes_once_per_batch(self, monkeypatch):
        db = Database()
        song = random_list(300, "abc", seed=3)
        db.bind_root("L", song)
        matches = len(find_list_matches(list_pattern("[a?c]"), song.value_array))
        flushes = counted_flushes(monkeypatch)
        for batch, budget in BATCHES.items():
            flushes.clear()
            query = Q.root("L").lsub_select("[a?c]").build()
            result = Session(db).query(query, optimize=False, budget=budget)
            assert (len(result), matches) == (3, 31)
            assert len(flushes) <= flush_bound(matches, batch)  # 302 at one per start

    @pytest.mark.parametrize("batch", BATCHES)
    def test_a_docstore_path_flushes_once_per_batch(self, monkeypatch, batch):
        """``//p`` hands every ``p`` over from the lone-atom path of an
        index-probed split: 2,974 flushes at one per match."""
        from repro.docstore.corpus import corpus_document

        document = corpus_document()
        flushes = counted_flushes(monkeypatch)
        matches = len(document.path("//p", budget=BATCHES[batch]))
        assert matches == 2974
        assert len(flushes) <= flush_bound(matches, batch)
        # One step per probed candidate, each of them a match.
        assert sum(f["backtrack_steps"] for f in flushes) == matches

    @pytest.mark.parametrize("optimize", [False, True], ids=["scan", "probe"])
    def test_two_scans_under_one_parent_keep_their_counters(self, optimize):
        db, query = two_scan_union()
        result, metrics = Session(db).query_with_metrics(query, optimize=optimize)
        assert len(result) == 43
        scanned = {"nodes_scanned": 18} if not optimize else {}
        # The right scan's a(i j …) has no b child: one step, 7 tests.
        left, right = ((326, 200), (51, 44)) if not optimize else ((310, 184), (35, 28))
        assert scan_counters(metrics) == {
            (): {},
            (0,): {"backtrack_steps": left[0], "predicate_evals": left[1], **scanned},
            (0, 0): {},
            (1,): {"backtrack_steps": right[0], "predicate_evals": right[1], **scanned},
            (1, 0): {},
        }

    @pytest.mark.parametrize(
        "optimize, limit, totals",
        [
            (False, 20, (149, 89, 2)),
            (False, 42, (341, 209, 20)),
            (True, 20, (148, 88, 0)),
            (True, 42, (324, 192, 0)),
        ],
    )
    def test_a_max_results_trip_credits_every_step_to_an_operator(
        self, optimize, limit, totals
    ):
        """The work of the candidate in flight when ``max_results`` trips
        was done inside the pull that produced the tripping row, so it is
        credited there — the operators' counters sum to what the database
        sink saw.  (Flushed per candidate, it was emitted only when the
        plan closed, outside every operator.)"""
        db, query = two_scan_union()
        with db.stats.scope() as stats:
            with pytest.raises(ResourceExhaustedError) as info:
                Session(db).query_with_metrics(
                    query, optimize=optimize, budget=Budget(max_results=limit)
                )
            seen = tuple(
                stats[name] for name in ("backtrack_steps", "predicate_evals", "nodes_scanned")
            )
        assert seen == totals
        per_operator = scan_counters(info.value.metrics)
        assert tuple(
            sum(counters.get(name, 0) for counters in per_operator.values())
            for name in ("backtrack_steps", "predicate_evals", "nodes_scanned")
        ) == totals


class TestRunCounters:
    """A run counts into ints it owns and reaches the sink once, at its
    fold: never twice, whoever else is listening on the thread."""

    def test_the_sink_sees_a_run_only_at_its_fold(self):
        sink = Instrumentation()
        run = stats_mod.RunCounters(sink)
        with context.entered(receiver=run):
            context.emit("index_probes")
            context.emit_many({"backtrack_steps": 3, "predicate_evals": 0})
            assert sink.snapshot() == {}
        run.fold()
        run.fold()  # a second fold hands over nothing more
        assert sink.snapshot() == {"index_probes": 1, "backtrack_steps": 3}

    def test_an_activated_sink_is_not_counted_twice(self):
        """The run stands in for its sink while the plan runs; the sink
        itself hears only planning (the plan-cache hit)."""
        db, query = two_scan_union()
        session = Session(db)
        session.query(query, optimize=False)  # builds the postings
        with db.stats.scope() as stats:
            session.query(query, optimize=False)
            alone = stats.snapshot()
        with db.stats.scope() as stats:
            with context.entered(receiver=db.stats):
                session.query(query, optimize=False)
                assert context.receiving()
            assert stats.snapshot() == {**alone, "plan_cache_hits": 1}
        assert alone["backtrack_steps"] == 326 + 51

    def test_a_nested_run_folds_into_the_sink_once(self):
        sink = Instrumentation()
        outer = stats_mod.RunCounters(sink)
        with context.entered(receiver=outer):
            inner = stats_mod.RunCounters(sink)
            with context.entered(receiver=inner):
                context.emit("index_probes", 2)
            inner.fold()
            context.emit("index_probes")
        outer.fold()
        assert sink["index_probes"] == 3
        assert not context.receiving()


class TestRendering:
    @pytest.mark.usefixtures("posting_scans")
    def test_render_analysis_golden(self):
        db = make_db()
        query = Q.root("T").sub_select("d(e(h i) j)").build()
        _, metrics = evaluate_with_metrics(query, db)
        text = render_analysis(query, db, metrics, timings=False)
        # The cold scan builds the tree's payload postings and serves
        # itself from them; the warm run finds them built.
        assert text == (
            "sub_select[d(e(h i) j)]  (est rows≈2, cost≈75 | act rows=1, units=38)\n"
            "  · backtrack_steps=23, index_builds=1, nodes_scanned=15, predicate_evals=23\n"
            "  root(T)  (est rows≈15, cost≈1 | act rows=15, units=0)"
        )
        _, metrics = evaluate_with_metrics(query, db)
        warm = render_analysis(query, db, metrics, timings=False)
        assert warm == text.replace("index_builds=1, ", "")

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
    """``PlanMetrics.merge``: two runs folded as if they were one
    sequential run (every total sums)."""

    @staticmethod
    def registry(path=(), head="op", *, counters=None, rows=None, wall=0.0,
                 buffered=0, flags=()):
        metrics = PlanMetrics()
        op = metrics.register(path, head)
        for name, value in (counters or {}).items():
            op.counters[name] += value
        op.rows_out = rows
        op.wall_seconds = wall
        op.peak_buffered = buffered
        op.flags |= set(flags)
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
        # A run can read members yet keep none; its registry must not
        # perturb the totals or flip rows_out to None.
        busy = self.registry(counters={"predicate_evals": 7}, rows=7, wall=0.5)
        empty = self.registry(counters={"predicate_evals": 2}, rows=0, wall=0.1)
        op = busy.merge(empty)[()]
        assert op.rows_out == 7
        assert op.counters["predicate_evals"] == 9
        assert op.wall_seconds == 0.6

    def test_single_shard_merge_is_identity_shaped(self):
        # Folding one run into an empty registry copies its record.
        only = self.registry(counters={"nodes_scanned": 4}, rows=3, wall=0.2,
                             buffered=5, flags={"misestimate"})
        rolled = PlanMetrics().merge(only)[()]
        assert rolled.counters == {"nodes_scanned": 4}
        assert rolled.rows_out == 3
        assert rolled.wall_seconds == 0.2
        assert rolled.peak_buffered == 5
        assert rolled.flags == {"misestimate"}
        assert rolled.calls == 1

    def test_wall_sum_vs_max(self):
        # Wall times always sum: the registries are sequential runs.
        slow = self.registry(wall=0.4)
        fast = self.registry(wall=0.1)
        assert slow.merge(fast)[()].wall_seconds == 0.5
        assert slow.merge(self.registry(wall=0.1))[()].wall_seconds == 0.6

    def test_bad_wall_mode_raises(self):
        import pytest

        # There is no wall mode to choose any more.
        with pytest.raises(TypeError, match="wall"):
            self.registry().merge(self.registry(), wall="max")

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
        # Operator records carry no per-shard summaries: a merged record
        # has the same fields, and the same JSON keys, as a single run's.
        merged = self.registry(rows=1).merge(self.registry(rows=2))[()]
        single = self.registry(rows=3)[()]
        assert not hasattr(merged, "shards")
        assert merged.to_dict().keys() == single.to_dict().keys()
        assert "shards" not in merged.to_dict()

    def test_disjoint_paths_union(self):
        left = self.registry(path=(), head="root", rows=1)
        right = self.registry(path=(0,), head="child", rows=9)
        merged = left.merge(right)
        assert merged[()].rows_out == 1
        assert merged[(0,)].rows_out == 9
        assert merged[(0,)].head == "child"
