"""Set ``select`` / ``apply``: one sequential pipeline, pooled concurrency.

Set-shaped ``select`` and ``apply`` lower to :class:`SelectFilter` and
:class:`ApplyMap` whatever the input size and whatever ``parallel=``
says (the keyword is validated and kept only for call compatibility).
The contract these operators keep is the paper's stability guarantee
(§3): members stream in extent order, ``apply`` images dedup
first-seen in source order, and the result is bit-identical to the
direct algebra.  Budgets are enforced by the one query guard on the
query thread, and a trip names the operator that tripped it in the
partial EXPLAIN ANALYZE.  Running several queries at once is
:class:`~repro.api.SessionPool`'s job, and it never runs more than
``workers`` of them at a time.
"""

import threading
import time

import pytest

from repro.api import Session, SessionPool
from repro.core.identity import Record
from repro.errors import QueryCancelledError, QueryError, ResourceExhaustedError
from repro import context
from repro.guardrails import Budget, CancellationToken, current_guard, env_guard
from repro.physical import ExecutionContext, lower
from repro.physical import operators as P
from repro.predicates import attr
from repro.query import Q
from repro.query.explain import render_analysis
from repro.plan.metrics import PlanMetrics
from repro.storage import Database
from repro.workloads import by_citizen_or_name, random_family_tree

from ..reference import reference_eval


def person_db(count: int = 300) -> Database:
    db = Database()
    db.insert_many(
        [Record(name=f"p{i}", age=i % 60, city=f"C{i % 20}") for i in range(count)],
        "Person",
    )
    return db


def family_db(count: int = 300, nodes: int = 14) -> Database:
    db = Database()
    db.insert_many(
        [random_family_tree(nodes, seed=s, planted_matches=1) for s in range(count)],
        "Families",
    )
    return db


def run_plan(expr, db, *, budget=None, metrics=None):
    plan = lower(expr, db)
    arm = budget.arm if budget is not None else None
    with context.entered(arm, default=env_guard) as run:
        return plan.execute(ExecutionContext(db=db, guard=run.guard, metrics=metrics))


def run_session(expr, db, mode, *, metrics=None):
    """One run through a Session with ``parallel=mode`` (``None``: unset)."""
    return Session(db).query_with_metrics(expr, parallel=mode, metrics=metrics)


SELECT = Q.extent("Person").sselect(attr("age") > 30).build()
APPLY = Q.extent("Person").sapply(lambda p: p.age % 7).build()
MODES = ("on", "off", None)


class ConcurrencyProbe:
    """A per-member function that records how many calls overlap."""

    def __init__(self, pause: float = 0.002) -> None:
        self.pause = pause
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.threads: set[int] = set()

    def __call__(self, person):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.threads.add(threading.get_ident())
        time.sleep(self.pause)
        with self.lock:
            self.active -= 1
        return person.age


class TestShardPlanner:
    def test_range_shards_are_contiguous_balanced_and_covering(self):
        # A select streams every qualifying member exactly once, in
        # extent order: the output is an in-order subsequence.
        db = person_db(100)
        members = list(db.extent("Person"))
        result = list(run_plan(SELECT, db))
        assert result == [m for m in members if m.age > 30]
        positions = [members.index(m) for m in result]
        assert positions == sorted(set(positions))

    def test_range_with_fewer_members_than_shards_drops_empties(self):
        # Tiny and empty extents need no special case.
        tiny = person_db(2)
        assert list(run_plan(SELECT, tiny)) == []
        assert len(run_plan(APPLY, tiny)) == 2
        empty = Database()
        empty.insert_many([], "Person")
        assert list(run_plan(SELECT, empty)) == []
        assert list(run_plan(APPLY, empty)) == []

    def test_hash_covers_every_position_in_ascending_shard_order(self):
        # apply visits every member once, in extent order: with an
        # injective function the images are the members' own order.
        db = person_db(120)
        identity = Q.extent("Person").sapply(lambda p: p.name).build()
        assert list(run_plan(identity, db)) == [f"p{i}" for i in range(120)]

    def test_hash_is_deterministic_run_to_run(self):
        db = person_db(50)
        first = list(run_plan(SELECT, db))
        second = list(run_plan(SELECT, db))
        assert first == second
        assert [p.name for p in first] == [p.name for p in run_plan(SELECT, person_db(50))]

    def test_hash_balances_stride_congruent_oids(self):
        # Trees allocate a constant block of OIDs each, so their OIDs
        # stride by a constant; extent order is insertion order whatever
        # the OIDs, and an apply over the forest follows it.
        trees = [random_family_tree(14, seed=s, planted_matches=1) for s in range(200)]
        db = Database()
        db.insert_many(trees, "Families")
        assert [id(t) for t in db.extent("Families")] == [id(t) for t in trees]
        identities = Q.extent("Families").sapply(id).build()
        assert list(run_plan(identities, db)) == [id(t) for t in trees]

    def test_bad_count_and_strategy_raise(self):
        with pytest.raises(ValueError, match="workers"):
            SessionPool(Database(), workers=0)
        with pytest.raises(QueryError, match="zigzag"):
            SessionPool(Database(), parallel="zigzag")


class TestOrderedParity:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_select_bit_identical_across_worker_counts(self, workers):
        db = person_db()
        expected = reference_eval(SELECT, db)
        with SessionPool(db, workers=workers) as pool:
            results = [f.result() for f in [pool.submit(SELECT, parallel=m) for m in MODES]]
        for result in [run_plan(SELECT, db), *results]:
            assert list(result) == list(expected)
            assert result == expected
            assert type(result.equality) is type(expected.equality)

    @pytest.mark.parametrize("workers", [2, 7])
    def test_apply_dedups_globally_in_source_order(self, workers):
        # age % 7 has 7 distinct images over 300 members: ApplyMap keeps
        # the first occurrence of each, in extent order.
        db = person_db()
        first_seen = list(dict.fromkeys(p.age % 7 for p in db.extent("Person")))
        with SessionPool(db, workers=workers) as pool:
            results = [f.result() for f in [pool.submit(APPLY, parallel=m) for m in MODES]]
        for result in [run_plan(APPLY, db), *results]:
            assert list(result) == first_seen
        assert list(reference_eval(APPLY, db)) == first_seen

    def test_range_strategy_parity(self):
        # A contiguous block of the extent selects as that block, in order.
        db = Database()
        db.insert_many([Record(name=f"q{i}", age=i) for i in range(300)], "Person")
        block = Q.extent("Person").sselect((attr("age") >= 100) & (attr("age") < 200))
        for mode in MODES:
            result, _ = run_session(block.build(), db, mode)
            assert [p.age for p in result] == list(range(100, 200))

    def test_off_knob_runs_the_inherited_operator_with_zero_buffering(self):
        db = person_db()
        for mode in MODES:
            result, metrics = run_session(SELECT, db, mode)
            root = metrics.get(())
            assert root.head.startswith("sselect")
            # The select never stages its input: its only buffer is the
            # result sink, bounded by rows kept.
            assert root.peak_buffered == len(result) < 300
            assert len(result) > 0

    def test_undersized_input_stays_sequential(self):
        for count in (1, 255, 256, 300):
            db = person_db(count)
            assert type(lower(SELECT, db).root) is P.SelectFilter
            assert type(lower(APPLY, db).root) is P.ApplyMap

    def test_small_extents_lower_to_the_plain_operator(self):
        # No cost gate: small and large extents build the same operator.
        small, big = lower(SELECT, person_db(40)), lower(SELECT, person_db(300))
        assert type(small.root) is type(big.root) is P.SelectFilter
        assert small.render() == big.render()

    def test_exchange_counters_present_only_when_engaged(self):
        # Nothing fans out, so no exchange or parallel counter is ever
        # emitted, whatever ``parallel=`` says.
        db = person_db()
        for mode in MODES:
            _, metrics = run_session(SELECT, db, mode)
            names = set(metrics.totals())
            assert not any(n.startswith(("exchange_", "parallel_")) for n in names)


class TestWorkerBudget:
    def test_acquire_grants_at_most_capacity(self):
        # A pool runs at most ``workers`` queries at once.
        db = person_db(20)
        probe = ConcurrencyProbe()
        query = Q.extent("Person").sapply(probe).build()
        with SessionPool(db, workers=2) as pool:
            futures = [pool.submit(query) for _ in range(6)]
            for future in futures:
                future.result()
        assert 1 <= probe.peak <= 2
        assert len(probe.threads) <= 2

    def test_exhausted_budget_degrades_to_sequential_bit_identically(self):
        # A one-worker pool queues everything behind one thread; the
        # queued queries still return exactly the direct algebra's rows.
        db = person_db()
        expected = list(reference_eval(SELECT, db))
        with SessionPool(db, workers=1) as pool:
            futures = [pool.submit(SELECT, parallel=m) for m in MODES * 2]
            assert all(list(f.result()) == expected for f in futures)

    def test_concurrent_exchanges_never_exceed_the_shared_capacity(self):
        # Three client threads share one pool: together they never run
        # more than its ``workers`` queries, and each query's per-member
        # work stays on the one thread that runs it.
        db = person_db(15)
        probe = ConcurrencyProbe()
        query = Q.extent("Person").sapply(probe).build()
        errors = []
        with SessionPool(db, workers=2) as pool:

            def client():
                try:
                    for _ in range(2):
                        pool.submit(query).result()
                except Exception as exc:  # pragma: no cover - fail loud
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert probe.peak <= 2
        assert len(probe.threads) <= 2


class TestBudgetPropagation:
    """One guard per query, on the thread that runs it."""

    def test_bare_thread_has_no_guard_documenting_the_gap(self):
        seen = {}
        with context.entered(Budget(max_steps=5).arm):

            def worker():
                seen["guard"] = current_guard()

            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=30)
            assert not t.is_alive()
        # The query context is thread-local: a bare thread runs with NO guard,
        # which is why set operators do their per-member work on the
        # query thread and never hand it to one.
        assert seen["guard"] is None

    def test_armed_installs_replaces_and_restores(self, monkeypatch):
        from repro.guardrails import ENV_KNOBS

        for knob in ENV_KNOBS:
            monkeypatch.delenv(knob, raising=False)
        with context.entered(Budget(max_steps=100).arm) as outer:
            guard = outer.guard
            assert current_guard() is guard
            # The outermost scope wins: a nested one reuses its guard.
            with context.entered(Budget(max_steps=5).arm) as inner:
                assert inner is outer
                assert current_guard() is guard
            assert current_guard() is guard
        assert current_guard() is None
        with context.entered():
            assert context.current() is None
            assert current_guard() is None

    def test_armed_worker_thread_honors_the_budget(self):
        # A worker thread that opens its own scope (as every SessionPool
        # worker does, through Session.query) is budgeted.
        outcome = {}

        def worker():
            with context.entered(Budget(max_steps=5).arm) as run:
                try:
                    for _ in range(10):
                        run.guard.tick(1, "worker step")
                    outcome["tripped"] = False
                except ResourceExhaustedError as exc:
                    outcome["tripped"] = True
                    outcome["limit"] = exc.limit_name
            outcome["after"] = current_guard()

        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert outcome == {"tripped": True, "limit": "max_steps", "after": None}

    def test_parallel_workers_honor_max_steps(self):
        db = person_db()

        def hot(person):
            guard = current_guard()
            assert guard is not None, "per-member work ran without the guard"
            guard.tick(50, "test payload")
            return person.age

        expr = Q.extent("Person").sapply(hot).build()
        with pytest.raises(ResourceExhaustedError) as excinfo:
            run_plan(expr, db, budget=Budget(max_steps=2000))
        exc = excinfo.value
        assert exc.limit_name == "max_steps"
        assert exc.operator == "sapply[hot]"

    def test_parallel_workers_honor_max_nodes_scanned(self):
        db = person_db()

        def scanning(person):
            current_guard().charge_nodes(10, "test scan")
            return person.age

        expr = Q.extent("Person").sapply(scanning).build()
        with pytest.raises(ResourceExhaustedError) as excinfo:
            # The extent scan charges one node per member and the
            # function ten more, crossing 1000 well before the end.
            run_plan(expr, db, budget=Budget(max_nodes_scanned=1000))
        assert excinfo.value.limit_name == "max_nodes_scanned"
        assert excinfo.value.operator == "sapply[scanning]"

    def test_parallel_workers_honor_cancellation(self):
        db = person_db()
        token = CancellationToken()
        calls = []

        def slow(person):
            token.cancel()  # the first call cancels the query
            calls.append(person)
            current_guard().tick(100, "test payload")
            return person.age

        expr = Q.extent("Person").sapply(slow).build()
        with pytest.raises(QueryCancelledError):
            run_plan(expr, db, budget=Budget(token=token))
        assert len(calls) < 300  # noticed mid-stream, not at the end

    def test_tripping_shard_attributed_in_partial_metrics(self):
        db = family_db()
        from repro.algebra.tree_ops import split_pieces

        def pieces(tree):
            return len(
                split_pieces(
                    "Brazil(!?* USA !?*)", tree, resolver=by_citizen_or_name
                )
            )

        expr = Q.extent("Families").sapply(pieces).build()
        metrics = PlanMetrics()
        with pytest.raises(ResourceExhaustedError) as excinfo:
            run_plan(expr, db, budget=Budget(max_steps=2000), metrics=metrics)
        exc = excinfo.value
        assert exc.limit_name == "max_steps"
        assert exc.metrics is metrics
        assert exc.plan_path == ()
        report = render_analysis(expr, db, exc.metrics, timings=False)
        assert report.splitlines()[0].startswith(exc.operator)
        assert "sapply[pieces]" in report
        assert "shard" not in report

    def test_worker_spend_is_written_back_to_the_query_guard(self):
        db = person_db()

        def hot(person):
            current_guard().tick(10, "test payload")
            return person.age

        expr = Q.extent("Person").sapply(hot).build()
        plan = lower(expr, db)
        with context.entered(Budget(max_steps=10**9).arm) as run:
            plan.execute(ExecutionContext(db=db, guard=run.guard, metrics=PlanMetrics()))
            # 300 members x 10 ticks each, all on the one query guard.
            assert run.guard.steps >= 3000

    def test_unbudgeted_parallel_run_works(self):
        db = person_db()
        expected = list(reference_eval(SELECT, db))
        for mode in MODES:
            result, _ = run_session(SELECT, db, mode)
            assert list(result) == expected


class TestMetricsAndExplain:
    def test_counters_match_the_sequential_run(self):
        db = person_db()
        counters = [
            dict(run_session(SELECT, db, mode)[1].get(()).counters) for mode in MODES
        ]
        assert counters[0] == counters[1] == counters[2]
        assert counters[0] == {"predicate_evals": 300}

    def test_per_shard_summaries_partition_the_input(self):
        db = person_db()
        metrics = PlanMetrics()
        result = run_plan(SELECT, db, metrics=metrics)
        root, extent = metrics.get(()), metrics.get((0,))
        assert extent.rows_out == 300
        assert root.rows_out == len(result)
        assert not hasattr(root, "shards")
        assert "shards" not in root.to_dict()

    def test_staged_input_is_an_honest_buffer(self):
        # The select streams its input: the only buffer it reports is
        # the result sink, and the plan-wide peak is that sink.
        db = person_db()
        metrics = PlanMetrics()
        result = run_plan(SELECT, db, metrics=metrics)
        assert metrics.get(()).peak_buffered == len(result)
        assert metrics.peak_intermediate() == len(result)

    def test_explain_analyze_renders_per_shard_rows(self):
        db = person_db()
        metrics = PlanMetrics()
        run_plan(SELECT, db, metrics=metrics)
        report = render_analysis(SELECT, db, metrics, timings=False)
        assert "shard" not in report
        assert "[threads]" not in report
        assert report.splitlines() == [
            "sselect[x.age > 30]  (est rows≈30, cost≈300 | act rows=145, units=300)",
            "  · predicate_evals=300",
            "  extent(Person)  (est rows≈300, cost≈1 | act rows=300, units=0)",
        ]

    def test_merge_rolls_shard_registries_into_the_exchange_record(self):
        # Every predicate evaluation is credited once, to the select.
        db = person_db()
        metrics = PlanMetrics()
        run_plan(SELECT, db, metrics=metrics)
        assert metrics.get(()).counters["predicate_evals"] == 300
        assert metrics.get((0,)).counters["predicate_evals"] == 0


class TestProcessMode:
    def test_process_parity_and_summaries(self):
        # A pool worker returns what the calling thread would, and the
        # pool's stats summarize every run.
        db = person_db()
        expected = list(run_plan(SELECT, db))
        with SessionPool(db, workers=2) as pool:
            futures = [pool.submit(SELECT, parallel=m) for m in MODES]
            assert all(list(f.result()) == expected for f in futures)
            summary = pool.stats.snapshot()
        assert summary["submitted"] == summary["completed"] == len(MODES)
        assert summary["failed"] == 0

    def test_unpicklable_results_fall_back_to_threads(self):
        # Nothing is pickled on the way: images need not be picklable.
        db = person_db()

        def unpicklable(person):
            return lambda: person.age

        expr = Q.extent("Person").sapply(unpicklable).build()
        result = run_plan(expr, db)
        assert len(result) == 300
        assert sorted(image() for image in result)[:2] == [0, 0]

    def test_process_budget_trip_is_attributed(self):
        # A trip on a SessionPool worker reaches the caller through the
        # Future with its limit and operator.
        db = person_db()

        def hot(person):
            current_guard().tick(50, "test payload")
            return person.age

        expr = Q.extent("Person").sapply(hot).build()
        with SessionPool(db, workers=2) as pool:
            future = pool.submit(expr, budget=Budget(max_steps=1000))
            with pytest.raises(ResourceExhaustedError) as excinfo:
                future.result()
        assert excinfo.value.limit_name == "max_steps"
        assert excinfo.value.operator == "sapply[hot]"


class TestSessionKnobs:
    def test_session_validates_parallel_naming_the_knob(self):
        with pytest.raises(QueryError, match="parallel"):
            Session(Database(), parallel="turbo")
        with pytest.raises(QueryError, match="parallel"):
            Session(person_db(5)).query(SELECT, parallel="turbo")

    def test_session_validates_workers_naming_the_knob(self):
        # parallel_workers= is retired: passing it is a TypeError.
        with pytest.raises(TypeError, match="parallel_workers"):
            Session(Database(), parallel_workers="many")
        with pytest.raises(TypeError, match="parallel_workers"):
            Session(person_db(5)).query(SELECT, parallel_workers=0)

    def test_session_parallel_matches_sequential(self):
        db = person_db()
        on = Session(db, parallel="on")
        off = Session(db, parallel="off")
        query = Q.extent("Person").sselect(attr("age") > 30)
        assert list(on.query(query)) == list(off.query(query))
        assert list(on.query(query)) == list(reference_eval(query.build(), db))

    def test_per_call_knob_beats_session_knob(self):
        db = person_db()
        session = Session(db, budget=Budget(max_steps=10**9))
        query = Q.extent("Person").sselect(attr("age") > 30)
        with pytest.raises(ResourceExhaustedError):
            session.query(query, budget=Budget(max_steps=1))
        assert len(session.query(query)) == 145

    def test_snapshot_inherits_parallel_knobs(self):
        budget = Budget(max_steps=10**6)
        session = Session(person_db(), budget=budget, parallel="on")
        snap = session.snapshot()
        assert snap.budget is budget
        assert snap.plan_cache is session.plan_cache
        assert not hasattr(snap, "parallel")
