"""SessionPool: concurrent snapshot-isolated serving (PR 6 tentpole)."""

import threading
import time

import pytest

from repro import Database, Record, Session, SessionPool
from repro.algebra.update import insert_at, replace_at
from repro.core.aqua_list import AquaList
from repro.errors import ResourceExhaustedError
from repro.guardrails import Budget, current_guard
from repro.patterns.tree_memo import current_registry
from repro.query.plan_cache import PlanCache

AQL_ADULTS = "extent Person | sselect {age >= 18} | project name"


def seeded_db(people: int = 40) -> Database:
    db = Database()
    for i in range(people):
        db.insert(Record(name=f"p{i}", age=i), "Person")
    db.bind_root("L", AquaList.from_values(list(range(8))))
    return db


class TestPoolBasics:
    def test_query_round_trip(self):
        db = seeded_db()
        with SessionPool(db, workers=2, plan_cache=PlanCache()) as pool:
            names = sorted(pool.query(AQL_ADULTS))
        expected = sorted(Session(db, plan_cache=PlanCache()).query(AQL_ADULTS))
        assert names == expected

    def test_submit_pins_at_submission_not_execution(self):
        db = seeded_db(people=5)
        with SessionPool(db, workers=1, plan_cache=PlanCache()) as pool:
            future = pool.submit("extent Person | project name")
            db.insert(Record(name="late", age=30), "Person")
            assert "late" not in set(future.result())

    def test_shared_pin_spans_queries(self):
        db = seeded_db(people=5)
        with SessionPool(db, workers=2, plan_cache=PlanCache()) as pool:
            pin = pool.pin()
            db.insert(Record(name="late", age=30), "Person")
            first = pool.submit("extent Person | project name", snapshot=pin)
            second = pool.submit("extent Person | project name", snapshot=pin)
            assert set(first.result()) == set(second.result())
            assert "late" not in set(first.result())

    def test_submit_update_serializes_and_applies(self):
        db = seeded_db()
        with SessionPool(db, workers=4, plan_cache=PlanCache()) as pool:
            futures = [
                pool.submit_update("L", insert_at, 0, -(i + 1)) for i in range(8)
            ]
            for future in futures:
                future.result()
        values = db.root("L").values()
        # All eight inserts landed (order depends on scheduling).
        assert len(values) == 16
        assert set(values) == set(range(-8, 8))

    def test_update_failure_propagates_and_rolls_back(self):
        db = seeded_db()
        before = db.root("L").values()

        def exploding(_value):
            raise RuntimeError("boom")

        with SessionPool(db, workers=1, plan_cache=PlanCache()) as pool:
            future = pool.submit_update("L", exploding)
            with pytest.raises(RuntimeError):
                future.result()
        assert db.root("L").values() == before

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionPool(seeded_db(1), workers=0)


class TestStress:
    def test_concurrent_mixed_workload_no_cross_session_corruption(self):
        """Satellite 4: N threads, mixed reads/updates, bit-identical
        per-snapshot results vs serial re-execution on the same pin."""
        db = seeded_db(people=30)
        cache = PlanCache()
        queries = [
            AQL_ADULTS,
            "extent Person | sselect {age < 10} | project name",
            "extent Person | project name",
        ]
        pins = []
        futures = []
        with SessionPool(db, workers=8, plan_cache=cache) as pool:
            for round_number in range(12):
                pin = pool.pin()
                source = queries[round_number % len(queries)]
                pins.append((pin, source))
                futures.append(pool.submit(source, snapshot=pin))
                # Interleave writers: inserts move extent versions, root
                # updates move root versions; neither may leak into a
                # pinned read.
                pool.submit_update(
                    "L", replace_at, 0, 100 + round_number
                ).result()
                db.insert(Record(name=f"new{round_number}", age=21), "Person")
            concurrent_results = [sorted(f.result()) for f in futures]

        # Serial ground truth: re-run each query on its own pin after all
        # writers finished — the pin must still show exactly what the
        # concurrent run saw.
        for (pin, source), concurrent in zip(pins, concurrent_results):
            serial = sorted(Session(pin, plan_cache=PlanCache()).query(source))
            assert serial == concurrent

    def test_plan_cache_warms_across_workers(self):
        db = seeded_db()
        cache = PlanCache()
        with SessionPool(db, workers=4, plan_cache=cache) as pool:
            futures = [pool.submit(AQL_ADULTS) for _ in range(16)]
            for future in futures:
                future.result()
        stats = cache.snapshot()
        assert stats["hits"] >= 12  # one cold miss, the rest warm
        assert stats["entries"] == 1


class TestThreadStateLeakage:
    """Satellite 2: scopes armed on a pool thread must not bleed."""

    def _pool_thread_state(self, pool):
        """Run on the (single) worker: what per-query state lingers?"""
        return pool._pool.submit(
            lambda: (current_guard(), current_registry())
        ).result()

    def test_budget_trip_leaves_worker_thread_clean(self):
        db = seeded_db(people=50)
        tight = Budget(max_nodes_scanned=3)
        with SessionPool(db, workers=1, plan_cache=PlanCache()) as pool:
            future = pool.submit(AQL_ADULTS, budget=tight)
            with pytest.raises(ResourceExhaustedError):
                future.result()
            guard, registry = self._pool_thread_state(pool)
            assert guard is None
            assert registry is None
            # And the same thread still answers correctly afterwards.
            names = pool.submit(AQL_ADULTS).result()
            assert sorted(names) == sorted(
                f"p{i}" for i in range(18, 50)
            )

    def test_happy_path_leaves_worker_thread_clean(self):
        db = seeded_db()
        with SessionPool(db, workers=1, plan_cache=PlanCache()) as pool:
            pool.submit(AQL_ADULTS).result()
            guard, registry = self._pool_thread_state(pool)
            assert guard is None
            assert registry is None

    def test_spent_budget_does_not_haunt_the_next_query(self):
        """A budget that tripped on one query must not pre-spend the
        next query's allowance on the same thread."""
        db = seeded_db(people=50)
        with SessionPool(db, workers=1, plan_cache=PlanCache()) as pool:
            with pytest.raises(ResourceExhaustedError):
                pool.submit(AQL_ADULTS, budget=Budget(max_nodes_scanned=3)).result()
            # A fresh, ample budget on the same worker thread succeeds —
            # it did not inherit the tripped guard's spent counters.
            names = pool.submit(
                AQL_ADULTS, budget=Budget(max_nodes_scanned=10_000)
            ).result()
            assert len(names) == 32


class TestSessionSnapshot:
    def test_session_snapshot_inherits_knobs(self):
        db = seeded_db()
        cache = PlanCache()
        session = Session(db, parallel="off", plan_cache=cache)
        pinned = session.snapshot()
        assert pinned.parallel == "off"
        assert pinned.plan_cache is cache
        assert pinned.db.readonly

    def test_session_and_snapshot_share_cache_entries(self):
        db = seeded_db()
        cache = PlanCache()
        session = Session(db, plan_cache=cache)
        session.query(AQL_ADULTS)
        pinned = session.snapshot()
        pinned.query(AQL_ADULTS)
        stats = cache.snapshot()
        assert stats["entries"] == 1
        assert stats["hits"] >= 1


class TestConcurrentReadersUnderWriters:
    def test_readers_never_block_or_tear(self):
        db = seeded_db(people=20)
        stop = threading.Event()
        errors: list[Exception] = []

        def writer():
            # Bounded and yielding: the point is interleaving, not
            # drowning the readers in an ever-growing extent.
            for i in range(2000):
                if stop.is_set():
                    break
                db.insert(Record(name=f"w{i}", age=25), "Person")
                if i % 50 == 0:
                    time.sleep(0.001)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with SessionPool(db, workers=4, plan_cache=PlanCache()) as pool:
                for _ in range(20):
                    pin = pool.pin()
                    expected_size = pin.extent_size("Person")
                    result = pool.submit(
                        "extent Person | project name", snapshot=pin
                    ).result()
                    if len(result) != expected_size:
                        errors.append(
                            AssertionError(
                                f"torn read: {len(result)} != {expected_size}"
                            )
                        )
        finally:
            stop.set()
            thread.join()
        assert not errors
