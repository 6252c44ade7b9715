"""SessionPool resilience wiring: retries, shedding, close hardening
(PR 7 tentpole integration)."""

import threading

import pytest

from repro import Database, Record, SessionPool, faults
from repro.errors import (
    InjectedFaultError,
    QueryError,
    ServerOverloadedError,
)
from repro.serving import PoolStats, RetryPolicy

AQL_ADULTS = "extent Person | sselect {age >= 18} | project name"

FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.0005, max_delay=0.002, seed=11
)


def seeded_db(people: int = 30) -> Database:
    db = Database()
    for i in range(people):
        db.insert(Record(name=f"p{i}", age=i), "Person")
    return db


@pytest.fixture(autouse=True)
def no_env_faults():
    """Keep any AQUA_FAULTS environment out of these tests."""
    previous = faults.install(None)
    try:
        yield
    finally:
        faults.install(previous)


def chaos_plan() -> faults.FaultPlan:
    return faults.FaultPlan(faults.parse_rules("storage_lookup:error:0.05"), seed=42)


class FailFirstK(faults.FaultPlan):
    """Raise at a seam for the first ``k`` checks, then heal."""

    def __init__(self, seam: str, k: int) -> None:
        super().__init__()
        self.fail_seam = seam
        self.remaining = k
        self._gate = threading.Lock()

    def check(self, seam: str) -> None:
        if seam != self.fail_seam:
            return
        with self._gate:
            if self.remaining <= 0:
                return
            self.remaining -= 1
            hit = self.remaining
        raise InjectedFaultError(seam, hit)


class TestRetriesThroughThePool:
    def test_transient_faults_retried_to_success(self):
        db = seeded_db()
        with SessionPool(db, workers=2, retry_policy=FAST_RETRY) as pool:
            clean = sorted(pool.query(AQL_ADULTS, retry_policy=None))
            with faults.injected(FailFirstK("storage_lookup", 2)):
                retried = sorted(pool.query(AQL_ADULTS))
            assert retried == clean
            assert pool.stats.counters["retries"] >= 1
            assert pool.stats.counters["completed"] == 2

    def test_retried_result_bit_identical_to_clean_run(self):
        db = seeded_db()
        with SessionPool(db, workers=1, retry_policy=FAST_RETRY) as pool:
            clean = pool.query(AQL_ADULTS, retry_policy=None)
            with faults.injected(FailFirstK("storage_lookup", 3)):
                faulty = pool.query(AQL_ADULTS)
            assert list(faulty) == list(clean)
            # The chaos plan the serving layer was calibrated on: seeded,
            # and drawn by one worker, so the storm is the same every run.
            # Nine reads of 120 hit a fault; each retries once and answers.
            chaos = chaos_plan()
            with faults.injected(chaos):
                storm = [list(pool.query(AQL_ADULTS)) for _ in range(120)]
            assert storm == [list(clean)] * 120
            assert chaos.snapshot()["fired"] == {"storage_lookup": 9}
            snap = pool.stats.snapshot()
            assert snap["retries"] == 3 + 9
            assert snap["availability"] == 1.0
            assert snap["retry_amplification"] <= 3.0

    def test_no_policy_means_no_retries(self):
        db = seeded_db()
        with SessionPool(db, workers=1) as pool:
            with faults.injected(FailFirstK("storage_lookup", 1)):
                with pytest.raises(InjectedFaultError):
                    pool.query(AQL_ADULTS)
            assert pool.stats.counters["attempts"] == 1
            assert pool.stats.counters["failed"] == 1
            # The same nine faults with nothing to absorb them.
            with faults.injected(chaos_plan()):
                for _ in range(120):
                    try:
                        pool.query(AQL_ADULTS)
                    except InjectedFaultError:
                        pass
            assert pool.stats.counters["failed"] == 1 + 9
            assert pool.stats.counters["attempts"] == 1 + 120

    def test_per_call_policy_override(self):
        db = seeded_db()
        with SessionPool(db, workers=1, retry_policy=FAST_RETRY) as pool:
            with faults.injected(FailFirstK("storage_lookup", 1)):
                with pytest.raises(InjectedFaultError):
                    pool.query(AQL_ADULTS, retry_policy=None)

    def test_explicit_shared_pin_is_never_repinned(self):
        db = seeded_db(people=5)
        with SessionPool(db, workers=1, retry_policy=FAST_RETRY) as pool:
            pin = pool.pin()
            db.insert(Record(name="late", age=99), "Person")
            with faults.injected(FailFirstK("storage_lookup", 2)):
                names = pool.query(
                    "extent Person | project name", snapshot=pin
                )
            assert "late" not in set(names)
            assert pool.stats.counters["repins"] == 0

    def test_pool_pinned_snapshot_repins_on_retry(self):
        db = seeded_db(people=5)
        with SessionPool(db, workers=1, retry_policy=FAST_RETRY) as pool:
            with faults.injected(FailFirstK("storage_lookup", 2)):
                pool.query(AQL_ADULTS)
            assert pool.stats.counters["repins"] >= 1

    def test_permanent_error_not_retried(self):
        from repro.errors import StorageError

        db = seeded_db()
        with SessionPool(db, workers=1, retry_policy=FAST_RETRY) as pool:
            with pytest.raises(StorageError):
                pool.query("root nosuchroot")
            assert pool.stats.counters["attempts"] == 1
            assert pool.stats.counters["failed_permanent"] == 1

    def test_degraded_attempts_never_pollute_the_shared_cache(self):
        db = seeded_db()
        with SessionPool(db, workers=1, retry_policy=FAST_RETRY) as pool:
            before = len(pool.plan_cache)
            with faults.injected(FailFirstK("storage_lookup", 2)):
                pool.query(AQL_ADULTS)
            # Only the clean first-attempt prepare may have cached;
            # degraded re-plans route around the cache.
            assert len(pool.plan_cache) <= before + 1
            assert pool.stats.counters["degraded_attempts"] >= 1


class TestAdmissionThroughThePool:
    def test_sheds_when_queue_is_full(self):
        db = seeded_db()
        release = threading.Event()

        def slow_update(value):
            release.wait(5.0)
            return value

        with SessionPool(
            db, workers=1, max_in_flight=2, plan_cache=None
        ) as pool:
            futures = []
            shed = 0
            # Saturate the single worker, then the queue.
            from repro.core.aqua_list import AquaList

            db.bind_root("L", AquaList.from_values([1, 2, 3]))
            futures.append(
                pool.submit_update("L", lambda v: (release.wait(5.0), v)[1])
            )
            try:
                for _ in range(6):
                    try:
                        futures.append(pool.submit(AQL_ADULTS))
                    except ServerOverloadedError:
                        shed += 1
            finally:
                release.set()
            for future in futures:
                future.result()
            assert shed >= 1
            assert pool.stats.counters["shed_overload"] == shed
            assert pool.admission.snapshot()["shed"] == shed

    def test_shed_error_carries_queue_stats(self):
        db = seeded_db()
        release = threading.Event()
        from repro.core.aqua_list import AquaList

        db.bind_root("L", AquaList.from_values([1]))
        with SessionPool(db, workers=1, max_in_flight=1) as pool:
            future = pool.submit_update(
                "L", lambda v: (release.wait(5.0), v)[1]
            )
            try:
                with pytest.raises(ServerOverloadedError) as info:
                    pool.submit(AQL_ADULTS)
            finally:
                release.set()
            future.result()
            stats = info.value.queue_stats()
            assert stats["max_in_flight"] == 1
            assert stats["queued"] + stats["in_flight"] >= 1


class TestCloseHardening:
    def test_close_is_idempotent(self):
        pool = SessionPool(seeded_db(), workers=1)
        pool.close()
        pool.close()
        pool.close(wait=False)
        assert pool.closed

    def test_submit_after_close_raises_query_error(self):
        pool = SessionPool(seeded_db(), workers=1)
        pool.close()
        with pytest.raises(QueryError, match="closed"):
            pool.submit(AQL_ADULTS)
        with pytest.raises(QueryError, match="closed"):
            pool.submit_update("L", lambda v: v)

    def test_close_cancel_futures_cancels_queued_work(self):
        db = seeded_db()
        started = threading.Event()
        release = threading.Event()
        from repro.core.aqua_list import AquaList

        def blocking_update(value):
            started.set()
            release.wait(5.0)
            return value

        db.bind_root("L", AquaList.from_values([1]))
        pool = SessionPool(db, workers=1)
        blocker = pool.submit_update("L", blocking_update)
        assert started.wait(5.0)  # the single worker is now occupied
        queued = [pool.submit(AQL_ADULTS) for _ in range(4)]
        pool.close(wait=False, cancel_futures=True)
        release.set()
        blocker.result()
        assert all(future.cancelled() for future in queued)
        pool.close()  # idempotent, now waits out the worker

    def test_context_manager_close_still_works(self):
        with SessionPool(seeded_db(), workers=1) as pool:
            pool.query(AQL_ADULTS)
        assert pool.closed


class TestObservability:
    def test_observability_report_shape(self):
        db = seeded_db()
        with SessionPool(db, workers=1, retry_policy=FAST_RETRY) as pool:
            with faults.injected(FailFirstK("storage_lookup", 1)):
                pool.query(AQL_ADULTS)
            report = pool.observability()
        assert set(report) == {"pool", "breakers", "admission"}
        snap = report["pool"]
        for key in (
            "submitted",
            "admitted",
            "shed_overload",
            "attempts",
            "retries",
            "breaker_transitions",
            "breaker_to_open",
            "retry_amplification",
            "availability",
        ):
            assert key in snap
        assert snap["latency"]["count"] == 1
        assert "storage_lookup" in report["breakers"]

    def test_pool_stats_merge(self):
        db = seeded_db()
        merged = PoolStats()
        for _ in range(2):
            with SessionPool(db, workers=1, retry_policy=FAST_RETRY) as pool:
                pool.query(AQL_ADULTS)
                merged.merge(pool.stats)
        snap = merged.snapshot()
        assert snap["completed"] == 2
        assert snap["latency"]["count"] == 2

    def test_breaker_transitions_counted_in_stats(self):
        from repro.serving import BreakerBoard

        db = seeded_db()
        board = BreakerBoard(failure_threshold=2)
        with SessionPool(
            db,
            workers=1,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0005, max_delay=0.001
            ),
            breakers=board,
        ) as pool:
            with faults.injected(
                faults.FaultPlan(
                    [faults.FaultRule("storage_lookup", "error", 1.0)]
                )
            ):
                with pytest.raises(InjectedFaultError):
                    pool.query(AQL_ADULTS)
            snap = pool.stats.snapshot()
            assert snap["breaker_to_open"] == 1
            assert snap["breaker_transitions"] == 1
