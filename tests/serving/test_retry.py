"""RetryPolicy and run_with_policy: deterministic backoff, degradation,
breaker wiring, deadline carving (PR 7)."""

import pytest

from repro.errors import (
    CircuitOpenError,
    InjectedFaultError,
    QueryError,
    ResourceExhaustedError,
)
from repro.guardrails import Budget
from repro.serving import (
    BreakerBoard,
    PoolStats,
    RetryPolicy,
    run_with_policy,
)
from repro.serving import retry as retry_module


@pytest.fixture
def no_sleep(monkeypatch):
    """Capture backoff sleeps instead of waiting them out."""
    slept: list[float] = []
    monkeypatch.setattr(retry_module, "_sleep", slept.append)
    return slept


def transient(seam: str = "storage_lookup") -> InjectedFaultError:
    return InjectedFaultError(seam, 1)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0
        )
        rng = policy.rng("k")
        assert policy.backoff(1, rng) == pytest.approx(0.1)
        assert policy.backoff(2, rng) == pytest.approx(0.2)
        assert policy.backoff(3, rng) == pytest.approx(0.3)  # capped
        assert policy.backoff(4, rng) == pytest.approx(0.3)

    def test_schedule_is_deterministic_per_key(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.5, seed=42)
        assert policy.schedule("req-1") == policy.schedule("req-1")
        assert policy.schedule("req-1") != policy.schedule("req-2")

    def test_seed_changes_the_schedule(self):
        a = RetryPolicy(max_attempts=5, jitter=0.5, seed=1)
        b = RetryPolicy(max_attempts=5, jitter=0.5, seed=2)
        assert a.schedule("k") != b.schedule("k")

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.1, multiplier=1.0, jitter=0.5
        )
        for delay in policy.schedule("k"):
            assert 0.05 <= delay <= 0.1


class TestRunWithPolicy:
    def test_success_first_try(self, no_sleep):
        stats = PoolStats()
        result = run_with_policy(
            lambda step, budget: "ok",
            policy=RetryPolicy(max_attempts=3),
            stats=stats,
        )
        assert result == "ok"
        assert stats.counters["attempts"] == 1
        assert stats.counters["retries"] == 0
        assert no_sleep == []

    def test_transient_failure_retried_then_succeeds(self, no_sleep):
        stats = PoolStats()
        attempts = []

        def runner(step, budget):
            attempts.append(step)
            if len(attempts) < 3:
                raise transient()
            return "recovered"

        result = run_with_policy(
            runner, policy=RetryPolicy(max_attempts=4), stats=stats
        )
        assert result == "recovered"
        assert len(attempts) == 3
        assert len(no_sleep) == 2
        assert stats.counters["retries"] == 2

    def test_permanent_failure_raises_immediately(self, no_sleep):
        stats = PoolStats()
        calls = []

        def runner(step, budget):
            calls.append(1)
            raise QueryError("no such root")

        with pytest.raises(QueryError):
            run_with_policy(
                runner, policy=RetryPolicy(max_attempts=5), stats=stats
            )
        assert len(calls) == 1
        assert stats.counters["failed_permanent"] == 1
        assert no_sleep == []

    def test_retries_exhausted_reraises_last_transient(self, no_sleep):
        stats = PoolStats()

        def runner(step, budget):
            raise transient()

        with pytest.raises(InjectedFaultError):
            run_with_policy(
                runner, policy=RetryPolicy(max_attempts=3), stats=stats
            )
        assert stats.counters["attempts"] == 3
        assert stats.counters["retries_exhausted"] == 1

    def test_degradation_ladder_walked_in_order(self, no_sleep):
        """Retry 1 bypasses the plan cache; every later retry also plans
        unoptimized, and each degraded attempt is counted by name."""
        rungs = []
        stats = PoolStats()

        def runner(rung, budget):
            rungs.append(rung)
            raise transient()

        with pytest.raises(InjectedFaultError):
            run_with_policy(runner, policy=RetryPolicy(max_attempts=6), stats=stats)
        assert rungs == [
            None,
            retry_module.BYPASS_PLAN_CACHE,
            retry_module.UNOPTIMIZED_PLAN,
            retry_module.UNOPTIMIZED_PLAN,  # the last rung repeats
            retry_module.UNOPTIMIZED_PLAN,  # ... for as long as the policy retries
            retry_module.UNOPTIMIZED_PLAN,
        ]
        assert rungs[1:3] == ["bypass-plan-cache", "unoptimized-plan"]
        assert stats.counters["degraded_attempts"] == 5
        assert stats.counters["degraded_bypass_plan_cache"] == 1
        assert stats.counters["degraded_unoptimized_plan"] == 4

    def test_degrade_false_never_walks_the_ladder(self, no_sleep):
        rungs = []
        stats = PoolStats()

        def runner(rung, budget):
            rungs.append(rung)
            raise transient()

        with pytest.raises(InjectedFaultError):
            run_with_policy(
                runner,
                policy=RetryPolicy(max_attempts=3, degrade=False),
                stats=stats,
            )
        assert rungs == [None, None, None]
        assert stats.counters["degraded_attempts"] == 0

    def test_budget_deadline_carved_per_attempt(self, no_sleep):
        clock = {"now": 0.0}
        budgets = []

        def fake_clock():
            return clock["now"]

        def runner(step, budget):
            budgets.append(budget)
            clock["now"] += 1.0
            if len(budgets) < 3:
                raise transient()
            return "ok"

        run_with_policy(
            runner,
            policy=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0),
            budget=Budget(deadline_seconds=10.0),
            clock=fake_clock,
        )
        deadlines = [b.deadline_seconds for b in budgets]
        assert deadlines[0] == pytest.approx(10.0)
        assert deadlines[1] == pytest.approx(9.0)
        assert deadlines[2] == pytest.approx(8.0)

    def test_backoff_past_deadline_aborts_instead_of_sleeping(self, no_sleep):
        clock = {"now": 0.0}

        def runner(step, budget):
            clock["now"] += 0.9
            raise transient()

        with pytest.raises(InjectedFaultError):
            run_with_policy(
                runner,
                policy=RetryPolicy(
                    max_attempts=5, base_delay=0.5, jitter=0.0
                ),
                budget=Budget(deadline_seconds=1.0),
                clock=lambda: clock["now"],
            )
        # first attempt ends at 0.9; 0.9 + 0.5 backoff >= 1.0 deadline
        assert no_sleep == []

    def test_repin_called_between_attempts(self, no_sleep):
        repins = []

        def runner(step, budget):
            if not repins:
                raise transient()
            return "ok"

        stats = PoolStats()
        run_with_policy(
            runner,
            policy=RetryPolicy(max_attempts=3, repin=True),
            repin=lambda: repins.append(1),
            stats=stats,
        )
        assert repins == [1]
        assert stats.counters["repins"] == 1

    def test_repin_disabled_by_policy(self, no_sleep):
        repins = []
        calls = []

        def runner(step, budget):
            calls.append(1)
            if len(calls) < 2:
                raise transient()
            return "ok"

        run_with_policy(
            runner,
            policy=RetryPolicy(max_attempts=3, repin=False),
            repin=lambda: repins.append(1),
        )
        assert repins == []


class TestBreakerIntegration:
    def test_failures_trip_the_seam_breaker(self, no_sleep):
        board = BreakerBoard(failure_threshold=2)
        stats = PoolStats()

        def runner(step, budget):
            raise transient("index_probe")

        # Threshold 2 trips during attempt 2's bookkeeping; the loop
        # then refuses to burn attempt 3 and sheds with CircuitOpenError.
        with pytest.raises(CircuitOpenError) as info:
            run_with_policy(
                runner,
                policy=RetryPolicy(max_attempts=5),
                breakers=board,
                stats=stats,
            )
        assert info.value.seam == "index_probe"
        assert isinstance(info.value.__cause__, InjectedFaultError)
        assert board.breaker("index_probe").state == "open"
        assert stats.counters["breaker_short_circuits"] == 1
        assert stats.counters["attempts"] == 2

    def test_open_breaker_sheds_new_requests_after_one_attempt(self, no_sleep):
        board = BreakerBoard(failure_threshold=1)

        def runner(step, budget):
            raise transient("storage_lookup")

        with pytest.raises(CircuitOpenError):
            run_with_policy(
                runner, policy=RetryPolicy(max_attempts=4), breakers=board
            )
        calls = []

        def counting_runner(step, budget):
            calls.append(1)
            raise transient("storage_lookup")

        with pytest.raises(CircuitOpenError):
            run_with_policy(
                counting_runner,
                policy=RetryPolicy(max_attempts=4),
                breakers=board,
            )
        assert len(calls) == 1  # no retry schedule burned

    def test_success_credits_previously_failed_seams(self, no_sleep):
        board = BreakerBoard(failure_threshold=5)
        calls = []

        def runner(step, budget):
            calls.append(1)
            if len(calls) < 3:
                raise transient("matcher_step")
            return "ok"

        run_with_policy(
            runner, policy=RetryPolicy(max_attempts=4), breakers=board
        )
        report = board.breaker("matcher_step").snapshot()
        assert report["consecutive_failures"] == 0

    def test_transient_budget_pressure_uses_seam_breaker(self, no_sleep):
        board = BreakerBoard(failure_threshold=1)

        def runner(step, budget):
            raise ResourceExhaustedError(
                "injected", limit_name="injected", seam="optimizer_rewrite"
            )

        with pytest.raises(CircuitOpenError) as info:
            run_with_policy(
                runner, policy=RetryPolicy(max_attempts=3), breakers=board
            )
        assert info.value.seam == "optimizer_rewrite"
