"""The query context: one thread-local slot holds a run's guard, its
``$param`` bindings, its match registry and its counter receivers, armed
in one ``with`` and undone in one ``finally``."""

import pytest

from repro import Database, Q, Record, Session, attr, context
from repro.core import parse_tree
from repro.errors import ResourceExhaustedError
from repro.guardrails import ENV_KNOBS, Budget, current_guard
from repro.physical import ExecutionContext, lower
from repro.query.aql import parse_aql
from repro.query.interpreter import evaluate
from repro.workloads import song_with_melody


def small_db() -> Database:
    db = Database()
    db.bind_root("T", parse_tree("r(d(e(h i) j) s(d(e(h i) j) k) d(x))"))
    db.bind_root("song", song_with_melody(40, "ACDF", occurrences=2, seed=1))
    db.insert_many([Record(name=f"p{i}", age=i) for i in range(6)], "Person")
    return db


class TestEnvironmentReadOncePerRun:
    """An unbudgeted run arms ``guard = None`` in its context, so the
    engines it calls join it instead of reading ``AQUA_*`` again."""

    @pytest.mark.parametrize(
        "query",
        ['root T | sub_select "d(e ?*)"', 'root song | lsub_select "[A??F]" by pitch'],
        ids=["sub_select", "lsub_select"],
    )
    @pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "unoptimized"])
    def test_an_unbudgeted_run_reads_the_budget_knobs_once(self, monkeypatch, query, optimize):
        db = small_db()
        session = Session(db)
        session.query(query, optimize=optimize)  # planned and compiled
        reads = []
        from_env = Budget.from_env.__func__

        def counted(cls, environ=None):
            reads.append(environ)
            return from_env(cls, environ)

        monkeypatch.setattr(Budget, "from_env", classmethod(counted))
        result = session.query(query, optimize=optimize)
        assert len(result) > 0
        assert len(reads) == 1


class TestOutermostWins:
    def test_a_query_inside_sapply_joins_the_outer_guard_and_registry(self):
        db = small_db()
        session = Session(db)
        seen = []

        def inner(person):
            outer = context.current()
            # A budget of one step would trip at once if it were armed.
            found = session.query('root T | sub_select "d(e ?*)"', budget=Budget(max_steps=1))
            seen.append((outer.guard, outer.registry, current_guard(), len(found)))
            return person.name

        alone = len(session.query('root T | sub_select "d(e ?*)"'))
        outer = Q.extent("Person").sapply(inner).build()
        names = session.query(outer, budget=Budget(max_steps=10**6))
        assert len(names) == 6
        guards = {id(guard) for guard, _, _, _ in seen}
        registries = {id(registry) for _, registry, _, _ in seen}
        assert len(guards) == len(registries) == 1
        guard = seen[0][0]
        assert guard.budget.max_steps == 10**6
        assert all(joined is guard and count == alone > 0 for _, _, joined, count in seen)
        assert context.current() is None

    def test_an_outer_budget_still_trips_inside_a_nested_run(self):
        db = small_db()
        session = Session(db)

        def inner(person):
            return len(session.query('root T | sub_select "d(e ?*)"'))

        with pytest.raises(ResourceExhaustedError) as info:
            session.query(Q.extent("Person").sapply(inner).build(), budget=Budget(max_steps=30))
        assert info.value.limit_name == "max_steps"
        assert context.current() is None


class TestAnExplicitBudgetArmsUnderAnUnbudgetedRun:
    """An unbudgeted run decides ``guard = None`` for the environment
    reads only: a nested run that brings a budget of its own still arms
    it, as ``guarded(budget)`` did."""

    @pytest.fixture(autouse=True)
    def _no_env_budget(self, monkeypatch):
        for knob in ENV_KNOBS:
            monkeypatch.delenv(knob, raising=False)

    @pytest.mark.parametrize("via", ["session", "evaluate"])
    def test_a_nested_budget_trips_inside_an_unbudgeted_sapply(self, via):
        db = small_db()
        session = Session(db)
        tiny = Budget(max_steps=1)

        def inner(person):
            query = parse_aql('root T | sub_select "d(e ?*)"')
            if via == "session":
                return len(session.query(query, budget=tiny))
            return len(evaluate(query, db, budget=tiny))

        with pytest.raises(ResourceExhaustedError) as info:
            session.query(Q.extent("Person").sapply(inner).build())
        assert info.value.limit_name == "max_steps"
        assert context.current() is None

    def test_the_outer_run_is_unbudgeted_again_after_the_nested_one(self):
        db = small_db()
        session = Session(db)
        seen = []

        def inner(person):
            session.query('root T | sub_select "d(e ?*)"', budget=Budget(max_steps=10**6))
            seen.append(current_guard())
            return person.name

        assert len(session.query(Q.extent("Person").sapply(inner).build())) == 6
        assert seen == [None] * 6


class TestAPlanExecutedDirectlyCountsEngineEvents:
    def test_matcher_counts_reach_the_database_sink(self):
        db = small_db()
        plan = lower(parse_aql('root song | lsub_select "[A??F]" by pitch'), db)
        db.stats.reset()
        assert len(plan.execute(ExecutionContext(db=db))) > 0
        assert db.stats["predicate_evals"] > 0
        assert context.current() is None


class TestBindingsLayer:
    def test_a_nested_run_sees_its_own_and_the_outer_bindings(self):
        db = small_db()
        session = Session(db)
        ranges = []

        def inner(person):
            rows = session.query(
                Q.extent("Person")
                .sselect((attr("age") >= Q.param("low")) & (attr("age") < Q.param("high")))
                .build(),
                {"high": person.age + 2},
            )
            ranges.append(sorted(row.age for row in rows))
            return person.age

        outer = Q.extent("Person").sselect(attr("age") < Q.param("high")).sapply(inner)
        session.query(outer.build(), {"low": 1, "high": 3})
        assert ranges == [[1], [1, 2], [1, 2, 3]]
        assert context.current() is None

