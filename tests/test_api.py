"""The Session API: knob precedence, validation, and the planning footer."""

import pytest

from repro import Session, default_session, faults
from repro.config import FAULTS_ENV
from repro.core import parse_tree
from repro.core.identity import Record
from repro.errors import QueryError, ResourceExhaustedError
from repro.guardrails import ENV_KNOBS, Budget
from repro.predicates import attr
from repro.query import Q, PlanCache
from repro.storage import Database


@pytest.fixture()
def db():
    database = Database()
    database.bind_root("T", parse_tree("r(d(e(h i) j) s(d(e(h i) j) k) d(x))"))
    for i in range(12):
        database.insert(Record(name=f"p{i}", age=20 + i), "Person")
    return database


@pytest.fixture()
def wide_db(monkeypatch):
    """A 300-member extent, with no budget knob in the environment."""
    for knob in ENV_KNOBS:
        monkeypatch.delenv(knob, raising=False)
    database = Database()
    for i in range(300):
        database.insert(Record(name=f"p{i}", age=i), "Person")
    return database


def tripped(session, **knobs):
    """The limit one wide select trips under the resolved budget, or None."""
    query = Q.extent("Person").sselect(attr("age") >= 0).node
    try:
        session.query(query, **knobs)
    except ResourceExhaustedError as exc:
        return exc.limit_name
    return None


class TestKnobValidation:
    def test_retired_executor_keyword_is_a_type_error(self, db):
        for retired in (
            {"executor": "eager"},
            {"engine": "backtrack"},
            {"parallel_workers": 2},
        ):
            with pytest.raises(TypeError):
                Session(db, **retired)
            with pytest.raises(TypeError):
                Session(db).query(Q.extent("Person").node, **retired)

    def test_retired_executor_env_var_is_ignored(self, db, monkeypatch):
        monkeypatch.setenv("AQUA_EXECUTOR", "turbo")
        monkeypatch.setenv("AQUA_TREE_ENGINE", "backtrack")
        assert len(Session(db).query(Q.extent("Person").node)) == 12
        # Really ignored: a closure pattern still goes through the tables.
        closure = Q.root("T").sub_select("[[d(@ ?*)]]+@ .@ e(h i)").node
        result, metrics = Session(db).query_with_metrics(closure)
        assert len(result) == 1  # value-equal matches collapse in the set
        assert metrics.totals()["memo_misses"] > 0

    def test_bad_env_value_rejected_on_first_read(self, db, monkeypatch):
        query = Q.root("T").sub_select("s(?* d(e j) ?* k)").node
        # The retired compile-cache variable is never read at all.
        monkeypatch.setenv("AQUA_DFA_CACHE_LIMIT", "turbo")
        assert len(Session(db, plan_cache=PlanCache()).query(query)) == 1
        # A malformed AQUA_FAULTS is read at import and raised at the
        # first fault point a query reaches, naming the knob.
        monkeypatch.setenv(FAULTS_ENV, "turbo")
        _, error = faults._initial_state()
        monkeypatch.setattr(faults, "_env_error", error)
        monkeypatch.setattr(faults, "_active", None)
        session = Session(db, plan_cache=PlanCache())
        with pytest.raises(QueryError, match=FAULTS_ENV):
            session.query(query)

    def test_bad_per_call_value_rejected(self, db):
        session = Session(db)
        with pytest.raises(QueryError, match="parallel"):
            session.query(Q.root("T").sub_select("d(e j)").node, parallel="nope")


class TestPrecedence:
    def test_call_kwarg_beats_session_kwarg(self, wide_db, monkeypatch):
        # the session says ample steps; the call says one; both beat env
        monkeypatch.setenv("AQUA_MAX_NODES_SCANNED", "1")
        session = Session(wide_db, budget=Budget(max_steps=10**9))
        assert tripped(session, budget=Budget(max_steps=1)) == "max_steps"
        assert tripped(session) is None

    def test_session_kwarg_beats_env(self, wide_db, monkeypatch):
        monkeypatch.setenv("AQUA_MAX_STEPS", "1")
        assert tripped(Session(wide_db, budget=Budget(max_steps=10**9))) is None

    def test_env_beats_default(self, wide_db, monkeypatch):
        assert tripped(Session(wide_db)) is None
        monkeypatch.setenv("AQUA_MAX_STEPS", "1")
        assert tripped(Session(wide_db)) == "max_steps"


class TestSessionBehavior:
    def test_aql_text_optimizes_by_default(self, db):
        session = Session(db, plan_cache=PlanCache())
        prepared = session.prepare("extent Person | sselect {age = 25}")
        assert prepared.optimize is True

    def test_expr_runs_as_written_by_default(self, db):
        session = Session(db, plan_cache=PlanCache())
        prepared = session.prepare(Q.extent("Person").node)
        assert prepared.optimize is False

    def test_legacy_wrappers_share_the_default_cache(self, db):
        a = default_session(db)
        b = default_session(db)
        assert a.plan_cache is b.plan_cache

    def test_explain_footer_reports_cache_traffic(self, db):
        session = Session(db, plan_cache=PlanCache())
        query = "extent Person | sselect {age = $limit} | project name"
        cold = session.explain(query, {"limit": 25})
        assert "plan_cache_misses=1" in cold
        warm = session.explain(query, {"limit": 26})
        assert "plan_cache_hits=1" in warm
        assert "optimizer_rewrites=0" in warm
        assert "pattern_compilations=0" in warm

    def test_query_with_metrics_collects(self, db):
        session = Session(db, plan_cache=PlanCache())
        result, metrics = session.query_with_metrics(
            Q.extent("Person").sselect(attr("age") == 25).node
        )
        assert {p.name for p in result} == {"p5"}
        assert metrics.get(()) is not None


class TestKnobAlignment:
    """One knob surface: Session.query / SessionPool.submit /
    PreparedQuery.run spell every knob the same way."""

    KNOBS = {"budget", "parallel"}

    @staticmethod
    def _keywords(fn):
        import inspect

        return {
            name
            for name, parameter in inspect.signature(fn).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }

    def test_entry_points_share_knob_names(self):
        from repro.api import Session, SessionPool
        from repro.query.prepare import PreparedQuery

        assert self.KNOBS | {"optimize", "cache"} <= self._keywords(Session.query)
        assert self.KNOBS | {"optimize", "cache"} <= self._keywords(
            SessionPool.submit
        )
        assert self.KNOBS <= self._keywords(PreparedQuery.run)

    def test_params_spelled_identically(self):
        import inspect

        from repro.api import Session, SessionPool
        from repro.query.prepare import PreparedQuery

        for fn in (Session.query, SessionPool.submit, PreparedQuery.run):
            assert "params" in inspect.signature(fn).parameters

    def test_resolver_applies_call_over_session_precedence(self, db):
        session_budget, call_budget = Budget(max_steps=10), Budget(max_steps=20)
        session = Session(db, budget=session_budget, parallel="off")
        source = Q.extent("Person").node
        knobs = session.resolve_knobs(source, budget=call_budget, parallel="on")
        assert knobs.budget is call_budget  # per-call wins
        assert session.resolve_knobs(source).budget is session_budget
        assert knobs.optimize is False  # Expr default
        with pytest.raises(QueryError, match="parallel"):
            session.resolve_knobs(source, parallel="turbo")

    def test_q_run_accepts_session_knobs(self, db):
        result = (
            Q.extent("Person")
            .sselect(attr("age") == 25)
            .run(db, parallel="off", budget=Budget(max_steps=10**6))
        )
        assert {p.name for p in result} == {"p5"}

    def test_run_aql_accepts_session_knobs(self, db):
        from repro.query.aql import run_aql

        result = run_aql(
            "extent Person | sselect {age = 25} | project name",
            db,
            parallel="off",
        )
        assert set(result) == {"p5"}

    def test_prepared_run_accepts_parallel_knobs(self, db):
        session = Session(db, plan_cache=PlanCache())
        prepared = session.prepare(Q.extent("Person").sselect(attr("age") == 25).node)
        result = prepared.run(parallel="off", budget=Budget(max_steps=10**6))
        assert {p.name for p in result} == {"p5"}
        assert prepared.run(parallel="on") == result
        with pytest.raises(TypeError):
            prepared.run(parallel_workers=2)

    def test_pool_submit_accepts_parallel_and_cache_knobs(self, db):
        from repro.api import SessionPool

        with SessionPool(db, workers=2, parallel="off") as pool:
            future = pool.submit(
                Q.extent("Person").sselect(attr("age") == 25).node,
                parallel="on",
                budget=Budget(max_steps=10**6),
                cache=None,
            )
            assert {p.name for p in future.result()} == {"p5"}
