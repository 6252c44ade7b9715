"""The Session API: knob precedence, validation, and the planning footer."""

import pytest

from repro import Session, default_session
from repro.config import TREE_ENGINE_ENV
from repro.core import parse_tree
from repro.core.identity import Record
from repro.errors import QueryError
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


class TestKnobValidation:
    def test_retired_executor_keyword_is_a_type_error(self, db):
        with pytest.raises(TypeError):
            Session(db, executor="eager")
        with pytest.raises(TypeError):
            Session(db).query(Q.extent("Person").node, executor="eager")

    def test_retired_executor_env_var_is_ignored(self, db, monkeypatch):
        monkeypatch.setenv("AQUA_EXECUTOR", "turbo")
        assert len(Session(db).query(Q.extent("Person").node)) == 12

    def test_bad_engine_rejected_at_construction(self, db):
        with pytest.raises(QueryError, match=TREE_ENGINE_ENV):
            Session(db, engine="packrat")

    def test_bad_env_value_rejected_on_first_read(self, db, monkeypatch):
        monkeypatch.setenv(TREE_ENGINE_ENV, "turbo")
        session = Session(db)  # env not read yet
        with pytest.raises(QueryError, match=TREE_ENGINE_ENV):
            session.query(Q.root("T").sub_select("d(e j)").node)

    def test_bad_per_call_value_rejected(self, db):
        session = Session(db)
        with pytest.raises(QueryError, match=TREE_ENGINE_ENV):
            session.query(Q.root("T").sub_select("d(e j)").node, engine="nope")


class TestPrecedence:
    def test_call_kwarg_beats_session_kwarg(self, db, monkeypatch):
        # the session says backtrack; the call says memo; both beat env
        monkeypatch.setenv(TREE_ENGINE_ENV, "bogus-but-never-read")
        session = Session(db, engine="backtrack")
        result = session.query(Q.root("T").sub_select("d(e j)").node, engine="memo")
        assert len(result) == 1

    def test_session_kwarg_beats_env(self, db, monkeypatch):
        monkeypatch.setenv(TREE_ENGINE_ENV, "bogus-but-never-read")
        session = Session(db, engine="backtrack")
        result = session.query(Q.root("T").sub_select("d(e j)").node)
        assert len(result) == 1

    def test_env_beats_default(self, db, monkeypatch):
        monkeypatch.setenv(TREE_ENGINE_ENV, "backtrack")
        session = Session(db)
        result = session.query(Q.root("T").sub_select("d(e j)").node)
        assert len(result) == 1


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

    KNOBS = {"budget", "engine", "parallel", "parallel_workers"}

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
        session = Session(db, engine="backtrack", parallel="off")
        knobs = session.resolve_knobs(Q.extent("Person").node, engine="memo")
        assert knobs.engine == "memo"  # per-call wins
        assert knobs.parallel == "off"  # session value survives
        assert knobs.optimize is False  # Expr default

    def test_q_run_accepts_session_knobs(self, db):
        result = (
            Q.extent("Person")
            .sselect(attr("age") == 25)
            .run(db, parallel="off", engine="backtrack")
        )
        assert {p.name for p in result} == {"p5"}

    def test_run_aql_accepts_session_knobs(self, db):
        from repro.query.aql import run_aql

        result = run_aql(
            "extent Person | sselect {age = 25} | project name",
            db,
            engine="backtrack",
        )
        assert set(result) == {"p5"}

    def test_prepared_run_accepts_parallel_knobs(self, db):
        session = Session(db, plan_cache=PlanCache())
        prepared = session.prepare(Q.extent("Person").sselect(attr("age") == 25).node)
        result = prepared.run(parallel="off", parallel_workers=2)
        assert {p.name for p in result} == {"p5"}

    def test_pool_submit_accepts_parallel_and_cache_knobs(self, db):
        from repro.api import SessionPool

        with SessionPool(db, workers=2, parallel="off") as pool:
            future = pool.submit(
                Q.extent("Person").sselect(attr("age") == 25).node,
                parallel_workers=2,
                cache=None,
            )
            assert {p.name for p in future.result()} == {"p5"}
