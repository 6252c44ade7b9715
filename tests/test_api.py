"""The Session API: knob precedence, validation, and the planning footer."""

import pytest

from repro import Session, default_session
from repro.config import COLUMNAR_ENV, PARALLEL_ENV
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


@pytest.fixture()
def wide_db():
    """An extent past the exchange break-even, so ``parallel`` is observable."""
    database = Database()
    for i in range(300):
        database.insert(Record(name=f"p{i}", age=i), "Person")
    return database


def fanouts(session, **knobs):
    """How many exchange fan-outs one wide select performed."""
    query = Q.extent("Person").sselect(attr("age") >= 0).node
    _, metrics = session.query_with_metrics(query, parallel_workers=2, **knobs)
    return metrics.totals().get("exchange_fanouts", 0)


class TestKnobValidation:
    def test_retired_executor_keyword_is_a_type_error(self, db):
        for retired in ({"executor": "eager"}, {"engine": "backtrack"}):
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
        monkeypatch.setenv(COLUMNAR_ENV, "turbo")
        session = Session(db)  # env not read yet
        with pytest.raises(QueryError, match=COLUMNAR_ENV):
            session.query(Q.root("T").sub_select("d(e j)").node)

    def test_bad_per_call_value_rejected(self, db):
        session = Session(db)
        with pytest.raises(QueryError, match=PARALLEL_ENV):
            session.query(Q.root("T").sub_select("d(e j)").node, parallel="nope")


class TestPrecedence:
    def test_call_kwarg_beats_session_kwarg(self, wide_db, monkeypatch):
        # the session says off; the call says on; both beat env
        monkeypatch.setenv(PARALLEL_ENV, "bogus-but-never-read")
        session = Session(wide_db, parallel="off")
        assert fanouts(session, parallel="on") == 1

    def test_session_kwarg_beats_env(self, wide_db, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "bogus-but-never-read")
        assert fanouts(Session(wide_db, parallel="off")) == 0

    def test_env_beats_default(self, wide_db, monkeypatch):
        assert fanouts(Session(wide_db)) == 1
        monkeypatch.setenv(PARALLEL_ENV, "off")
        assert fanouts(Session(wide_db)) == 0


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

    KNOBS = {"budget", "parallel", "parallel_workers"}

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
        session = Session(db, parallel="off", parallel_workers=2)
        knobs = session.resolve_knobs(Q.extent("Person").node, parallel="on")
        assert knobs.parallel == "on"  # per-call wins
        assert knobs.parallel_workers == 2  # session value survives
        assert knobs.optimize is False  # Expr default

    def test_q_run_accepts_session_knobs(self, db):
        result = (
            Q.extent("Person")
            .sselect(attr("age") == 25)
            .run(db, parallel="off", parallel_workers=2)
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
