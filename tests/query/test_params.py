"""Query parameters: ``$name`` slots, bindings, and the three notations."""

import pytest

from repro import context, params
from repro.errors import QueryError
from repro.params import Param
from repro.predicates import attr, parse_predicate
from repro.query import Q, evaluate
from repro.query import expr as E
from repro.core.identity import Record
from repro.storage import Database


@pytest.fixture()
def db():
    database = Database()
    for i in range(10):
        database.insert(Record(name=f"p{i}", age=20 + i), "Person")
    return database


class TestParamObject:
    def test_identity_is_the_slot_name(self):
        assert Param("limit") == Param("limit")
        assert Param("limit") != Param("cap")
        assert hash(Param("x")) == hash(Param("x"))

    def test_renders_dollar_name(self):
        assert repr(Param("limit")) == "$limit"
        assert Param("limit").describe() == "$limit"

    def test_invalid_names_rejected(self):
        with pytest.raises(QueryError):
            Param("has space")
        with pytest.raises(QueryError):
            Param("")


class TestBindings:
    def test_resolve_requires_a_binding(self):
        with pytest.raises(QueryError, match=r"\$limit"):
            params.resolve(Param("limit"))

    def test_bindings_are_scoped_and_nested(self):
        with context.entered(bindings={"a": 1}):
            assert params.resolve(Param("a")) == 1
            with context.entered(bindings={"b": 2}):
                # inner scope merges over the outer one
                assert params.resolve(Param("a")) == 1
                assert params.resolve(Param("b")) == 2
            assert context.current().bindings == {"a": 1}
        assert context.current() is None

    def test_non_param_values_resolve_to_themselves(self):
        assert params.resolve(42) == 42
        value, ok = params.try_resolve(Param("missing"))
        assert not ok and value is None


class TestThreeNotations:
    def test_dollar_token_in_predicate_text(self, db):
        predicate = parse_predicate("age = $limit")
        query = Q.extent("Person").sselect(predicate).sapply(lambda p: p.name)
        with pytest.raises(QueryError):
            evaluate(query.node, db)  # unbound
        assert set(query.run(db, {"limit": 25})) == {"p5"}

    def test_q_param_in_builder_predicate(self, db):
        query = Q.extent("Person").sselect(attr("age") == Q.param("limit"))
        names = {p.name for p in query.run(db, {"limit": 23})}
        assert names == {"p3"}

    def test_expr_param_node_evaluates_to_binding(self, db):
        node = E.Param("answer")
        with pytest.raises(QueryError):
            evaluate(node, db)
        assert evaluate(node, db, params={"answer": 7}) == 7

    def test_one_plan_many_bindings(self, db):
        query = Q.extent("Person").sselect(attr("age") == Q.param("limit"))
        for limit, expected in ((20, "p0"), (24, "p4"), (29, "p9")):
            names = {p.name for p in query.run(db, {"limit": limit})}
            assert names == {expected}
