"""Tests for the alphabet-predicate AST and DSL (paper §3.1)."""

import pytest

from repro.core.identity import Record
from repro.errors import PredicateError
from repro.predicates.alphabet import (
    ANY,
    And,
    Comparison,
    Not,
    Or,
    RawPredicate,
    SymbolEquals,
    attr,
    pred,
    sym,
)

MAT = Record(name="Mat", age=40, citizen="Brazil")
ANA = Record(name="Ana", age=12, citizen="Brazil")


class TestComparison:
    @pytest.mark.parametrize(
        "op,constant,expected",
        [
            ("=", 40, True),
            ("!=", 40, False),
            ("<", 41, True),
            ("<=", 40, True),
            (">", 39, True),
            (">=", 41, False),
        ],
    )
    def test_operators(self, op, constant, expected):
        assert Comparison("age", op, constant)(MAT) is expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(PredicateError):
            Comparison("age", "~", 1)

    def test_missing_attribute_is_false(self):
        assert not Comparison("height", "=", 1)(MAT)

    def test_incomparable_types_are_false(self):
        assert not Comparison("age", "<", "tall")(MAT)

    def test_dict_objects(self):
        assert Comparison("age", "=", 40)({"age": 40})

    def test_dsl_builds_comparisons(self):
        p = attr("age") > 25
        assert isinstance(p, Comparison)
        assert p(MAT) and not p(ANA)

    def test_attributes_and_terms(self):
        p = attr("citizen") == "Brazil"
        assert p.attributes() == {"citizen"}
        assert p.indexable_terms() == [("citizen", "=", "Brazil")]

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_compiled_test_answers_as_the_call(self, op):
        """``=`` / ``!=`` compare inline and ``bool`` is called only on a
        non-bool outcome; every answer is still ``__call__``'s, a bool."""

        class Raises:
            def __eq__(self, other):
                raise TypeError("incomparable")

            __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __eq__

        class Truthy:  # outcomes that are not bools: a list, an int
            def __eq__(self, other):
                return [other]

            def __ne__(self, other):
                return 0

            __lt__ = __le__ = __gt__ = __ge__ = __eq__

        objects = [MAT, ANA, {"age": 40}, {"name": "x"}, Record(name="y"), 40,
                   {"age": Raises()}, Record(age=Truthy()), {"age": "tall"}]
        for constant in (40, "tall", Raises(), Truthy()):
            predicate = Comparison("age", op, constant)
            test = predicate.compile()
            for obj in objects:
                assert test(obj) is predicate(obj), (op, constant, obj)


class TestCombinators:
    def test_and(self):
        p = (attr("age") > 25) & (attr("citizen") == "Brazil")
        assert p(MAT) and not p(ANA)

    def test_or(self):
        p = (attr("age") > 25) | (attr("name") == "Ana")
        assert p(MAT) and p(ANA)

    def test_not(self):
        p = ~(attr("age") > 25)
        assert not p(MAT) and p(ANA)

    def test_conjunct_decomposition_flattens(self):
        p = (attr("a") == 1) & (attr("b") == 2) & (attr("c") == 3)
        assert len(p.conjuncts()) == 3

    def test_or_is_single_conjunct(self):
        p = (attr("a") == 1) | (attr("b") == 2)
        assert len(p.conjuncts()) == 1

    def test_and_collects_indexable_terms(self):
        p = (attr("a") == 1) & (attr("b") > 2)
        assert ("a", "=", 1) in p.indexable_terms()
        assert ("b", ">", 2) in p.indexable_terms()

    def test_empty_and_rejected(self):
        with pytest.raises(PredicateError):
            And()

    def test_empty_or_rejected(self):
        with pytest.raises(PredicateError):
            Or()

    def test_is_in(self):
        p = attr("citizen").is_in(["Brazil", "USA"])
        assert p(MAT)
        assert not p(Record(citizen="Chile"))

    def test_is_in_empty_matches_nothing(self):
        assert not attr("x").is_in([])(MAT)

    def test_coercion_of_callables(self):
        p = (attr("age") > 25) & (lambda obj: obj.name == "Mat")
        assert p(MAT)
        assert p.opaque  # the callable side is opaque


class TestSpecialPredicates:
    def test_any_is_always_true(self):
        assert ANY(MAT) and ANY(None) and ANY(0)

    def test_symbol_equals(self):
        assert sym("a")("a")
        assert not sym("a")("b")

    def test_symbol_equals_indexable_as_value(self):
        assert sym("a").indexable_terms() == [("__value__", "=", "a")]

    def test_raw_predicate_is_opaque(self):
        p = pred(lambda obj: True, "always")
        assert p.opaque
        assert p.indexable_terms() == []
        assert p.describe() == "always"

    def test_opacity_propagates(self):
        raw = RawPredicate(lambda o: True)
        assert (raw & sym("a")).opaque
        assert (sym("a") | raw).opaque
        assert Not(raw).opaque
        assert not (sym("a") & sym("b")).opaque

    def test_describe_round_trip_equality(self):
        assert (attr("a") == 1) == (attr("a") == 1)
        assert (attr("a") == 1) != (attr("a") == 2)

    def test_hashable(self):
        assert len({attr("a") == 1, attr("a") == 1}) == 1
