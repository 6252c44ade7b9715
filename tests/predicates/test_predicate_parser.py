"""Tests for the predicate text parser (lambda notation of §3.1)."""

import pytest

from repro.core.identity import Record
from repro.errors import PredicateError
from repro.predicates.parser import parse_predicate

MAT = Record(name="Mat", age=40, citizen="Brazil")


class TestLambdaForms:
    def test_paper_example(self):
        p = parse_predicate('lambda(Person) Person.age > 25')
        assert p(MAT)
        assert not p(Record(age=20))

    def test_attribute_without_variable(self):
        p = parse_predicate('age > 25')
        assert p(MAT)

    def test_string_equality(self):
        p = parse_predicate('lambda(p) p.citizen = "Brazil"')
        assert p(MAT)

    def test_single_quotes(self):
        assert parse_predicate("citizen = 'Brazil'")(MAT)

    def test_variable_itself_matches_payload(self):
        p = parse_predicate('lambda(n) n = "a"')
        assert p("a")
        assert not p("b")

    def test_variable_comparison_requires_equality(self):
        with pytest.raises(PredicateError):
            parse_predicate('lambda(n) n > 3')

    def test_tokenize_error_names_where_it_stops(self):
        with pytest.raises(PredicateError) as caught:
            parse_predicate("age > 3 and # name = 'x'")
        assert str(caught.value) == "cannot tokenize predicate at \"# name = 'x'\""

    def test_wrong_variable_rejected(self):
        with pytest.raises(PredicateError):
            parse_predicate('lambda(p) q.age > 3')


class TestBooleanStructure:
    def test_and(self):
        p = parse_predicate('age > 25 and citizen = "Brazil"')
        assert p(MAT)
        assert len(p.conjuncts()) == 2

    def test_or(self):
        p = parse_predicate('age > 99 or name = "Mat"')
        assert p(MAT)

    def test_not(self):
        assert not parse_predicate('not age > 25')(MAT)

    def test_parentheses(self):
        p = parse_predicate('not (age < 25 or citizen != "Brazil")')
        assert p(MAT)

    def test_precedence_and_binds_tighter(self):
        # a or b and c  ==  a or (b and c)
        p = parse_predicate('age = 1 or age = 40 and citizen = "Brazil"')
        assert p(MAT)
        assert not p(Record(age=40, citizen="USA"))


class TestLiterals:
    def test_integers_and_floats(self):
        assert parse_predicate("age = 40")(MAT)
        assert parse_predicate("score = 2.5")(Record(score=2.5))

    def test_negative_numbers(self):
        assert parse_predicate("delta = -3")(Record(delta=-3))

    def test_booleans(self):
        assert parse_predicate("active = true")(Record(active=True))
        assert parse_predicate("active = false")(Record(active=False))

    def test_bare_word_reads_as_string(self):
        assert parse_predicate("citizen = Brazil")(MAT)


class TestErrors:
    def test_empty_rejected(self):
        with pytest.raises(PredicateError):
            parse_predicate("")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PredicateError):
            parse_predicate("age > 25 extra")

    def test_missing_literal_rejected(self):
        with pytest.raises(PredicateError):
            parse_predicate("age >")

    def test_untokenizable_rejected(self):
        with pytest.raises(PredicateError):
            parse_predicate("age # 3")

    def test_deep_nesting_raises_a_predicate_error(self):
        with pytest.raises(PredicateError, match="predicate nests too deeply"):
            parse_predicate("(" * 400 + "a = 1" + ")" * 400)
