"""Tests for list-pattern parsing (paper §3.2 grammar)."""

import pytest

from repro.errors import NotationError, PatternError
from repro.patterns.list_ast import (
    Atom,
    Concat,
    ListPattern,
    Plus,
    Prune,
    Star,
    Union,
    seq,
    union,
)
from repro.patterns.list_parser import list_pattern, parse_list_pattern
from repro.predicates.alphabet import ANY, Comparison, SymbolEquals, attr


class TestBasicForms:
    def test_melody_pattern(self):
        p = parse_list_pattern("[A??F]")
        assert isinstance(p.body, Concat)
        assert len(p.body.parts) == 4
        assert p.body.parts[1].predicate is ANY

    def test_bare_symbols_resolve_to_symbol_equals(self):
        p = parse_list_pattern("[a]")
        assert isinstance(p.body, Atom)
        assert isinstance(p.body.predicate, SymbolEquals)

    def test_custom_resolver(self):
        p = parse_list_pattern("[A]", resolver=lambda s: Comparison("pitch", "=", s))
        assert p.body.predicate.attribute == "pitch"

    def test_embedded_predicate_text(self):
        p = parse_list_pattern('[{age > 25} ?]')
        assert p.body.parts[0].predicate(type("O", (), {"age": 30})())

    def test_a_brace_inside_a_quoted_string(self):
        """A ``{`` inside quotes neither opens nor closes a predicate."""
        p = parse_list_pattern('[{name = "{"} b]')
        first, second = p.body.parts
        assert first.predicate(type("O", (), {"name": "{"})())
        assert second.predicate == SymbolEquals("b")

    def test_deep_nesting_raises_a_notation_error(self):
        with pytest.raises(NotationError, match="pattern nests too deeply"):
            parse_list_pattern("[[" * 3000 + "a")

    def test_an_outer_bracket_around_nested_groups(self):
        """``[[`` is two brackets side by side: the outer ``[`` may be
        followed by any number of group openers, and ``⟦`` is never half
        of a bracket."""
        assert parse_list_pattern("[[[[[a]]]]]") == parse_list_pattern("[a]")
        with pytest.raises(NotationError, match="expected '\\[' to open"):
            parse_list_pattern("⟦ [a]]]")

    def test_unbracketed_body_allowed(self):
        assert parse_list_pattern("a b") == parse_list_pattern("[a b]")


class TestOperators:
    def test_star(self):
        p = parse_list_pattern("[a*]")
        assert isinstance(p.body, Star)

    def test_plus(self):
        p = parse_list_pattern("[a+]")
        assert isinstance(p.body, Plus)

    def test_grouped_star(self):
        p = parse_list_pattern("[d[[ac]]*b]")
        star = p.body.parts[1]
        assert isinstance(star, Star)
        assert isinstance(star.inner, Concat)

    def test_union(self):
        p = parse_list_pattern("[a|b]")
        assert isinstance(p.body, Union)
        assert len(p.body.alternatives) == 2

    def test_union_of_sequences(self):
        p = parse_list_pattern("[a b | c d]")
        assert isinstance(p.body, Union)
        assert all(isinstance(a, Concat) for a in p.body.alternatives)

    def test_prune(self):
        p = parse_list_pattern("[x !?* y]")
        assert isinstance(p.body.parts[1], Prune)

    def test_nested_prune_rejected(self):
        from repro.patterns.list_ast import Prune as P, Atom as A

        with pytest.raises(PatternError):
            P(P(A(ANY)))

    def test_double_star(self):
        p = parse_list_pattern("[[[a]]**]")
        assert isinstance(p.body, Star)
        assert isinstance(p.body.inner, Star)


class TestAnchors:
    def test_start_anchor(self):
        assert parse_list_pattern("^[ab]").anchor_start

    def test_end_anchor_outside(self):
        assert parse_list_pattern("[ab]$").anchor_end

    def test_end_anchor_inside(self):
        assert parse_list_pattern("[ab$]").anchor_end

    def test_both_anchors(self):
        p = parse_list_pattern("^[ab]$")
        assert p.anchor_start and p.anchor_end

    def test_describe_round_trip(self):
        for text in ["[A??F]", "^[ab]$", "[a|b]", "[x !?* y]", "[d[[ac]]*b]", "['ab']"]:
            p = parse_list_pattern(text)
            assert parse_list_pattern(p.describe()) == p


class TestMetadata:
    def test_min_max_length(self):
        p = parse_list_pattern("[A??F]")
        assert p.min_length() == 4
        assert p.max_length() == 4

    def test_star_unbounded(self):
        p = parse_list_pattern("[a b*]")
        assert p.min_length() == 1
        assert p.max_length() is None

    def test_union_bounds(self):
        p = parse_list_pattern("[[[a b | c]]]")
        assert p.min_length() == 1
        assert p.max_length() == 2

    def test_required_atoms(self):
        p = parse_list_pattern("[a b* c]")
        names = {a.describe() for a in p.required_atoms()}
        assert names == {"x = 'a'", "x = 'c'"}

    def test_union_required_atoms_intersect(self):
        p = parse_list_pattern("[[[a c | b c]]]")
        names = {a.describe() for a in p.required_atoms()}
        assert names == {"x = 'c'"}

    def test_contains_prune(self):
        assert parse_list_pattern("[!a]").contains_prune()
        assert not parse_list_pattern("[a]").contains_prune()


class TestCoercion:
    def test_list_pattern_accepts_text(self):
        assert isinstance(list_pattern("[a]"), ListPattern)

    def test_list_pattern_accepts_pattern(self):
        p = parse_list_pattern("[a]")
        assert list_pattern(p) is p

    def test_list_pattern_accepts_node(self):
        assert isinstance(list_pattern(seq(Atom(ANY))), ListPattern)

    def test_list_pattern_accepts_predicate(self):
        assert isinstance(list_pattern(attr("x") == 1), ListPattern)

    def test_garbage_rejected(self):
        with pytest.raises(PatternError):
            list_pattern(42)

    def test_bad_text_rejected(self):
        with pytest.raises(NotationError):
            parse_list_pattern("[a")

    def test_combinator_helpers(self):
        p = union(seq(Atom(ANY), Atom(ANY)), Atom(ANY))
        assert isinstance(p, Union)
