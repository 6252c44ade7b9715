"""Tests for the pattern equivalence/containment decision procedures."""

import pytest

from repro.errors import PatternError
from repro.patterns.list_parser import parse_list_pattern

from ..oracles.equivalence import (
    distinguishing_vector,
    pattern_language_empty,
    pattern_subsumes,
    patterns_equivalent,
)


def p(text):
    return parse_list_pattern(text)


class TestEquivalence:
    def test_identical(self):
        assert patterns_equivalent(p("[ab]"), p("[ab]"))

    def test_star_unrolling(self):
        assert patterns_equivalent(p("[a*]"), p("[[[]] | a a*]"))

    def test_plus_definition(self):
        assert patterns_equivalent(p("[a+]"), p("[a a*]"))

    def test_star_idempotence(self):
        assert patterns_equivalent(p("[[[a]]**]"), p("[a*]"))

    def test_union_commutes(self):
        assert patterns_equivalent(p("[[[a|b]]]"), p("[[[b|a]]]"))

    def test_distribution(self):
        assert patterns_equivalent(p("[a [[b|c]]]"), p("[[[a b | a c]]]"))

    def test_non_equivalent(self):
        assert not patterns_equivalent(p("[a]"), p("[aa]"))
        assert not patterns_equivalent(p("[a*]"), p("[a+]"))

    def test_any_vs_atom_differ(self):
        # ? accepts elements that fail x='a'; abstract outcomes separate them.
        assert not patterns_equivalent(p("[?]"), p("[a]"))

    def test_distinguishing_vector_none_when_equal(self):
        assert distinguishing_vector(p("[a+]"), p("[a a*]")) is None

    def test_distinguishing_vector_found(self):
        witness = distinguishing_vector(p("[a*]"), p("[a+]"))
        assert witness == []  # the empty word separates them

    def test_anchored_patterns_rejected(self):
        with pytest.raises(PatternError):
            patterns_equivalent(p("^[a]"), p("[a]"))

    def test_too_many_atoms_rejected(self):
        wide = p("[" + " ".join(f"s{i}" for i in range(20)) + "]")
        with pytest.raises(PatternError):
            patterns_equivalent(wide, wide)


class TestContainment:
    def test_star_contains_plus(self):
        assert pattern_subsumes(p("[a*]"), p("[a+]"))
        assert not pattern_subsumes(p("[a+]"), p("[a*]"))

    def test_any_contains_atom(self):
        assert pattern_subsumes(p("[?]"), p("[a]"))
        assert not pattern_subsumes(p("[a]"), p("[?]"))

    def test_union_contains_branches(self):
        assert pattern_subsumes(p("[[[a|b]]]"), p("[a]"))
        assert pattern_subsumes(p("[[[a|b]]]"), p("[b]"))

    def test_equivalence_is_mutual_containment(self):
        a, b = p("[a+]"), p("[a a*]")
        assert pattern_subsumes(a, b) and pattern_subsumes(b, a)

    def test_concat_ordering_matters(self):
        assert not pattern_subsumes(p("[ab]"), p("[ba]"))


class TestEmptiness:
    def test_normal_patterns_nonempty(self):
        assert not pattern_language_empty(p("[a]"))
        assert not pattern_language_empty(p("[a*]"))

    def test_translated_unsatisfiable_atom_is_empty(self):
        from repro.patterns.list_ast import ListPattern
        from ..oracles.regex_bridge import expand_alphabet

        expanded = expand_alphabet(p("[z]"), ["x", "y"])
        # The unsatisfiable atom still has *abstract* outcomes; check the
        # concrete route instead: no element of the universe matches.
        from repro.patterns.list_match import find_spans

        assert find_spans(ListPattern(expanded), ["x", "y"]) == []

    def test_star_never_empty(self):
        assert not pattern_language_empty(p("[z*]"))  # contains ε
