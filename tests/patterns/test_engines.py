"""Cross-checks of the list-pattern engine against three oracles.

The same pattern/input pairs run through the backtracking matcher, the
ε-NFA, Brzozowski derivatives and the Python ``re`` encoding of §3.4 —
all four must agree on the span sets.
"""

import pytest

from repro.patterns.list_match import find_spans, matches_whole
from repro.patterns.list_parser import parse_list_pattern

from ..oracles.derivatives import EMPTY, deriv_accepts, deriv_find_spans, derivative
from ..oracles.nfa import compile_nfa, nfa_find_spans
from ..oracles.regex_bridge import (
    encode_sequence,
    expand_alphabet,
    regex_find_spans,
    to_python_regex,
)

CASES = [
    ("[A??F]", "GAXYFBACDFE"),
    ("[a]", "aaa"),
    ("[ab]", "abab"),
    ("[a*]", "aabaa"),
    ("[a+b]", "aabab"),
    ("[[[a|b]]*]", "abba"),
    ("[d[[ac]]*b]", "dacacbdb"),
    ("^[ab]", "abab"),
    ("[ab]$", "abab"),
    ("^[[[a|b]]+]$", "abab"),
    ("[[[ab]]+]", "ababab"),
    ("[a ?* b]", "acccbxb"),
    ("[[[a|a]]*]", "aaaaaaaa"),  # pathological ambiguity
]


@pytest.mark.parametrize("pattern_text,values", CASES)
def test_all_engines_agree(pattern_text, values):
    pattern = parse_list_pattern(pattern_text)
    seq = list(values)
    reference = find_spans(pattern, seq)
    assert nfa_find_spans(pattern, seq) == reference
    assert deriv_find_spans(pattern, seq) == reference
    assert regex_find_spans(pattern, seq) == reference


@pytest.mark.parametrize("pattern_text,values", CASES)
def test_acceptance_engines_agree(pattern_text, values):
    pattern = parse_list_pattern(pattern_text)
    seq = list(values)
    expected = matches_whole(pattern, seq)
    assert compile_nfa(pattern).accepts(seq) is expected
    assert deriv_accepts(pattern, seq) is expected


class TestNFA:
    def test_state_count_is_linear(self):
        nfa = compile_nfa(parse_list_pattern("[abcabc]"))
        assert nfa.state_count <= 4 * 6 + 2

    def test_atom_predicates_deduplicated(self):
        nfa = compile_nfa(parse_list_pattern("[aba]"))
        assert len(nfa.atom_predicates()) == 2

    def test_ends_from(self):
        nfa = compile_nfa(parse_list_pattern("[a+]"))
        assert nfa.ends_from(list("aab"), 0) == [1, 2]


class TestDerivatives:
    def test_derivative_of_atom(self):
        p = parse_list_pattern("[a]").body
        assert derivative(p, "a").nullable()
        assert derivative(p, "b") is EMPTY

    def test_derivative_of_star(self):
        p = parse_list_pattern("[a*]").body
        d = derivative(p, "a")
        assert d.nullable()

    def test_simplification_keeps_terms_small(self):
        p = parse_list_pattern("[[[a|a]]*]").body
        node = p
        for _ in range(12):
            node = derivative(node, "a")
        assert len(node.describe()) < 200


class TestRegexBridge:
    def test_encoding_unique_chars(self):
        encoded = encode_sequence(list("aaa"))
        assert len(set(encoded)) == 3

    def test_regex_translation_matches(self):
        import re

        pattern = parse_list_pattern("[a?b]")
        seq = list("aXbYb")
        regex = to_python_regex(pattern, seq)
        assert re.fullmatch(regex, encode_sequence(seq)[0:3])

    def test_expand_alphabet(self):
        pattern = parse_list_pattern("[?]")
        expanded = expand_alphabet(pattern, ["x", "y"])
        text = expanded.describe()
        assert "x" in text and "y" in text

    def test_expand_alphabet_empty_satisfying_set(self):
        pattern = parse_list_pattern("[z]")
        expanded = expand_alphabet(pattern, ["x", "y"])
        # unsatisfiable atom: matches nothing in the universe
        from repro.patterns.list_match import matches_whole as mw
        from repro.patterns.list_ast import ListPattern

        assert not mw(ListPattern(expanded), ["x"])

    def test_expand_alphabet_rejects_opaque(self):
        from repro.errors import PatternError
        from repro.patterns.list_ast import Atom, ListPattern
        from repro.predicates.alphabet import RawPredicate

        pattern = ListPattern(Atom(RawPredicate(lambda o: True)))
        with pytest.raises(PatternError):
            expand_alphabet(pattern, ["x"])
