"""Properties: the list engine and the NFA and derivative oracles agree
with the Python ``re`` oracle, and list ``split`` answers alike through
every access path."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Session
from repro.algebra.list_ops import split_list
from repro.core.aqua_list import AquaList
from repro.core.concat import ALPHA, ConcatPoint
from repro.patterns.list_match import find_spans, matches_whole
from repro.query import Q
from repro.storage import Database

from ..oracles.derivatives import deriv_accepts, deriv_find_spans
from ..oracles.nfa import compile_nfa, nfa_find_spans
from ..oracles.regex_bridge import expand_alphabet, regex_find_spans
from ..reference import list_columns, reference_eval
from .strategies import (
    list_patterns,
    list_patterns_with_prunes,
    matchable_list_patterns,
    nested_closure,
    sequences,
    symbols,
)

SETTINGS = settings(max_examples=120, deadline=None)


@SETTINGS
@given(pattern=list_patterns(), values=sequences())
def test_span_engines_agree_with_re_oracle(pattern, values):
    # Nested closures trigger catastrophic backtracking in the Python
    # ``re`` oracle; the fixed cases in tests/patterns cover them.
    assume(not nested_closure(pattern.body))
    oracle = regex_find_spans(pattern, values)
    assert find_spans(pattern, values) == oracle
    assert nfa_find_spans(pattern, values) == oracle
    assert deriv_find_spans(pattern, values) == oracle


@SETTINGS
@given(pattern=list_patterns(with_anchors=False), values=sequences())
def test_membership_engines_agree(pattern, values):
    expected = matches_whole(pattern, values)
    assert compile_nfa(pattern).accepts(values) is expected
    assert deriv_accepts(pattern, values) is expected


@SETTINGS
@given(pattern=list_patterns(with_anchors=False), values=sequences(max_size=8))
def test_expand_alphabet_preserves_language(pattern, values):
    """The §3.4 P→P' translation preserves membership over the universe."""
    from repro.patterns.list_ast import ListPattern

    universe = sorted(set(values) | {"a"})
    expanded = ListPattern(expand_alphabet(pattern, universe))
    assert matches_whole(expanded, values) == matches_whole(pattern, values)


def pieces(x, y, z):
    """The split function of the parity property: the pieces themselves."""
    return x, y, z


@st.composite
def lists_with_embedded_points(draw):
    """Element lists with labeled NULLs interleaved — the operators see
    the elements only, so positions must skip the points."""
    entries = draw(
        st.lists(st.one_of(symbols, st.just(ConcatPoint("p"))), max_size=12)
    )
    return AquaList.from_values(entries)


@settings(max_examples=80, deadline=None)
@given(
    pattern=st.one_of(matchable_list_patterns(), list_patterns_with_prunes()),
    values=lists_with_embedded_points(),
    other=lists_with_embedded_points(),
)
def test_list_split_agrees_across_access_paths(pattern, values, other):
    """Index probe, columnar shift-AND and the full scan — optimized or
    not, live or pinned — all return what the direct ``split_list`` and
    the reference evaluator return, piece for piece, in order; and every
    piece reassembles to the list (``x ∘α (y ∘α1 z1 … ∘αn zn) = L``)."""
    db = Database()
    db.bind_root("L", values)
    db.list_index(values)
    query = Q.root("L").lsplit(pattern, pieces).build()
    expected = split_list(pattern, pieces, values)
    assert list(reference_eval(query, db)) == list(expected)

    whole = values.close_points()
    for x, y, z in expected:
        rebuilt = y.concat_many(list(zip(y.concat_points(), z.values())))
        assert x.concat_at(ALPHA, rebuilt) == whole

    session = Session(db)
    with list_columns("python"):
        pinned = session.snapshot()
        for optimize in (True, False):
            # Columns on (any length) and off (the list is too short).
            for min_length in (0, len(values) + 1):
                with list_columns("python", min_length):
                    served = session.query(query, optimize=optimize)
                assert list(served) == list(expected)
        db.rebind_root("L", other)
        assert list(pinned.query(query)) == list(expected)
        assert list(pinned.query(query, optimize=False)) == list(expected)
        assert list(session.query(query)) == list(split_list(pattern, pieces, other))
