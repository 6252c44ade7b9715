"""Properties of the equivalence decision procedure vs. the engines."""

from hypothesis import assume, given, settings

from repro.patterns.list_ast import Concat, ListPattern, Plus, Star, Union
from repro.patterns.list_match import matches_whole

from ..oracles.equivalence import pattern_subsumes, patterns_equivalent
from .strategies import list_pattern_nodes, sequences

SETTINGS = settings(max_examples=40, deadline=None)


def _small(node) -> bool:
    return sum(1 for _ in node.atoms()) <= 6


@SETTINGS
@given(p=list_pattern_nodes(max_leaves=3), values=sequences(max_size=8))
def test_equivalence_is_reflexive_and_respected_by_engines(p, values):
    assume(_small(p))
    assert patterns_equivalent(p, p)
    # Known-equivalent rewrites behave identically on concrete inputs.
    rewritten = Union([p, p])
    assert patterns_equivalent(p, rewritten)
    assert matches_whole(ListPattern(p), values) == matches_whole(
        ListPattern(rewritten), values
    )


@SETTINGS
@given(p=list_pattern_nodes(max_leaves=3), values=sequences(max_size=8))
def test_star_unroll_equivalence_transfers_to_data(p, values):
    assume(_small(p))
    from repro.patterns.list_ast import EPSILON

    unrolled = Union([EPSILON, Concat([p, Star(p)])])
    assert patterns_equivalent(Star(p), unrolled)
    assert matches_whole(ListPattern(Star(p)), values) == matches_whole(
        ListPattern(unrolled), values
    )


@SETTINGS
@given(p=list_pattern_nodes(max_leaves=3), q=list_pattern_nodes(max_leaves=3))
def test_union_subsumes_both_branches(p, q):
    assume(_small(p) and _small(q))
    union = Union([p, q])
    assert pattern_subsumes(union, p)
    assert pattern_subsumes(union, q)


@SETTINGS
@given(p=list_pattern_nodes(max_leaves=3))
def test_star_subsumes_plus_and_pattern(p):
    assume(_small(p))
    assert pattern_subsumes(Star(p), Plus(p))
    assert pattern_subsumes(Star(p), p)


@SETTINGS
@given(
    p=list_pattern_nodes(max_leaves=2),
    q=list_pattern_nodes(max_leaves=2),
    values=sequences(max_size=7),
)
def test_equivalent_patterns_agree_on_concrete_data(p, q, values):
    assume(_small(p) and _small(q))
    if patterns_equivalent(p, q):
        assert matches_whole(ListPattern(p), values) == matches_whole(
            ListPattern(q), values
        )
