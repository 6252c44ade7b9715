"""Properties: list-as-tree equivalence (§6) and notation round trips."""

from hypothesis import given, settings

from repro.algebra.list_ops import sub_select_list
from repro.algebra.list_tree_bridge import sub_select_via_tree
from repro.core.aqua_list import AquaList
from repro.core.notation import format_list, format_tree, parse_list, parse_tree

from .strategies import (
    aqua_lists,
    labeled_trees,
    matchable_list_patterns,
    nested_closure,
)

SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(pattern=matchable_list_patterns(with_anchors=True), values=aqua_lists(max_size=8))
def test_list_sub_select_equals_tree_engine(pattern, values):
    """§6's central claim: list operators are tree operators on
    list-like trees — checked for sub_select over random patterns."""
    assert not nested_closure(pattern.body)
    # The tree view matches *at a node*: the empty sublist has no tree
    # image, so nullable patterns diverge on it (documented in the
    # bridge's module docstring).  Compare non-empty-match patterns.
    assert pattern.min_length() > 0
    native = sub_select_list(pattern, values)
    via_tree = sub_select_via_tree(pattern, values)
    assert native == via_tree


@SETTINGS
@given(tree=labeled_trees())
def test_tree_notation_round_trip(tree):
    assert parse_tree(format_tree(tree)) == tree


@SETTINGS
@given(values=aqua_lists())
def test_list_notation_round_trip(values):
    assert parse_list(format_list(values)) == values


@SETTINGS
@given(values=aqua_lists())
def test_list_like_tree_round_trip(values):
    assert AquaList.from_list_like_tree(values.to_list_like_tree()) == values
