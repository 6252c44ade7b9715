"""Tests for tree-pattern parsing (paper §3.3 grammar)."""

import pytest

from repro.core.concat import alpha
from repro.errors import NotationError, PatternError
from repro.patterns.tree_ast import (
    CHILD_EPSILON,
    ChildAlt,
    ChildEpsilon,
    ChildPlus,
    ChildSeq,
    ChildStar,
    PointAtom,
    TreeAtom,
    TreeConcat,
    TreePattern,
    TreePlus,
    TreePrune,
    TreeStar,
    TreeUnion,
)
from repro.patterns.tree_parser import parse_tree_pattern, tree_pattern
from repro.predicates.alphabet import ANY, Comparison, attr


class TestAtoms:
    def test_bare_atom_has_no_children_pattern(self):
        p = parse_tree_pattern("d")
        assert isinstance(p.body, TreeAtom)
        assert p.body.children is None

    def test_explicit_empty_children(self):
        p = parse_tree_pattern("a()")
        assert isinstance(p.body.children, ChildEpsilon)

    def test_children_sequence(self):
        p = parse_tree_pattern("Mat(? Ed)")
        children = p.body.children
        assert isinstance(children, ChildSeq)
        assert len(children.parts) == 2
        assert children.parts[0].predicate is ANY

    def test_nested_children(self):
        p = parse_tree_pattern("d(e(h i) j)")
        e_atom = p.body.children.parts[0]
        assert isinstance(e_atom.children, ChildSeq)

    def test_any_with_children(self):
        p = parse_tree_pattern("?(a b)")
        assert p.body.predicate is ANY
        assert isinstance(p.body.children, ChildSeq)

    def test_embedded_predicate(self):
        p = parse_tree_pattern('{citizen = "Brazil"}(?*)')
        assert p.body.predicate(type("P", (), {"citizen": "Brazil"})())

    def test_a_brace_inside_a_quoted_string(self):
        """A ``}`` inside quotes does not end a ``{...}`` predicate."""
        p = parse_tree_pattern('a({name = "}"})')
        child = p.body.children
        assert child.predicate(type("P", (), {"name": "}"})())
        assert not child.predicate(type("P", (), {"name": "{"})())

    def test_deep_nesting_raises_a_notation_error(self):
        with pytest.raises(NotationError, match="pattern nests too deeply"):
            parse_tree_pattern("a(" * 300 + "b" + ")" * 300)

    def test_point_atom(self):
        p = parse_tree_pattern("a(@1 @2)")
        parts = p.body.children.parts
        assert all(isinstance(part, PointAtom) for part in parts)
        assert parts[0].point == alpha(1)

    def test_custom_resolver(self):
        p = parse_tree_pattern("S", resolver=lambda s: Comparison("kind", "=", s))
        assert p.body.predicate.attribute == "kind"


class TestClosuresAndConcat:
    def test_sibling_star_is_child_star(self):
        p = parse_tree_pattern("printf(?* LD)")
        first = p.body.children.parts[0]
        assert isinstance(first, ChildStar)

    def test_sibling_plus(self):
        p = parse_tree_pattern("a(b+)")
        assert isinstance(p.body.children, ChildPlus)

    def test_tree_star_requires_adjacent_alpha(self):
        p = parse_tree_pattern("[[a(b c @)]]*@")
        assert isinstance(p.body, TreeStar)
        assert p.body.point == alpha()

    def test_tree_plus(self):
        p = parse_tree_pattern("[[a(@1)]]+@1")
        assert isinstance(p.body, TreePlus)

    def test_spaced_star_alpha_is_not_tree_closure(self):
        # "a* @1" inside children: sibling star, then a point atom.
        p = parse_tree_pattern("x(a* @1)")
        parts = p.body.children.parts
        assert isinstance(parts[0], ChildStar)
        assert isinstance(parts[1], PointAtom)

    def test_concat_operator(self):
        p = parse_tree_pattern("[[a(@1 @2)]] .@1 [[b(d(f g) e)]] .@2 c")
        assert isinstance(p.body, TreeConcat)
        assert p.body.point == alpha(2)
        assert isinstance(p.body.left, TreeConcat)

    def test_unicode_compose(self):
        assert parse_tree_pattern("a(@1) ∘@1 b") == parse_tree_pattern("a(@1) .@1 b")

    def test_union(self):
        p = parse_tree_pattern("a | b(c)")
        assert isinstance(p.body, TreeUnion)

    def test_union_inside_children(self):
        p = parse_tree_pattern("x(a | b)")
        assert isinstance(p.body.children, ChildAlt)


class TestAnchorsAndPrune:
    def test_root_anchor(self):
        assert parse_tree_pattern("^d(e)").root_anchor

    def test_leaf_anchor(self):
        assert parse_tree_pattern("b(d e)$").leaf_anchor

    def test_prune_atom(self):
        p = parse_tree_pattern("select(!? and)")
        first = p.body.children.parts[0]
        assert isinstance(first, TreePrune)

    def test_prune_star_distributes_into_repetition(self):
        p = parse_tree_pattern("Brazil(!?* USA !?*)")
        first = p.body.children.parts[0]
        assert isinstance(first, ChildStar)
        assert isinstance(first.inner, TreePrune)

    def test_nested_prune_rejected(self):
        with pytest.raises(PatternError):
            TreePrune(TreePrune(TreeAtom(ANY, None)))

    def test_anchored_copy(self):
        p = parse_tree_pattern("d(e)")
        assert not p.root_anchor
        assert p.anchored().root_anchor


class TestMetadata:
    def test_root_predicates_atom(self):
        p = parse_tree_pattern("d(e f)")
        assert [r.describe() for r in p.root_predicates()] == ["x = 'd'"]

    def test_root_predicates_union(self):
        p = parse_tree_pattern("a(x) | b(y)")
        assert len(p.root_predicates()) == 2

    def test_root_predicates_concat_uses_left(self):
        p = parse_tree_pattern("a(@1) .@1 b")
        assert [r.describe() for r in p.root_predicates()] == ["x = 'a'"]

    def test_root_predicates_star_unknown(self):
        assert parse_tree_pattern("[[a(@)]]*@").root_predicates() == []

    def test_contains_prune(self):
        assert parse_tree_pattern("a(!b)").contains_prune()
        assert not parse_tree_pattern("a(b)").contains_prune()

    def test_atom_predicates(self):
        p = parse_tree_pattern("a(b c)")
        assert len(p.atom_predicates()) == 3

    def test_describe_round_trip(self):
        for text in [
            "Mat(? Ed)",
            "Brazil(!?* USA !?*)",
            "d(e(h i) j)",
            "[[a(b c @)]]*@",
            "a(@1) .@1 b",
            "^d(e)",
            "b(d e)$",
            "a()",
            "x(a | b)",
            'printf(?* LargeData ?* LargeData ?*)',
            "x([[y(@2)]]*@2 .@2 @1)",
            "x('ab')",
        ]:
            p = parse_tree_pattern(text)
            assert parse_tree_pattern(p.describe()) == p

    def test_chain_inside_children(self):
        p = parse_tree_pattern("x(a(@1) .@1 b c)")
        parts = p.body.children.parts
        assert isinstance(parts[0], TreeConcat)
        assert len(parts) == 2


class TestCoercion:
    def test_text(self):
        assert isinstance(tree_pattern("a(b)"), TreePattern)

    def test_pattern_identity(self):
        p = parse_tree_pattern("a")
        assert tree_pattern(p) is p

    def test_node(self):
        assert isinstance(tree_pattern(TreeAtom(ANY, None)), TreePattern)

    def test_predicate(self):
        assert isinstance(tree_pattern(attr("x") == 1), TreePattern)

    def test_garbage_rejected(self):
        with pytest.raises(PatternError):
            tree_pattern(3.14)

    def test_trailing_rejected(self):
        with pytest.raises(NotationError):
            parse_tree_pattern("a b")
