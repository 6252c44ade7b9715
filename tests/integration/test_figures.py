"""End-to-end reproduction of every figure in the paper.

Each test is the executable form of one figure, compared structure for
structure.  The paper has no measured evaluation; these worked examples
are what it shows.
"""

from repro.algebra import split, split_pieces, sub_select
from repro.core import alpha, make_tuple, parse_tree
from repro.patterns import parse_tree_pattern, tree_in_language
from repro.workloads import (
    by_citizen_or_name,
    by_name,
    by_op_name,
    figure3_family_tree,
    figure5_parse_tree,
    section5_rebuild,
)


class TestFigure1:
    """Using concatenation points in tree patterns."""

    def test_value_level_concatenation(self):
        left = parse_tree("a(@1 @2)")
        mid = parse_tree("b(d(fg)e)")
        result = left.concat(alpha(1), mid).concat(alpha(2), parse_tree("c"))
        assert result == parse_tree("a(b(d(fg)e)c)")

    def test_pattern_level_concatenation(self):
        pattern = parse_tree_pattern("[[a(@1 @2)]] .@1 [[b(d(f g) e)]] .@2 c")
        assert tree_in_language(pattern, parse_tree("a(b(d(fg)e)c)"))
        assert not tree_in_language(pattern, parse_tree("a(c b(d(fg)e))"))


class TestFigure2:
    """Self-concatenation: the first four elements of L([[a(b c α)]]*α)."""

    def test_first_four_elements(self):
        pattern = parse_tree_pattern("[[a(b c @)]]*@")
        elements = [
            "a(bc)",
            "a(b c a(b c))",
            "a(b c a(b c a(b c)))",
            "a(b c a(b c a(b c a(b c))))",
        ]
        for element in elements:
            assert tree_in_language(pattern, parse_tree(element))

    def test_non_elements(self):
        pattern = parse_tree_pattern("[[a(b c @)]]*@")
        for non_element in ["a(b)", "a(b c d)", "a(a(b c) b c)"]:
            assert not tree_in_language(pattern, parse_tree(non_element))


class TestFigure3:
    """The family tree and order-preserving select over it."""

    def test_select_preserves_ancestry_and_contracts_edges(self):
        from repro.algebra import select
        from repro.workloads.family import BRAZIL

        family = figure3_family_tree()
        (survivors,) = select(BRAZIL, family)
        # Ed (USA) is contracted away; everyone else keeps ancestry.
        assert survivors.to_notation(lambda p: p.name) == (
            "Maria(Mat(Ana) Tom(Rita))"
        )

    def test_forest_when_root_dies(self):
        from repro.algebra import select
        from repro.workloads.family import USA

        family = figure3_family_tree()
        forest = select(USA, family)
        assert sorted(t.to_notation(lambda p: p.name) for t in forest) == ["Ed(Bill)"]


class TestFigure4:
    """split(Brazil(!?* USA !?*), λ(x,y,z)⟨x,y,z⟩)(T): the three pieces."""

    def test_exact_pieces(self):
        family = figure3_family_tree()
        result = split(
            "Brazil(!?* USA !?*)",
            lambda x, y, z: make_tuple(x, y, z),
            family,
            resolver=by_citizen_or_name,
        )
        assert len(result) == 1
        x, y, z = next(iter(result))
        name = lambda p: p.name
        assert x.to_notation(name) == "Maria(@ Tom(Rita Carl))"
        assert y.to_notation(name) == "Mat(@1 Ed(@2))"
        assert [t.to_notation(name) for t in z.values()] == ["Ana", "Bill"]

    def test_caption_pattern_matches(self):
        matches = sub_select('Mat(? "Ed")', figure3_family_tree(), resolver=by_name)
        assert [m.to_notation(lambda p: p.name) for m in matches] == ["Mat(Ana Ed)"]

    def test_reassembly(self):
        family = figure3_family_tree()
        (piece,) = split_pieces(
            "Brazil(!?* USA !?*)", family, resolver=by_citizen_or_name
        )
        assert piece.reassembled() == family


class TestFigure5:
    """The parse-tree rewrite done with the algebra itself."""

    def test_rewrite(self):
        tree = figure5_parse_tree()
        results = split(
            "select(!? and)", section5_rebuild, tree, resolver=by_op_name
        )
        assert len(results) == 1
        (rewritten,) = results
        assert rewritten.to_notation(lambda v: v.OpName) == (
            "join(select(select(R p1) p2) scan(S))"
        )

    def test_rewrite_preserves_node_count(self):
        tree = figure5_parse_tree()
        (rewritten,) = split(
            "select(!? and)", section5_rebuild, tree, resolver=by_op_name
        )
        assert rewritten.size() == tree.size()

    def test_printf_variable_arity_query(self):
        tree = parse_tree(
            "block(printf(fmt LD x LD) printf(fmt LD) call(printf(a LD b LD c)))"
        )
        hits = sub_select("printf(?* LD ?* LD ?*)", tree)
        assert sorted(t.to_notation() for t in hits) == [
            "printf(a LD b LD c)",
            "printf(fmt LD x LD)",
        ]
