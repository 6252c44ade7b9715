"""Tests for the tree bulk type: structure, concatenation, equality."""

import pytest

from repro.algebra import split
from repro.core.aqua_tree import AquaTree, TreeNode, subtree_at, tree
from repro.core.concat import ALPHA, NIL, ConcatPoint, alpha
from repro.core.identity import Record, as_cell
from repro.core.notation import parse_tree
from repro.errors import ConcatenationError


class TestConstruction:
    def test_build_nested(self):
        t = AquaTree.build("a", [AquaTree.leaf("b"), "c"])
        assert t.to_notation() == "a(bc)"

    def test_leaf(self):
        assert AquaTree.leaf("x").size() == 1

    def test_empty(self):
        t = AquaTree.empty()
        assert t.is_empty
        assert t.size() == 0
        assert t.height() == -1

    def test_from_nested(self):
        t = AquaTree.from_nested(("a", [("b", ["c"]), "d"]))
        assert t.to_notation() == "a(b(c)d)"

    def test_tree_constructor_function(self):
        t = tree("a", AquaTree.leaf("b"), AquaTree.leaf("c"))
        assert t.to_notation() == "a(bc)"

    def test_empty_children_skipped(self):
        t = AquaTree.build("a", [AquaTree.empty(), "b"])
        assert t.to_notation() == "a(b)"

    def test_concat_point_must_be_leaf(self):
        with pytest.raises(ConcatenationError):
            TreeNode(ALPHA, [TreeNode(ALPHA)])


class TestTraversal:
    def test_preorder_values(self):
        t = parse_tree("b(d(fg)e)")
        assert list(t.values()) == ["b", "d", "f", "g", "e"]

    def test_size_excludes_concat_points(self):
        t = parse_tree("a(@1 b)")
        assert t.size() == 2
        assert len(list(t.nodes())) == 3

    def test_height(self):
        assert parse_tree("a").height() == 0
        assert parse_tree("a(b(c))").height() == 2

    def test_edges(self):
        t = parse_tree("a(bc)")
        edges = [(p.value, c.value) for p, c in t.edges()]
        assert edges == [("a", "b"), ("a", "c")]

    def test_leaves(self):
        t = parse_tree("a(b(c)d)")
        assert sorted(n.value for n in t.leaves()) == ["c", "d"]

    def test_parent_map(self):
        t = parse_tree("a(b(c))")
        parents = t.parent_map()
        b = t.root.children[0]
        c = b.children[0]
        assert parents[id(t.root)] is None
        assert parents[id(c)] is b

    def test_find(self):
        t = parse_tree("a(ba)")
        assert len(list(t.find(lambda v: v == "a"))) == 2

    def test_concat_points_listing(self):
        t = parse_tree("a(@1 @2 @1)")
        assert t.concat_points() == [alpha(1), alpha(2), alpha(1)]


class TestLayout:
    """``layout()`` is the tree's one preorder numbering."""

    SHAPES = ["a", "a(b(c))", "a(b(c d) e(f(g)) h)", "a(@1 b(@2 c) @1)"]

    @pytest.mark.parametrize("text", SHAPES)
    def test_positions_are_the_preorder_walk(self, text):
        t = parse_tree(text)
        layout = t.layout()
        walked = list(t.nodes())
        assert all(a is b for a, b in zip(layout.nodes, walked))
        assert len(layout.nodes) == len(walked)
        assert layout.position == {id(n): i for i, n in enumerate(walked)}
        assert layout.children_position == {
            id(n.children): i for i, n in enumerate(walked)
        }
        assert layout.element_count == t.size()

    @pytest.mark.parametrize("text", SHAPES)
    def test_parent_depth_and_end_agree_with_naive_walks(self, text):
        t = parse_tree(text)
        layout = t.layout()
        parents = t.parent_map()
        for here, node in enumerate(layout.nodes):
            above = parents[id(node)]
            assert layout.parent[here] == (
                -1 if above is None else layout.position[id(above)]
            )
            chain = 0
            while above is not None:
                chain, above = chain + 1, parents[id(above)]
            assert layout.depth[here] == chain
            descendants = sum(1 for _ in subtree_at(node).nodes())
            assert layout.end[here] == here + descendants

    def test_concat_points_are_positions_but_not_elements(self):
        t = parse_tree("a(@1 b)")
        layout = t.layout()
        assert [n.is_concat_point for n in layout.nodes] == [False, True, False]
        assert layout.element_count == 2

    def test_empty_tree(self):
        layout = AquaTree.empty().layout()
        assert layout.nodes == ()
        assert layout.position == {} and layout.children_position == {}
        assert layout.parent == layout.depth == layout.end == []
        assert layout.element_count == 0

    def test_built_once_and_sees_edits_made_before_the_first_call(self):
        t = AquaTree.build("a", ["b"])
        t.root.children.append(TreeNode(ConcatPoint("1")))
        layout = t.layout()
        assert len(layout.nodes) == 3 and layout.end == [3, 2, 3]
        assert t.layout() is layout


class TestConcatenation:
    def test_figure1_composition(self):
        left = parse_tree("a(@1 @2)")
        combined = left.concat(alpha(1), parse_tree("b(d(fg)e)")).concat(
            alpha(2), parse_tree("c")
        )
        assert combined == parse_tree("a(b(d(fg)e)c)")

    def test_missing_label_is_identity(self):
        t = parse_tree("a(@1)")
        assert t.concat(alpha(9), parse_tree("x")) == t

    def test_nil_deletes_labeled_leaf(self):
        t = parse_tree("a(@1 b)")
        assert t.concat(alpha(1), NIL) == parse_tree("a(b)")

    def test_empty_tree_behaves_like_nil(self):
        t = parse_tree("a(@1 b)")
        assert t.concat(alpha(1), AquaTree.empty()) == parse_tree("a(b)")

    def test_multiple_occurrences_each_replaced(self):
        t = parse_tree("x(@ @)")
        result = t.concat(ConcatPoint(), parse_tree("y(z)"))
        assert result == parse_tree("x(y(z)y(z))")

    def test_multiple_occurrences_get_fresh_cells(self):
        t = parse_tree("x(@ @)").concat(ConcatPoint(), parse_tree("y"))
        kids = t.root.children
        assert kids[0].item is not kids[1].item

    def test_concat_does_not_mutate_operands(self):
        t = parse_tree("a(@1)")
        u = parse_tree("b")
        t.concat(alpha(1), u)
        assert t == parse_tree("a(@1)")
        assert u == parse_tree("b")

    def test_concat_many(self):
        t = parse_tree("a(@1 @2)")
        result = t.concat_many([(alpha(1), parse_tree("b")), (alpha(2), parse_tree("c"))])
        assert result == parse_tree("a(bc)")

    def test_close_points_removes_all(self):
        t = parse_tree("a(@1 b(@2))")
        assert t.close_points() == parse_tree("a(b)")

    def test_close_points_selective(self):
        t = parse_tree("a(@1 @2)")
        assert t.close_points([alpha(1)]) == parse_tree("a(@2)")

    def test_root_concat_point_replaced(self):
        t = AquaTree.concat_leaf(alpha(1))
        assert t.concat(alpha(1), parse_tree("a(b)")) == parse_tree("a(b)")

    def test_root_concat_point_deleted_gives_empty(self):
        t = AquaTree.concat_leaf(alpha(1))
        assert t.concat(alpha(1), NIL).is_empty

    def test_concat_rejects_garbage(self):
        with pytest.raises(ConcatenationError):
            parse_tree("a(@1)").concat(alpha(1), "not a tree")


class TestCloneAndEquality:
    def test_clone_is_structurally_equal(self):
        t = parse_tree("a(b(c)d)")
        assert t.clone() == t

    def test_clone_shares_cells_by_default(self):
        t = parse_tree("a(b)")
        clone = t.clone()
        assert clone.root.item is t.root.item

    def test_clone_fresh_cells(self):
        t = parse_tree("a(b)")
        clone = t.clone(fresh_cells=True)
        assert clone.root.item is not t.root.item
        assert clone == t

    def test_equality_considers_structure(self):
        assert parse_tree("a(bc)") != parse_tree("a(cb)")
        assert parse_tree("a(b(c))") != parse_tree("a(bc)")

    def test_equality_considers_concat_point_labels(self):
        assert parse_tree("a(@1)") != parse_tree("a(@2)")
        assert parse_tree("a(@1)") == parse_tree("a(@1)")

    def test_hash_consistency(self):
        assert hash(parse_tree("a(bc)")) == hash(parse_tree("a(bc)"))

    def test_record_payload_identity(self):
        payload = Record(name="x")
        t1 = AquaTree.leaf(payload)
        t2 = AquaTree.leaf(payload)
        assert t1 == t2  # same payload object

    def test_subtree_at_view(self):
        t = parse_tree("a(b(c))")
        sub = subtree_at(t.root.children[0])
        assert sub.to_notation() == "b(c)"


class TestDeepChains:
    """Clone, ``∘α``, ``concat_many``, ``close_points`` and the ``z``
    pieces of a split are one iterative rebuild: a 10⁴-deep chain
    completes where a recursive walk would overflow the stack."""

    DEPTH = 10_000

    def pruned_chain(self) -> AquaTree:
        """``r`` over a 10⁴-deep chain of ``x`` ending in the point ``1``."""
        node = TreeNode(ConcatPoint("1"))
        for _ in range(self.DEPTH):
            node = TreeNode(as_cell("x"), [node])
        return AquaTree(TreeNode(as_cell("r"), [node]))

    def test_clone_concat_and_close_points_complete(self):
        chain = self.pruned_chain()
        point = ConcatPoint("1")
        assert chain.clone(fresh_cells=True) == chain
        plugged = chain.concat(point, AquaTree.leaf("y"))
        assert plugged.size() == self.DEPTH + 2
        assert plugged.layout().depth[-1] == self.DEPTH + 1
        many = chain.concat_many([(point, AquaTree.leaf("y")), (ConcatPoint("2"), NIL)])
        assert many == plugged
        closed = chain.close_points()
        assert closed.size() == self.DEPTH + 1
        assert closed.concat_points() == []

    def test_split_reading_z_completes(self):
        chain = self.pruned_chain()
        sizes = split("r(!?)", lambda x, y, z: tuple(piece.size() for piece in z), chain)
        assert list(sizes) == [(self.DEPTH,)]
