"""Tests for the list bulk type: structure, splicing, list-like trees."""

import pytest

from repro.core.aqua_list import AquaList
from repro.core.concat import NIL, alpha
from repro.core.identity import Record
from repro.core.notation import parse_list
from repro.errors import ConcatenationError, TypeMismatchError


class TestConstruction:
    def test_of_wraps_payloads(self):
        l = AquaList.of("a", "b")
        assert l.values() == ["a", "b"]

    def test_of_accepts_concat_points(self):
        l = AquaList.of("a", alpha(1))
        assert len(l) == 1
        assert l.concat_points() == [alpha(1)]

    def test_raw_entries_rejected(self):
        with pytest.raises(TypeMismatchError):
            AquaList(["raw-string"])

    def test_empty(self):
        assert AquaList.empty().is_empty

    def test_duplicate_payloads_allowed(self):
        payload = Record(x=1)
        l = AquaList.of(payload, payload)
        assert len(l) == 2
        cells = list(l.cells())
        assert cells[0] is not cells[1]
        assert cells[0].contents is cells[1].contents


class TestAccess:
    def test_len_counts_elements_only(self):
        assert len(parse_list("[a @1 b]")) == 2

    def test_iteration_yields_values(self):
        assert list(parse_list("[abc]")) == ["a", "b", "c"]

    def test_indexing(self):
        l = parse_list("[abc]")
        assert l[0] == "a"
        assert l[-1] == "c"
        assert l[1:] == ["b", "c"]

    def test_sublist(self):
        l = parse_list("[abcde]")
        assert l.sublist(1, 4).values() == ["b", "c", "d"]

    def test_sublist_keeps_interior_points(self):
        l = parse_list("[a @1 b c]")
        assert l.sublist(0, 2).concat_points() == [alpha(1)]

    def test_sublist_out_of_range_windows(self):
        """The slice fast path and the entry walk clamp alike: positions
        below zero or past the end select nothing extra."""
        for text in ("[abcde]", "[a @1 b c d e]"):
            l = parse_list(text)
            assert l.sublist(-3, 2).values() == ["a", "b"]
            assert l.sublist(3, 99).values() == ["d", "e"]
            assert l.sublist(4, 2).values() == []
            assert l.sublist(2, -1).values() == []

    def test_appended(self):
        assert parse_list("[ab]").appended("c") == parse_list("[abc]")


class TestSharedArrays:
    """One cell array and one value array per list, shared by every
    reader; the public accessors stay copy-safe."""

    def test_arrays_are_position_addressable_and_skip_points(self):
        l = parse_list("[a @1 b c]")
        assert l.value_array == ("a", "b", "c")
        assert [cell.contents for cell in l.cell_array] == ["a", "b", "c"]
        assert list(l.cells()) == list(l.cell_array)
        assert l.value_array is l.value_array  # derived once

    def test_no_points_shares_the_entries(self):
        l = parse_list("[abc]")
        assert l.cell_array is l.entries

    def test_mutating_values_leaves_list_index_and_queries_unchanged(self):
        from repro.query import Q, evaluate
        from repro.storage import Database

        l = parse_list("[a b a c]")
        db = Database()
        db.bind_root("L", l)
        index = db.list_index(l)
        query = Q.root("L").lsub_select("[a ?]").build()
        before = evaluate(query, db)

        values = l.values()
        values[0] = "z"
        values.append("a")
        del values[1]

        assert l.values() == ["a", "b", "a", "c"]
        assert l == parse_list("[a b a c]")
        assert len(l) == 4 and l[0] == "a"
        assert index.values == ("a", "b", "a", "c")
        assert evaluate(query, db) == before
        assert [m.values() for m in before] == [["a", "b"], ["a", "c"]]

    def test_adopted_cuts_equal_constructor_built_lists(self):
        """Slices and split pieces skip the per-entry validation pass;
        they must be indistinguishable from lists built the checked way."""
        from repro.algebra import split_list_pieces

        l = parse_list("[x a b c y z]")
        window = l.sublist(1, 4)
        assert window == parse_list("[a b c]")
        assert window.cell_array is window.entries
        assert window.cell_array == l.cell_array[1:4]

        (piece,) = split_list_pieces("[a !? c]", l)
        for part in (piece.context, *piece.descendants):
            rebuilt = AquaList(part.entries)
            assert part == rebuilt and len(part) == len(rebuilt)
            assert part.cell_array == rebuilt.cell_array
            assert part.concat_points() == rebuilt.concat_points()
        assert piece.context.to_notation() == "[x @]"
        assert [d.values() for d in piece.descendants] == [["b"], ["y", "z"]]
        assert piece.reassembled() == l


class TestConcatenation:
    def test_plain_concat(self):
        assert parse_list("[ab]").concat(parse_list("[cd]")) == parse_list("[abcd]")

    def test_concat_at_tail_point(self):
        l = parse_list("[ab@1]")
        assert l.concat_at(alpha(1), parse_list("[cd]")) == parse_list("[abcd]")

    def test_concat_at_interior_point(self):
        l = parse_list("[a @1 c]")
        assert l.concat_at(alpha(1), parse_list("[b]")) == parse_list("[a b c]")

    def test_concat_missing_label_is_identity(self):
        l = parse_list("[ab@1]")
        assert l.concat_at(alpha(9), parse_list("[x]")) == l

    def test_concat_nil_deletes_point(self):
        l = parse_list("[ab@1]")
        assert l.concat_at(alpha(1), NIL) == parse_list("[ab]")

    def test_multiple_occurrences_fresh_cells(self):
        l = AquaList.of(alpha(1), "x", alpha(1))
        spliced = l.concat_at(alpha(1), AquaList.of("y"))
        assert spliced.values() == ["y", "x", "y"]
        cells = list(spliced.cells())
        assert cells[0] is not cells[2]

    def test_concat_many(self):
        l = parse_list("[@1 m @2]")
        result = l.concat_many(
            [(alpha(1), parse_list("[a]")), (alpha(2), parse_list("[z]"))]
        )
        assert result == parse_list("[amz]")

    def test_close_points(self):
        assert parse_list("[a @1 b @2]").close_points() == parse_list("[ab]")

    def test_close_points_selective(self):
        l = parse_list("[a @1 b @2]")
        assert l.close_points([alpha(1)]) == parse_list("[a b @2]")

    def test_concat_rejects_garbage(self):
        with pytest.raises(ConcatenationError):
            parse_list("[a@1]").concat_at(alpha(1), "nope")


class TestListLikeTrees:
    def test_round_trip(self):
        l = parse_list("[abc]")
        assert AquaList.from_list_like_tree(l.to_list_like_tree()) == l

    def test_encoding_shape(self):
        assert parse_list("[abc]").to_list_like_tree().to_notation() == "a(b(c))"

    def test_tail_point_becomes_leaf(self):
        t = parse_list("[ab@1]").to_list_like_tree()
        assert t.to_notation() == "a(b(@1))"

    def test_interior_point_rejected(self):
        with pytest.raises(ConcatenationError):
            parse_list("[a @1 b]").to_list_like_tree()

    def test_empty_list_is_empty_tree(self):
        assert AquaList.empty().to_list_like_tree().is_empty

    def test_non_list_like_tree_rejected(self):
        from repro.core.notation import parse_tree

        with pytest.raises(TypeMismatchError):
            AquaList.from_list_like_tree(parse_tree("a(bc)"))


class TestEquality:
    def test_value_equality(self):
        assert parse_list("[abc]") == parse_list("[abc]")
        assert parse_list("[abc]") != parse_list("[acb]")

    def test_points_matter(self):
        assert parse_list("[a@1]") != parse_list("[a]")
        assert parse_list("[a@1]") != parse_list("[a@2]")

    def test_hash_consistency(self):
        assert hash(parse_list("[ab]")) == hash(parse_list("[ab]"))

    def test_record_payloads(self):
        shared = Record(x=1)
        assert AquaList.of(shared) == AquaList.of(shared)
