"""Tests for the paper's textual notation (parse + format)."""

import pytest

from repro.core.aqua_tuple import AquaTuple, make_tuple
from repro.core.notation import format_list, format_tree, parse_list, parse_tree, use_word_mode
from repro.errors import NotationError, TypeMismatchError


class TestTreeParsing:
    def test_paper_figure_tree(self):
        t = parse_tree("b(d(fg)e)")
        assert list(t.values()) == ["b", "d", "f", "g", "e"]

    def test_word_mode(self):
        t = parse_tree("Mat(Ann Tom)")
        assert list(t.values()) == ["Mat", "Ann", "Tom"]

    def test_bare_lowercase_word_is_one_symbol(self):
        assert parse_tree("figure").size() == 1

    def test_multichar_symbols_with_structure_need_spaces(self):
        assert list(parse_tree("section( figure )").values()) == ["section", "figure"]
        # Without spaces, compact mode splits lowercase runs, so "ab(c)"
        # reads as two roots and is rejected:
        with pytest.raises(NotationError):
            parse_tree("ab(c)")

    def test_concat_points(self):
        t = parse_tree("a(@1 @2)")
        assert len(t.concat_points()) == 2

    def test_anonymous_point(self):
        t = parse_tree("a(@)")
        assert t.concat_points()[0].label == ""

    def test_quoted_symbols(self):
        t = parse_tree("'two words'('x(y)')")
        assert list(t.values()) == ["two words", "x(y)"]

    def test_commas_as_separators(self):
        assert parse_tree("f(a,b)") == parse_tree("f(a b)")

    def test_empty_input_is_empty_tree(self):
        assert parse_tree("").is_empty

    def test_trailing_input_rejected(self):
        with pytest.raises(NotationError):
            parse_tree("a b")  # two roots

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(NotationError):
            parse_tree("a(b")

    def test_unterminated_quote_rejected(self):
        with pytest.raises(NotationError):
            parse_tree("'oops")

    def test_deep_nesting_raises_a_notation_error(self):
        with pytest.raises(NotationError, match="tree nests too deeply"):
            parse_tree("a(" * 3000 + "b" + ")" * 3000)

    def test_an_error_quotes_only_the_text_around_its_position(self):
        text = "a(" * 3000
        with pytest.raises(NotationError, match="tree nests too deeply") as caught:
            parse_tree(text)
        error = caught.value
        assert error.text == text
        assert 0 < error.position < len(text)
        message = str(error)
        assert len(message) < 200
        assert f"at position {error.position} in …'" in message
        assert message.endswith("'…)")


class TestListParsing:
    def test_compact(self):
        assert parse_list("[abc]").values() == ["a", "b", "c"]

    def test_word_mode(self):
        assert parse_list("[A B C]").values() == ["A", "B", "C"]

    def test_points_in_lists(self):
        l = parse_list("[ab@1]")
        assert len(l) == 2
        assert len(l.concat_points()) == 1

    def test_missing_bracket_rejected(self):
        with pytest.raises(NotationError):
            parse_list("[ab")

    def test_trailing_rejected(self):
        with pytest.raises(NotationError):
            parse_list("[a]b")

    def test_structure_inside_list_rejected(self):
        with pytest.raises(NotationError):
            parse_list("[a(b)]")


class TestFormatting:
    @pytest.mark.parametrize(
        "text",
        [
            "a", "a(bc)", "b(d(fg)e)", "a(@1 @2)", "Mat(Ann Tom)", "a(b(c)d(e))",
            "x(ab c)", "x('a-b' c)",
        ],
    )
    def test_tree_round_trip(self, text):
        t = parse_tree(text)
        assert parse_tree(format_tree(t)) == t

    @pytest.mark.parametrize("text", ["[abc]", "[A B C]", "[ab@1]", "[a]"])
    def test_list_round_trip(self, text):
        l = parse_list(text)
        assert parse_list(format_list(l)) == l

    def test_compact_output_for_single_letters(self):
        assert format_tree(parse_tree("b(d(f g) e)")) == "b(d(fg)e)"

    def test_spaced_output_for_words(self):
        assert format_tree(parse_tree("Mat(Ann Tom)")) == "Mat(Ann Tom)"

    def test_quoting_when_needed(self):
        t = parse_tree("'has space'")
        assert format_tree(t) == "'has space'"

    def test_custom_label_function(self):
        from repro.core.identity import Record
        from repro.core.aqua_tree import AquaTree

        t = AquaTree.leaf(Record(name="Mat"))
        assert format_tree(t, label=lambda p: p.name) == "Mat"

    def test_word_mode_heuristic(self):
        assert use_word_mode("A B")
        assert use_word_mode("figure")
        assert use_word_mode("Mat(Ann Tom)")
        assert not use_word_mode("b(d(fg)e)")
        assert not use_word_mode("[abc]")


class TestAquaTuple:
    def test_projection_is_one_based(self):
        t = make_tuple("x", "y")
        assert t.project(1) == "x"
        assert t.project(2) == "y"

    def test_projection_out_of_range(self):
        with pytest.raises(TypeMismatchError):
            make_tuple("x").project(2)

    def test_python_indexing_is_zero_based(self):
        assert make_tuple("x", "y")[0] == "x"

    def test_equality_with_tuples(self):
        assert make_tuple(1, 2) == (1, 2)
        assert make_tuple(1, 2) == AquaTuple(1, 2)

    def test_unpacking(self):
        a, b = make_tuple(1, 2)
        assert (a, b) == (1, 2)

    def test_arity(self):
        assert make_tuple(1, 2, 3).arity == 3
