"""Properties: hostile text parses or raises the library's own error.

Each language's texts are drawn from its own characters and tokens plus
the cases a tree-pattern lexer must survive (ANTLR's
``TreePatternLexer``: escapes, ``%label:``, unbalanced parentheses and
``.``), ``[[`` / ``]]`` runs and quotes.  Every text either parses or
raises an :class:`~repro.errors.AquaError` — never a bare Python error —
and a :class:`~repro.errors.NotationError` names a position inside the
text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.notation import parse_list, parse_tree
from repro.errors import AquaError, NotationError
from repro.patterns import parse_list_pattern, parse_tree_pattern
from repro.predicates.parser import parse_predicate
from repro.query.aql import parse_aql, parse_aql_shape

SETTINGS = settings(max_examples=150, deadline=None)

HOSTILE = (
    "\\", "\\'", '\\"', "%label:", "%x:", "(", ")", "((", "))", ".", "..",
    "[[", "]]", "[[[", "]]]", "'", '"', "''", '""', " ", ",", "{", "}",
)
NOTATION = ("a", "ab", "Mat", "@", "@1", "'x y'", '"q(r)"', "[", "]", "é", "_1")
PATTERN = NOTATION + (
    "*", "+", "|", "?", "!", "^", "$", "*@1", "+@", "{age > 25}", '{name = "}"}',
    "{a = 'x'}", "⟦", "⟧", "∘", "⊤", "⊥",
)
PREDICATE = (
    "a", "age", "p", "lambda(p) ", "p.", " and ", " or ", "not ", "=", "!=", "<=",
    ">", "25", "-3", "1.5", '"x"', "'y z'", "$k", "true", "FALSE", "AND",
)
AQL = (
    "root ", "extent ", "T", "Person", " | ", "select ", "sselect ", "lselect ",
    "sub_select ", "lsub_select ", "all_anc ", "all_desc ", "project ", "path ",
    " by ", "name", "{a = 1}", '{name = "}"}', '"a(b c)"', "'[A??F]'", '"//p"',
    "{x = $k}",
)


def texts(pieces):
    piece = st.sampled_from(HOSTILE + pieces) | st.text(max_size=2)
    return st.lists(piece, max_size=16).map("".join)


def survives(parse, text):
    try:
        parse(text)
    except NotationError as error:
        assert error.text == text
        assert error.position is not None and 0 <= error.position <= len(text)
    except AquaError:
        pass


@SETTINGS
@given(text=texts(NOTATION))
def test_notation_text_parses_or_raises_a_notation_error(text):
    survives(parse_tree, text)
    survives(parse_list, text)


@SETTINGS
@given(text=texts(PATTERN))
def test_list_pattern_text_parses_or_raises_a_library_error(text):
    survives(parse_list_pattern, text)


@SETTINGS
@given(text=texts(PATTERN))
def test_tree_pattern_text_parses_or_raises_a_library_error(text):
    survives(parse_tree_pattern, text)


@SETTINGS
@given(text=texts(PREDICATE))
def test_predicate_text_parses_or_raises_a_library_error(text):
    survives(parse_predicate, text)


@SETTINGS
@given(text=texts(AQL))
def test_aql_text_parses_or_raises_a_library_error(text):
    survives(parse_aql, text)
    survives(parse_aql_shape, text)
