"""Properties of ``split``: the reassembly invariant and derived forms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.algebra.derived import (
    all_anc_via_split,
    all_desc_via_split,
    sub_select_via_split,
)
from repro.algebra.list_ops import split_list_pieces, sub_select_list
from repro.algebra.tree_ops import all_anc, all_desc, split, split_pieces, sub_select
from repro.core import AquaSet, make_tuple
from repro.query import Q
from repro.storage import Database

from ..reference import untabled_scope
from .strategies import (
    aqua_lists,
    labeled_trees,
    list_patterns_with_prunes,
    tree_patterns,
    tree_patterns_with_prunes,
)

SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(pattern=tree_patterns_with_prunes(), tree=labeled_trees())
def test_tree_split_reassembles(pattern, tree):
    for piece in split_pieces(pattern, tree):
        assert piece.reassembled() == tree


@SETTINGS
@given(pattern=tree_patterns(), tree=labeled_trees(max_size=10))
def test_tree_split_reassembles_plain_patterns(pattern, tree):
    for piece in split_pieces(pattern, tree):
        assert piece.reassembled() == tree


@SETTINGS
@given(pattern=tree_patterns(), tree=labeled_trees(max_size=10))
def test_sub_select_equals_split_definition(pattern, tree):
    assert sub_select(pattern, tree) == sub_select_via_split(pattern, tree)


@SETTINGS
@given(pattern=tree_patterns_with_prunes(), tree=labeled_trees(max_size=12))
def test_sub_select_equals_split_definition_with_prunes(pattern, tree):
    assert sub_select(pattern, tree) == sub_select_via_split(pattern, tree)


@SETTINGS
@given(
    pattern=st.one_of(tree_patterns(), tree_patterns_with_prunes()),
    tree=labeled_trees(max_size=12),
    probe=st.booleans(),
    engine=st.sampled_from(["memo", "backtrack"]),
)
def test_four_operators_agree_from_session_to_defining_equation(
    pattern, tree, probe, engine
):
    """``Session.query`` ≡ the algebra function ≡ the §4 defining equation
    (``derived.py``; for ``split`` itself, the pieces ``split_pieces``
    cuts), members and order — over the node index or the full scan,
    tabled or not."""
    db = Database()
    db.bind_root("T", tree)
    source = Q.root("T")
    pieces = split_pieces(pattern, tree)
    cases = [
        (
            source.sub_select(pattern),
            sub_select(pattern, tree),
            sub_select_via_split(pattern, tree),
        ),
        (
            source.split(pattern, make_tuple),
            split(pattern, make_tuple, tree),
            AquaSet(make_tuple(p.context, p.match, p.descendants) for p in pieces),
        ),
        (
            source.all_anc(pattern, make_tuple),
            all_anc(pattern, make_tuple, tree),
            all_anc_via_split(pattern, make_tuple, tree),
        ),
        (
            source.all_desc(pattern, make_tuple),
            all_desc(pattern, make_tuple, tree),
            all_desc_via_split(pattern, make_tuple, tree),
        ),
    ]
    for query, algebra, defining in cases:
        with untabled_scope(db, engine):
            answer = Session(db).query(query.build(), optimize=probe)
        assert list(answer) == list(algebra) == list(defining)


@SETTINGS
@given(pattern=list_patterns_with_prunes(), values=aqua_lists())
def test_list_split_reassembles(pattern, values):
    for piece in split_list_pieces(pattern, values):
        assert piece.reassembled() == values


@SETTINGS
@given(pattern=list_patterns_with_prunes(), values=aqua_lists())
def test_list_sub_select_is_kept_piece(pattern, values):
    """sub_select == split's match piece with points closed."""
    closed = {
        piece.match.close_points().to_notation()
        for piece in split_list_pieces(pattern, values)
    }
    direct = {m.to_notation() for m in sub_select_list(pattern, values)}
    assert direct == closed
