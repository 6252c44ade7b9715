"""Randomized pipeline ≡ reference-evaluator equivalence.

Hypothesis drives random plans over the three workload families —
labeled/identity trees, songs, RNA structures — and asserts
``Session.query`` (the Volcano-style pipeline) returns exactly what the
plain recursive evaluator over the algebra definitions
(``tests/reference.py``) returns: values, member order and equality
notion.  The split cases additionally check the §4 reassembly identity
``x ∘α (y ∘α1 z1 ... ∘αn zn) = T`` *through the pipeline*: a split
whose function reassembles must yield ``{T}``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_tuple
from repro.core.aqua_list import AquaList
from repro.core.aqua_set import AquaSet
from repro.core.concat import ALPHA
from repro import Session
from repro.query import Q
from repro.storage import Database
from repro.workloads import (
    by_citizen_or_name,
    by_element,
    by_pitch,
    random_family_tree,
    random_rna_structure,
    random_song,
)

from ..reference import reference_eval
from .strategies import (
    aqua_lists,
    identity_trees,
    labeled_trees,
    list_patterns_with_prunes,
    tree_patterns,
    tree_patterns_with_prunes,
)

SETTINGS = settings(max_examples=50, deadline=None)


def ordered(value):
    if isinstance(value, AquaSet):
        return list(value)
    if isinstance(value, AquaList):
        return value.values()
    return value


def assert_matches_reference(query, db):
    streamed = Session(db).query(query)
    reference = reference_eval(query, db)
    assert streamed == reference
    assert ordered(streamed) == ordered(reference)
    if isinstance(reference, AquaSet):
        assert streamed.equality is reference.equality
    return streamed


def reassemble(x, y, z):
    """``x ∘α (y ∘α1 z1 ... ∘αn zn)`` — plug the pieces back together."""
    rebuilt = y
    for point, subtree in zip(y.concat_points(), z.values()):
        rebuilt = rebuilt.concat(point, subtree)
    return x.concat(ALPHA, rebuilt)


# -- random plans over random trees -------------------------------------------


@SETTINGS
@given(tree=labeled_trees(max_size=12), pattern=tree_patterns())
def test_sub_select_agrees_on_labeled_trees(tree, pattern):
    db = Database()
    db.bind_root("T", tree)
    assert_matches_reference(Q.root("T").sub_select(pattern).build(), db)


@SETTINGS
@given(tree=identity_trees(max_size=12), pattern=tree_patterns())
def test_identity_payload_results_never_collapse(tree, pattern):
    """OODB setting: payloads compare by identity, so wildcard matches
    over structurally-equal subtrees must stay distinct members (the
    producer-side dedup must use the reference's equality notion)."""
    db = Database()
    db.bind_root("T", tree)
    assert_matches_reference(Q.root("T").sub_select(pattern).build(), db)
    query = Q.root("T").split(pattern, make_tuple).build()
    assert_matches_reference(query, db)


@SETTINGS
@given(tree=labeled_trees(max_size=12), pattern=tree_patterns_with_prunes())
def test_split_reassembly_identity_through_the_pipeline(tree, pattern):
    db = Database()
    db.bind_root("T", tree)
    query = Q.root("T").split(pattern, reassemble).build()
    for rebuilt in assert_matches_reference(query, db):
        assert rebuilt == tree


# -- workload families ---------------------------------------------------------


@SETTINGS
@given(
    size=st.integers(min_value=14, max_value=48),
    seed=st.integers(min_value=0, max_value=5000),
    planted=st.integers(min_value=1, max_value=3),
)
def test_family_split_agrees(size, seed, planted):
    family = random_family_tree(size, seed=seed, planted_matches=planted)
    db = Database()
    db.bind_root("family", family)
    query = (
        Q.root("family")
        .split("Brazil(!?* USA !?*)", make_tuple, resolver=by_citizen_or_name)
        .build()
    )
    result = assert_matches_reference(query, db)
    assert len(result) >= planted


@SETTINGS
@given(
    length=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_melody_sub_select_agrees(length, seed):
    db = Database()
    db.bind_root("song", random_song(length, seed=seed))
    query = Q.root("song").lsub_select("[A??F]", resolver=by_pitch).build()
    assert_matches_reference(query, db)


@SETTINGS
@given(values=aqua_lists(), pattern=list_patterns_with_prunes())
def test_random_list_sub_select_agrees(values, pattern):
    db = Database()
    db.bind_root("L", values)
    query = Q.root("L").lsub_select(pattern).build()
    assert_matches_reference(query, db)


@SETTINGS
@given(
    size=st.integers(min_value=4, max_value=60),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_rna_motif_sub_select_agrees(size, seed):
    db = Database()
    db.bind_root("rna", random_rna_structure(size, seed=seed))
    query = Q.root("rna").sub_select("S(H)", resolver=by_element).build()
    assert_matches_reference(query, db)
