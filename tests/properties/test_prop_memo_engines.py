"""Randomized memo ≡ backtracker equivalence (ISSUE 4 satellite).

Hypothesis drives random patterns and workloads — labeled/identity
trees, family trees, songs routed through the §6 list-as-tree bridge,
RNA structures — and asserts the matcher's tabled paths (``memo``)
enumerate exactly the ``Shape`` stream of the same matcher handed a
null-table context (``backtrack``): same match multiset, same member
order, both directly at the matcher and through the query pipeline (with
the untabled reference evaluator as baseline).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.list_tree_bridge import sub_select_via_tree
from repro.core import make_tuple
from repro.core.aqua_list import AquaList
from repro.core.aqua_set import AquaSet
from repro.patterns import find_tree_matches, parse_list_pattern
from repro.query import Q, evaluate
from repro.storage import Database
from repro.workloads import (
    by_citizen_or_name,
    by_element,
    by_pitch,
    random_family_tree,
    random_rna_structure,
    random_song,
)

from ..reference import reference_eval, untabled, untabled_scope
from .strategies import (
    identity_trees,
    labeled_trees,
    tree_patterns,
    tree_patterns_with_prunes,
    wide_labeled_trees,
)

SETTINGS = settings(max_examples=50, deadline=None)

ENGINES = ("memo", "backtrack")


def ordered(value):
    if isinstance(value, AquaSet):
        return list(value)
    if isinstance(value, AquaList):
        return value.values()
    return value


def assert_matchers_agree(pattern, tree):
    """Same ``Shape`` stream — multiset *and* member order."""
    memo = [m.key() for m in find_tree_matches(pattern, tree)]
    backtrack = [
        m.key()
        for m in find_tree_matches(pattern, tree, context=untabled(pattern, tree))
    ]
    assert memo == backtrack


def assert_engines_agree(query, db):
    baseline = reference_eval(query, db)
    for engine in ENGINES:
        with untabled_scope(engine):
            value = evaluate(query, db)
        assert value == baseline
        assert ordered(value) == ordered(baseline)
    return baseline


# -- matcher-level equivalence on random trees --------------------------------


@SETTINGS
@given(tree=labeled_trees(max_size=12), pattern=tree_patterns())
def test_same_shape_stream_on_labeled_trees(tree, pattern):
    assert_matchers_agree(pattern, tree)


@SETTINGS
@given(tree=identity_trees(max_size=12), pattern=tree_patterns())
def test_same_shape_stream_on_identity_trees(tree, pattern):
    assert_matchers_agree(pattern, tree)


# Arity ≤ 3 trees stay below the default engine's fan-out gate, the wide
# ones sit above it, so default ≡ backtrack is checked on both sides.
# Wide trees pair with the prune patterns only: their sibling closures
# are unambiguous, where a random ``[[x | y]]*`` over 40 siblings has
# exponentially many derivations under either engine.
@SETTINGS
@given(
    tree=st.one_of(labeled_trees(max_size=12), wide_labeled_trees()),
    pattern=tree_patterns_with_prunes(),
)
def test_same_shape_stream_with_prunes(tree, pattern):
    assert_matchers_agree(pattern, tree)


# -- through the query pipeline, over the workload families -------------------


@SETTINGS
@given(tree=labeled_trees(max_size=12), pattern=tree_patterns())
def test_sub_select_agrees_across_engines(tree, pattern):
    db = Database()
    db.bind_root("T", tree)
    assert_engines_agree(Q.root("T").sub_select(pattern).build(), db)


@SETTINGS
@given(
    tree=st.one_of(labeled_trees(max_size=10), wide_labeled_trees()),
    pattern=tree_patterns_with_prunes(),
)
def test_split_agrees_across_engines(tree, pattern):
    db = Database()
    db.bind_root("T", tree)
    query = Q.root("T").split(pattern, make_tuple).build()
    assert_engines_agree(query, db)


@SETTINGS
@given(
    size=st.integers(min_value=14, max_value=40),
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
    result = assert_engines_agree(query, db)
    assert len(result) >= planted


@SETTINGS
@given(
    length=st.integers(min_value=0, max_value=24),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_melody_via_tree_bridge_agrees(length, seed):
    """Songs reach the tree matcher through the §6 list-as-tree bridge,
    so its tabled paths must reproduce the backtracker there too."""
    song = random_song(length, seed=seed)
    pattern = parse_list_pattern("[A??F]", resolver=by_pitch)
    outcomes = {}
    for engine in ENGINES:
        with untabled_scope(engine=engine):
            outcomes[engine] = sub_select_via_tree(pattern, song)
    assert outcomes["memo"] == outcomes["backtrack"]
    assert ordered(outcomes["memo"]) == ordered(outcomes["backtrack"])


@SETTINGS
@given(
    size=st.integers(min_value=4, max_value=50),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_rna_motif_agrees(size, seed):
    db = Database()
    db.bind_root("rna", random_rna_structure(size, seed=seed))
    query = Q.root("rna").sub_select("S(H)", resolver=by_element).build()
    assert_engines_agree(query, db)
