"""Candidate-source bit-identity properties.

Every tree scan narrows its candidate roots through one seam: the index
probe, or the root first-set scan.  Its contract: the tabled matcher
behind the first-set scan (``memo``) and the untabled reference
(``backtrack``, :func:`tests.reference.untabled_scope`) return the same
match stream, the probe-optimized plan and the full scan return it too,
and all equal the reference evaluator — across labeled trees, Figure-4
family splits and melody lists.  The ``backend`` axis names the oracle
every list column built is checked against (the element loop, or
numpy's vectorized comparison), on lists of any length; no tree path
builds one.  A pinned snapshot keeps serving its own list's columns
after the live root moves on, and rebinding a root between queries
never lets the old list's columns answer for the new one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.core import make_tuple
from repro.query import Q, evaluate
from repro.storage import Database
from repro.storage.columnar import columnar_list_for
from repro.workloads import (
    by_citizen_or_name,
    by_pitch,
    random_family_tree,
    random_labeled_tree,
    song_with_melody,
)

from ..reference import BACKENDS, list_columns, reference_eval, untabled_scope

SETTINGS = settings(max_examples=12, deadline=None)

MODES = [(engine, backend) for engine in ("memo", "backtrack") for backend in BACKENDS]

LABELS = ["d", "e", "h", "i", "j", "u", "v"]

TREE_PATTERNS = ["d(e ?*)", "d(?*)", "e(h i ?*)", "d(e(h i) j ?*)"]

#: Longer than any list these properties build: list columns off.
NO_COLUMNS = 10**9


def all_legs(query, db, engine, backend):
    """``query`` probe-optimized and fully scanned under one mode, then
    the reference evaluator's answer."""
    session = Session(db)
    with list_columns(backend), untabled_scope(engine):
        probed = session.query(query, optimize=True)
        scanned = session.query(query, optimize=False)
    return probed, scanned, reference_eval(query, db)


def assert_agree(query, db, engine, backend):
    probed, scanned, reference = all_legs(query, db, engine, backend)
    assert list(probed) == list(scanned)
    assert probed == scanned == reference
    return scanned


@pytest.mark.parametrize("engine,backend", MODES)
@SETTINGS
@given(seed=st.integers(0, 10_000), pattern=st.sampled_from(TREE_PATTERNS))
def test_labeled_sub_select_bit_identical(engine, backend, seed, pattern):
    tree = random_labeled_tree(60, LABELS, seed=seed)
    db = Database()
    db.bind_root("T", tree)
    assert_agree(Q.root("T").sub_select(pattern).build(), db, engine, backend)


@pytest.mark.parametrize("engine,backend", MODES)
@SETTINGS
@given(seed=st.integers(0, 10_000), planted=st.integers(0, 4))
def test_family_split_bit_identical(engine, backend, seed, planted):
    family = random_family_tree(40, seed=seed, planted_matches=planted)
    db = Database()
    db.bind_root("family", family)
    query = (
        Q.root("family")
        .split("Brazil(!?* USA !?*)", make_tuple, resolver=by_citizen_or_name)
        .build()
    )
    served = assert_agree(query, db, engine, backend)
    assert len(served) >= planted


@pytest.mark.parametrize("engine,backend", MODES)
@SETTINGS
@given(seed=st.integers(0, 10_000), occurrences=st.integers(0, 3))
def test_melody_list_bit_identical(engine, backend, seed, occurrences):
    song = song_with_melody(
        48, ["A", "C", "D", "F"], occurrences=occurrences, seed=seed
    )
    db = Database()
    db.bind_root("song", song)
    query = Q.root("song").lsub_select("[A??F]", resolver=by_pitch).build()
    served = assert_agree(query, db, engine, backend)
    with list_columns(backend, NO_COLUMNS):
        assert Session(db).query(query, optimize=False) == served
    assert len(served) >= occurrences


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(seed=st.integers(0, 10_000))
def test_snapshot_pin_serves_a_consistent_cut(backend, seed):
    """A pinned snapshot answers from its own list's columns even after
    the live root is rebound and requeried."""
    old = song_with_melody(48, ["A", "C", "D", "F"], occurrences=2, seed=seed)
    new = song_with_melody(48, ["A", "C", "D", "F"], occurrences=1, seed=seed + 1)
    db = Database()
    db.bind_root("song", old)
    query = Q.root("song").lsub_select("[A??F]", resolver=by_pitch).build()
    with list_columns(backend):
        snapshot = db.snapshot()
        before = evaluate(query, snapshot)
        db.rebind_root("song", new)
        live = evaluate(query, db)  # builds the new list's columns
        pinned = evaluate(query, snapshot)
        assert columnar_list_for(new) is not columnar_list_for(old)
    with list_columns(backend, NO_COLUMNS):
        assert pinned == evaluate(query, snapshot)
        assert live == evaluate(query, db)
    assert pinned == before


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(seed=st.integers(0, 10_000))
def test_rebind_between_queries_invalidates(backend, seed):
    """Partially-built columns of a replaced root never leak into the
    replacement's answers."""
    first = song_with_melody(48, ["A", "C", "D", "F"], occurrences=2, seed=seed)
    second = song_with_melody(48, ["A", "C", "D", "F"], occurrences=1, seed=seed + 7)
    db = Database()
    db.bind_root("song", first)
    query = Q.root("song").lsub_select("[A??F]", resolver=by_pitch).build()
    with list_columns(backend):
        # Build only part of the first list's column set...
        columns = columnar_list_for(first)
        columns.predicate_column(by_pitch("A"))
        db.rebind_root("song", second)
        on = evaluate(query, db)
        assert columnar_list_for(second) is not columns
    with list_columns(backend, NO_COLUMNS):
        off = evaluate(query, db)
    assert on == off
