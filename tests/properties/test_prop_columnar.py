"""Columnar-kernel bit-identity properties (PR 8 satellite 3).

The kernel's contract: with the columnar kernel forced on (threshold
0), every query returns a match stream bit-identical to the kernel
pinned off — across the three workload families (labeled trees /
Figure-4 family splits / melody lists), the matcher tabled (``memo``) or
run whole-query under the null-table reference registry (``backtrack``),
and every available bitset backend.  Snapshot pins keep
serving the pinned tree's columnar cut after the live root moves on,
and rebinding a root between queries invalidates its extent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.core import make_tuple
from repro.query import Q, evaluate
from repro.storage import Database
from repro.storage.columnar import numpy_available
from repro.workloads import (
    by_citizen_or_name,
    by_pitch,
    random_family_tree,
    random_labeled_tree,
    song_with_melody,
)

from ..reference import untabled_scope

SETTINGS = settings(max_examples=12, deadline=None)

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

MODES = [(engine, backend) for engine in ("memo", "backtrack") for backend in BACKENDS]

LABELS = ["d", "e", "h", "i", "j", "u", "v"]

TREE_PATTERNS = ["d(e ?*)", "d(?*)", "e(h i ?*)", "d(e(h i) j ?*)"]


def both_legs(query, db, engine, backend):
    """Evaluate ``query`` kernel-off and kernel-on under one mode."""
    with untabled_scope(db, engine):
        with config.columnar_scope("off"):
            off = evaluate(query, db)
        with (
            config.columnar_scope("on"),
            config.columnar_backend_scope(backend),
            config.columnar_threshold_scope(0),
        ):
            on = evaluate(query, db)
    return off, on


@pytest.mark.parametrize("engine,backend", MODES)
@SETTINGS
@given(seed=st.integers(0, 10_000), pattern=st.sampled_from(TREE_PATTERNS))
def test_labeled_sub_select_bit_identical(engine, backend, seed, pattern):
    tree = random_labeled_tree(60, LABELS, seed=seed)
    db = Database()
    db.bind_root("T", tree)
    query = Q.root("T").sub_select(pattern).build()
    off, on = both_legs(query, db, engine, backend)
    assert off == on


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
    off, on = both_legs(query, db, engine, backend)
    assert off == on
    assert len(off) >= planted


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
    off, on = both_legs(query, db, engine, backend)
    assert off == on
    assert len(on) >= occurrences


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(seed=st.integers(0, 10_000))
def test_snapshot_pin_serves_a_consistent_cut(backend, seed):
    """A pinned snapshot answers from its own tree's columnar extent
    even after the live root is rebound and requeried."""
    old = random_labeled_tree(50, LABELS, seed=seed)
    new = random_labeled_tree(50, LABELS, seed=seed + 1)
    db = Database()
    db.bind_root("T", old)
    query = Q.root("T").sub_select("d(e ?*)").build()
    with (
        config.columnar_scope("on"),
        config.columnar_backend_scope(backend),
        config.columnar_threshold_scope(0),
    ):
        snapshot = db.snapshot()
        before = evaluate(query, snapshot)
        db.rebind_root("T", new)
        live = evaluate(query, db)  # builds the new tree's extent
        pinned = evaluate(query, snapshot)
    with config.columnar_scope("off"):
        assert pinned == evaluate(query, snapshot)
        assert live == evaluate(query, db)
    assert pinned == before


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(seed=st.integers(0, 10_000))
def test_rebind_between_queries_invalidates(backend, seed):
    """Partially-built columns for a replaced root never leak into the
    replacement's answers (mid-build invalidation)."""
    first = random_labeled_tree(50, LABELS, seed=seed)
    second = random_labeled_tree(50, LABELS, seed=seed + 7)
    db = Database()
    db.bind_root("T", first)
    query = Q.root("T").sub_select("d(e ?*)").build()
    with (
        config.columnar_scope("on"),
        config.columnar_backend_scope(backend),
        config.columnar_threshold_scope(0),
    ):
        # Build only part of the first extent's column set...
        from repro.predicates import sym

        extent = db.columnar_extent(first)
        extent.predicate_column(sym("d"))
        db.rebind_root("T", second)
        on = evaluate(query, db)
    with config.columnar_scope("off"):
        off = evaluate(query, db)
    assert on == off
