"""Set ``select`` / ``apply`` bit-identity under every ``parallel=`` value.

Set operators run one sequential pipeline; ``parallel=`` (``on`` |
``off``) is kept for call compatibility and both values — and leaving it
unset — must run the same plan.  Under randomized inputs, across the
three workload families (family forests / song lists / RNA structures),
each leg returns exactly what the direct algebra (``tests/reference.py``)
returns: member order, set equality, dedup of apply images.  Each leg
runs twice: on the calling thread, with the matcher tabled (``memo``) or
handed the null-table reference collaborator (``backtrack``), and through
a :class:`~repro.api.SessionPool` of 1, 2 or 7 workers — the engine's
only source of concurrency — whose threads arm their own default scopes.
Runs that trip a budget mid-stream must land in the same outcome class
on every leg.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.tree_ops import split_pieces
from repro.api import Session, SessionPool
from repro.errors import ResourceExhaustedError
from repro.guardrails import Budget
from repro.query import Q
from repro.storage import Database
from repro.workloads import (
    by_citizen_or_name,
    count_elements,
    pitches_of,
    random_family_tree,
    random_rna_structure,
    random_song,
)

from ..reference import reference_eval, untabled_scope

SETTINGS = settings(max_examples=8, deadline=None)

WORKERS = (1, 2, 7)
ENGINES = ("memo", "backtrack")
MODES = [(w, e) for w in WORKERS for e in ENGINES]

#: The ``parallel=`` values a caller may pass; ``None`` leaves it unset.
PARALLEL = ("on", "off", None)

#: Members per extent: enough for apply images to collide many times.
FOREST = 260


@lru_cache(maxsize=8)
def family_db(seed: int) -> Database:
    db = Database()
    db.insert_many(
        [
            random_family_tree(10, seed=seed * FOREST + i, planted_matches=i % 2)
            for i in range(FOREST)
        ],
        "Families",
    )
    return db


@lru_cache(maxsize=8)
def song_db(seed: int) -> Database:
    db = Database()
    db.insert_many(
        [random_song(3, seed=seed * FOREST + i) for i in range(FOREST)],
        "Songs",
    )
    return db


@lru_cache(maxsize=8)
def rna_db(seed: int) -> Database:
    db = Database()
    db.insert_many(
        [random_rna_structure(12, seed=seed * FOREST + i) for i in range(FOREST)],
        "Structures",
    )
    return db


def family_pieces(tree):
    return len(split_pieces("Brazil(!?* USA !?*)", tree, resolver=by_citizen_or_name))


def hairpin_count(structure):
    return count_elements(structure, "H")


def outcome(run):
    """``("ok", rows, result)`` or ``("tripped", limit, None)``."""
    try:
        result = run()
    except ResourceExhaustedError as exc:
        return ("tripped", exc.limit_name, None)
    return ("ok", list(result), result)


def legs(query, db, workers, engine, *, max_steps=None):
    """Every ``parallel=`` value, on the calling thread and through a
    pool of ``workers`` threads: one outcome per leg."""
    budget = Budget(max_steps=max_steps) if max_steps else None
    session = Session(db)
    outcomes = []
    with untabled_scope(engine=engine):
        for mode in PARALLEL:
            outcomes.append(
                outcome(lambda: session.query(query, parallel=mode, budget=budget))
            )
    with SessionPool(db, workers=workers) as pool:
        futures = [
            pool.submit(query, parallel=mode, budget=budget) for mode in PARALLEL
        ]
        outcomes.extend(outcome(future.result) for future in futures)
    return outcomes


def assert_matches_reference(query, db, outcomes):
    expected = reference_eval(query, db)
    for kind, rows, result in outcomes:
        assert kind == "ok"
        assert rows == list(expected)
        assert result == expected
        assert type(result.equality) is type(expected.equality)


@pytest.mark.parametrize("workers,engine", MODES)
@SETTINGS
@given(seed=st.integers(0, 3))
def test_family_apply_bit_identical(workers, engine, seed):
    db = family_db(seed)
    query = Q.extent("Families").sapply(family_pieces).build()
    assert_matches_reference(query, db, legs(query, db, workers, engine))


@pytest.mark.parametrize("workers", WORKERS)
@SETTINGS
@given(seed=st.integers(0, 3))
def test_song_apply_dedups_identically(workers, seed):
    # Three-note songs over seven pitches collide heavily: many members
    # map to the same pitch string, and the first-seen dedup must keep
    # the algebra's order exactly.
    db = song_db(seed)
    query = Q.extent("Songs").sapply(pitches_of).build()
    outcomes = legs(query, db, workers, "memo")
    assert_matches_reference(query, db, outcomes)
    assert len(outcomes[0][1]) < FOREST  # collisions actually occurred


@pytest.mark.parametrize("workers,engine", MODES)
@SETTINGS
@given(seed=st.integers(0, 3))
def test_rna_apply_bit_identical(workers, engine, seed):
    db = rna_db(seed)
    query = Q.extent("Structures").sapply(hairpin_count).build()
    assert_matches_reference(query, db, legs(query, db, workers, engine))


@pytest.mark.parametrize("workers", (2, 7))
@SETTINGS
@given(
    seed=st.integers(0, 3),
    max_steps=st.sampled_from([150, 2500, 10**9]),
)
def test_budget_trips_land_in_the_same_outcome_class(workers, seed, max_steps):
    """A budget that trips one leg trips every leg, on the calling
    thread or a pool worker, and an ample budget passes all of them with
    the algebra's rows."""
    db = family_db(seed)
    query = Q.extent("Families").sapply(family_pieces).build()
    outcomes = legs(query, db, workers, "memo", max_steps=max_steps)
    assert len({kind for kind, _, _ in outcomes}) == 1
    if outcomes[0][0] == "ok":
        assert_matches_reference(query, db, outcomes)
    else:
        assert {limit for _, limit, _ in outcomes} == {"max_steps"}
