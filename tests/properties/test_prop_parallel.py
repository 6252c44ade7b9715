"""Ordered-merge bit-identity properties for parallel execution (PR 9).

The exchange contract under randomized inputs: a parallel run is
indistinguishable from the sequential one — member order, set equality,
dedup of apply images — across the three workload families (family
forests / song lists / RNA structures), worker counts {1, 2, 7}, the
matcher tabled (``memo``) or handed the null-table reference collaborator
on the query thread (``backtrack`` — shard workers arm their own default
scopes, so those rows pit an untabled sequential leg against tabled
shards), and including runs that trip a budget mid-stream (both legs
must land in the same outcome class).

Forests carry ≥260 members so the static lowering gate (break-even
≈256 rows) chooses the exchange plan; ``parallel_scope("off")`` is the
sequential leg, so one lowered shape serves both.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.algebra.tree_ops import split_pieces
from repro.errors import ResourceExhaustedError
from repro.guardrails import Budget, guarded
from repro.physical import ExecutionContext, lower
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

from ..reference import untabled_scope

SETTINGS = settings(max_examples=8, deadline=None)

WORKERS = (1, 2, 7)
ENGINES = ("memo", "backtrack")
MODES = [(w, e) for w in WORKERS for e in ENGINES]

#: Members per extent — just past the lowering gate's ~256-row break-even.
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


def run(query, db, *, max_steps=None):
    plan = lower(query, db)
    with guarded(Budget(max_steps=max_steps) if max_steps else None) as guard:
        return plan.execute(ExecutionContext(db=db, guard=guard))


def both_legs(query, db, workers, engine, *, max_steps=None):
    """One sequential and one parallel evaluation; outcome per leg is
    ``("ok", rows)`` or ``("tripped", limit)`` so budget runs compare
    by class."""
    outcomes = []
    with untabled_scope(engine=engine):
        legs = (
            (config.parallel_scope("off"),),
            (
                config.parallel_scope("on"),
                config.parallel_workers_scope(workers),
            ),
        )
        for scopes in legs:
            try:
                for scope in scopes:
                    scope.__enter__()
                try:
                    result = run(query, db, max_steps=max_steps)
                    outcomes.append(("ok", list(result), result))
                except ResourceExhaustedError as exc:
                    outcomes.append(("tripped", exc.limit_name, None))
            finally:
                for scope in reversed(scopes):
                    scope.__exit__(None, None, None)
    return outcomes


@pytest.mark.parametrize("workers,engine", MODES)
@SETTINGS
@given(seed=st.integers(0, 3))
def test_family_apply_bit_identical(workers, engine, seed):
    db = family_db(seed)
    query = Q.extent("Families").sapply(family_pieces).build()
    sequential, parallel = both_legs(query, db, workers, engine)
    assert sequential[0] == "ok" and parallel[0] == "ok"
    assert sequential[1] == parallel[1]
    assert sequential[2] == parallel[2]
    assert type(sequential[2].equality) is type(parallel[2].equality)


@pytest.mark.parametrize("workers", WORKERS)
@SETTINGS
@given(seed=st.integers(0, 3))
def test_song_apply_dedups_identically(workers, seed):
    # Three-note songs over seven pitches collide heavily: many members
    # map to the same pitch string, across shard boundaries — the
    # global first-seen dedup must match the sequential one exactly.
    db = song_db(seed)
    query = Q.extent("Songs").sapply(pitches_of).build()
    sequential, parallel = both_legs(query, db, workers, "memo")
    assert sequential[1] == parallel[1]
    assert len(parallel[1]) < FOREST  # collisions actually occurred


@pytest.mark.parametrize("workers,engine", MODES)
@SETTINGS
@given(seed=st.integers(0, 3))
def test_rna_apply_bit_identical(workers, engine, seed):
    db = rna_db(seed)
    query = Q.extent("Structures").sapply(hairpin_count).build()
    sequential, parallel = both_legs(query, db, workers, engine)
    assert sequential[1] == parallel[1]


@pytest.mark.parametrize("workers", (2, 7))
@SETTINGS
@given(
    seed=st.integers(0, 3),
    max_steps=st.sampled_from([150, 2500, 10**9]),
)
def test_budget_trips_land_in_the_same_outcome_class(workers, seed, max_steps):
    """A budget that trips the sequential run trips the parallel one
    too (possibly in a worker, possibly at the checked write-back), and
    an ample budget passes both with identical rows."""
    db = family_db(seed)
    query = Q.extent("Families").sapply(family_pieces).build()
    sequential, parallel = both_legs(
        query, db, workers, "memo", max_steps=max_steps
    )
    assert sequential[0] == parallel[0]
    if sequential[0] == "ok":
        assert sequential[1] == parallel[1]
    else:
        assert sequential[1] == parallel[1] == "max_steps"
