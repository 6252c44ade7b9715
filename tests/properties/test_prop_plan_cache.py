"""Plan-cache transparency (PR 5 tentpole property).

Hypothesis drives the three workload families — family trees, songs,
RNA structures — through interleaved queries and ``algebra.update``
mutations, asserting that a **cache-hit execution is bit-identical to a
cold prepare+run**: same values, same member order, same runtime counter
totals, with the matcher tabled and untabled.  Mutations
route through :func:`repro.algebra.update.apply_update`, whose root
rebind bumps ``Database.epoch`` — the next prepare must observe exactly
one lazy invalidation and re-plan exactly once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import update
from repro.core.aqua_list import AquaList
from repro.core.aqua_set import AquaSet
from repro.query import PlanCache, prepare
from repro.storage import Database
from repro.storage.stats import Instrumentation
from repro.workloads import (
    element,
    note,
    person,
    random_family_tree,
    random_rna_structure,
    song_with_melody,
)

from ..reference import untabled_scope

SETTINGS = settings(max_examples=20, deadline=None)

ENGINES = ("memo", "backtrack")

DOMAINS = {
    "family": {
        "root": "family",
        "build": lambda seed: random_family_tree(60, seed=seed, planted_matches=2),
        "query": 'root family | sub_select "Brazil(!?* USA !?*)" by citizen',
        "mutate": lambda db: update.apply_update(
            db, "family", update.insert_child, (), person("Zed", "Peru")
        ),
    },
    "music": {
        "root": "song",
        "build": lambda seed: song_with_melody(
            40, ["A", "C", "D", "F"], occurrences=2, seed=seed
        ),
        "query": 'root song | lsub_select "[A??F]" by pitch',
        "mutate": lambda db: update.apply_update(
            db, "song", update.insert_at, 0, note("G")
        ),
    },
    "rna": {
        "root": "rna",
        "build": lambda seed: random_rna_structure(40, seed=seed),
        "query": 'root rna | sub_select "S(?* H ?*)" by kind',
        "mutate": lambda db: update.apply_update(
            db, "rna", update.insert_child, (), element("B", 1)
        ),
    },
}


def build_db(domain: str, seed: int) -> Database:
    db = Database()
    db.bind_root(DOMAINS[domain]["root"], DOMAINS[domain]["build"](seed))
    return db


def ordered(value):
    """Results with member order made explicit (sets keep their
    iteration order — cold and warm must agree on it too)."""
    if isinstance(value, AquaSet):
        return [repr(v) for v in value]
    if isinstance(value, AquaList):
        return [repr(v) for v in value.values()]
    return repr(value)


def run_measured(prepared, engine):
    """Execute and return ``(result, runtime-counter delta)``."""
    db = prepared.db
    before = dict(db.stats.snapshot())
    with untabled_scope(db, engine):
        result = prepared.run()
    after = db.stats.snapshot()
    delta = {
        key: after[key] - before.get(key, 0)
        for key in after
        if after[key] != before.get(key, 0)
    }
    return result, delta


@pytest.mark.parametrize("engine", ENGINES)
@SETTINGS
@given(
    domain=st.sampled_from(sorted(DOMAINS)),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_cache_hit_is_bit_identical_to_cold_run(engine, domain, seed):
    query = DOMAINS[domain]["query"]

    # Cold: a fresh database, no cache — the reference execution.
    db_cold = build_db(domain, seed)
    cold_prepared = prepare(query, db_cold, cache=None)
    cold, cold_counters = run_measured(cold_prepared, engine)

    # Warm: an identical database; first prepare populates the cache,
    # the second is a pure hit with zero planning work.
    db_warm = build_db(domain, seed)
    cache = PlanCache()
    prepare(query, db_warm, cache=cache)
    sink = Instrumentation()
    with sink.activated():
        warm_prepared = prepare(query, db_warm, cache=cache)
    assert cache.hits == 1
    assert sink["plan_cache_hits"] == 1
    assert sink["optimizer_rewrites"] == 0
    assert sink["pattern_compilations"] == 0

    # Values and member order compare via repr: payload records carry
    # identity-based equality, and cold/warm live in separate (but
    # identically seeded) databases.
    warm, warm_counters = run_measured(warm_prepared, engine)
    assert ordered(warm) == ordered(cold)
    assert warm_counters == cold_counters


@pytest.mark.parametrize("engine", ENGINES)
@SETTINGS
@given(
    domain=st.sampled_from(sorted(DOMAINS)),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_update_bumps_epoch_and_forces_exactly_one_replan(engine, domain, seed):
    query = DOMAINS[domain]["query"]
    db = build_db(domain, seed)
    cache = PlanCache()
    prepared = prepare(query, db, cache=cache)
    epoch = db.epoch

    DOMAINS[domain]["mutate"](db)
    assert db.epoch > epoch

    # The stale entry invalidates lazily, exactly once; afterwards the
    # fresh plan is served from the cache again without re-planning.
    replanned = prepare(query, db, cache=cache)
    assert replanned is not prepared
    assert cache.invalidations == 1
    again = prepare(query, db, cache=cache)
    assert again is replanned
    assert cache.invalidations == 1

    # The re-planned query agrees with a cold plan on the mutated data.
    db_ref = build_db(domain, seed)
    DOMAINS[domain]["mutate"](db_ref)
    reference = prepare(query, db_ref, cache=None)
    warm, _ = run_measured(replanned, engine)
    cold, _ = run_measured(reference, engine)
    assert ordered(warm) == ordered(cold)
