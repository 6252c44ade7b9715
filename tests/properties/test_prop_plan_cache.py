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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import context
from repro.algebra import update
from repro.core.aqua_list import AquaList
from repro.core.aqua_set import AquaSet
from repro.core.identity import Record
from repro.core.notation import parse_tree
from repro.query import PlanCache, prepare
from repro.query.aql import parse_aql, parse_aql_shape
from repro.query.plan_cache import plan_fingerprint
from repro.storage import Database
from repro.storage.columnar import COLUMNAR_MIN_LENGTH
from repro.workloads.family import CITIZENSHIPS
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
    with untabled_scope(engine):
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
    with context.entered(receiver=sink):
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


# -- AQL literals are plan parameters ----------------------------------------
#
# A text's constants are lifted into hidden slots, so every text of one
# shape runs the plan its shape was first planned under.  The oracle is
# the text evaluated un-lifted: ``parse_aql`` keeps the constants in
# place, and an ``Expr`` source never reaches the lift.  Each side runs
# on its own (identically built) database, because list columns are
# cached on the list and ``column_builds`` is one of the compared counters.

LIFT_SETTINGS = settings(max_examples=60, deadline=None)

LABELS = "abcdef"
PITCHES = "ABCDEFG"
#: Per-operator counters a lifted run must reproduce exactly.
LIFT_COUNTERS = ("column_builds", "positions_scanned", "index_probes", "predicate_evals")


def _labelled_tree(rng: random.Random, size: int) -> str:
    """Notation for a random ``size``-node tree over :data:`LABELS`."""
    children: list[list[int]] = [[] for _ in range(size)]
    for node in range(1, size):
        children[rng.randrange(node)].append(node)

    def render(node: int) -> str:
        label = rng.choice(LABELS)
        if not children[node]:
            return label
        return f"{label}({' '.join(render(child) for child in children[node])})"

    return render(0)


def build_lift_db(seed: int) -> Database:
    rng = random.Random(seed)
    db = Database()
    db.insert_many(
        [
            Record(
                name=f"p{i}",
                age=rng.randrange(18, 60),
                city=f"C{rng.randrange(4)}",
                salary=rng.randrange(0, 700, 100),
            )
            for i in range(48)
        ],
        "Person",
    )
    db.create_index("Person", "city")
    db.bind_root("T", parse_tree(_labelled_tree(rng, 120)))
    db.bind_root("family", random_family_tree(40, seed=seed, planted_matches=2))
    db.bind_root(
        "song",
        song_with_melody(
            COLUMNAR_MIN_LENGTH + 88, ["A", "C", "D", "F"], occurrences=3, seed=seed
        ),
    )
    return db


def _aql_constant(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)


person_constants = st.one_of(
    st.integers(18, 60),
    st.integers(-5, -1),
    st.floats(17.5, 60.5).map(lambda value: round(value, 1)),
    st.sampled_from(["C1", "C2", "x"]),
    st.booleans(),
)


@st.composite
def text_pairs(draw):
    """Two AQL texts of one family, differing only in their constants."""
    family = draw(st.sampled_from(["person", "tree", "family", "song", "melody"]))
    op = draw(st.sampled_from(["sub_select", "all_anc", "all_desc"]))
    shape = draw(st.sampled_from(["{a}({b} ?*)", "{a}(?* {b} ?*)", "{a}"]))

    def text():
        if family == "person":
            age, city, salary = (draw(person_constants) for _ in range(3))
            return (
                f"extent Person | sselect {{age > {_aql_constant(age)}"
                f" and city = {_aql_constant(city)}"
                f" and salary > {_aql_constant(salary)}}} | project name"
            )
        if family == "tree":
            a, b = draw(st.sampled_from(LABELS)), draw(st.sampled_from(LABELS))
            return f'root T | {op} "{shape.format(a=a, b=b)}"'
        if family == "family":
            a, b = (draw(st.sampled_from(CITIZENSHIPS)) for _ in range(2))
            return f'root family | {op} "{a}(!?* {b} !?*)" by citizen'
        if family == "song":
            a, b = (draw(st.sampled_from(PITCHES)) for _ in range(2))
            return f'root song | lsub_select "[{a}??{b}]" by pitch'
        a, b, c, d = (draw(st.sampled_from(PITCHES)) for _ in range(4))
        return f'root song | lsub_select "[{a} [[{c}|{d}]]+ {b}]" by pitch'

    return text(), text()


def per_operator(metrics) -> dict:
    return {
        path: {name: op.counters[name] for name in LIFT_COUNTERS}
        for path, op in metrics.operators.items()
    }


@LIFT_SETTINGS
@given(pair=text_pairs(), optimize=st.booleans(), seed=st.integers(0, 10_000))
def test_a_lifted_text_runs_as_its_literal_form(pair, optimize, seed):
    first, second = pair
    db_lift, db_ref = build_lift_db(seed), build_lift_db(seed)

    # The shape is planned under the first text, then serves the second.
    cache = PlanCache()
    prepare(first, db_lift, optimize=optimize, cache=cache).run()
    lifted = prepare(second, db_lift, optimize=optimize, cache=cache)
    if plan_fingerprint(parse_aql_shape(first)[0], optimize=optimize) == plan_fingerprint(
        parse_aql_shape(second)[0], optimize=optimize
    ):
        assert (cache.misses, cache.hits) == (1, 1)
    got, got_metrics = lifted.run_with_metrics()

    # The oracle: each text un-lifted, in the same order, on its own db.
    prepare(parse_aql(first), db_ref, optimize=optimize, cache=None).run()
    oracle = prepare(parse_aql(second), db_ref, optimize=optimize, cache=None)
    want, want_metrics = oracle.run_with_metrics()

    assert ordered(got) == ordered(want)
    assert per_operator(got_metrics) == per_operator(want_metrics)
    assert lifted.describe() == oracle.describe()
