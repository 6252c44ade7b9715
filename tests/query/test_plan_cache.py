"""The plan cache: fingerprints, LRU + epoch mechanics, prepared queries."""

import pytest

from repro.core import parse_tree
from repro.core.identity import Record
from repro.errors import QueryError
from repro.predicates import attr
from repro.query import Q, PlanCache, plan_fingerprint, prepare
from repro.query import expr as E
from repro.storage import Database
from repro.storage.stats import Instrumentation

from ..reference import reference_eval


@pytest.fixture()
def db():
    database = Database()
    database.bind_root("T", parse_tree("r(d(e(h i) j) s(d(e(h i) j) k) d(x))"))
    for i in range(12):
        database.insert(Record(name=f"p{i}", age=20 + i), "Person")
    database.create_index("Person", "age")
    return database


def anchor_query():
    return Q.extent("Person").sselect(attr("age") == Q.param("limit")).node


class TestFingerprint:
    def test_same_shape_same_fingerprint(self):
        a = plan_fingerprint(anchor_query(), optimize=True)
        b = plan_fingerprint(anchor_query(), optimize=True)
        assert a == b

    def test_optimize_flag_is_part_of_the_key(self):
        a = plan_fingerprint(anchor_query(), optimize=True)
        b = plan_fingerprint(anchor_query(), optimize=False)
        assert a != b

    def test_different_constants_differ(self):
        a = plan_fingerprint(
            Q.extent("Person").sselect(attr("age") == 25).node, optimize=True
        )
        b = plan_fingerprint(
            Q.extent("Person").sselect(attr("age") == 26).node, optimize=True
        )
        assert a != b

    def test_param_slot_not_binding_is_keyed(self):
        # Two structurally identical parameterized queries share one
        # fingerprint regardless of what will be bound later.
        a = plan_fingerprint(anchor_query(), optimize=True)
        b = plan_fingerprint(anchor_query(), optimize=True)
        assert a == b
        c = plan_fingerprint(
            Q.extent("Person").sselect(attr("age") == Q.param("cap")).node,
            optimize=True,
        )
        assert a != c

    def test_different_shapes_differ(self):
        a = plan_fingerprint(Q.root("T").sub_select("d(e j)").node, optimize=True)
        b = plan_fingerprint(Q.root("T").sub_select("d(x)").node, optimize=True)
        assert a != b


class TestCacheMechanics:
    def test_hit_and_miss_counters(self, db):
        cache = PlanCache(capacity=4)
        first = prepare(anchor_query(), db, cache=cache)
        second = prepare(anchor_query(), db, cache=cache)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_epoch_invalidation_on_mutation(self, db):
        cache = PlanCache(capacity=4)
        first = prepare(anchor_query(), db, cache=cache)
        db.insert(Record(name="new", age=25), "Person")
        second = prepare(anchor_query(), db, cache=cache)
        assert second is not first
        assert cache.invalidations == 1
        assert second.epoch == db.epoch

    def test_lru_eviction(self, db):
        cache = PlanCache(capacity=2)
        queries = [
            Q.extent("Person").sselect(attr("age") == bound).node
            for bound in (21, 22, 23)
        ]
        for query in queries:
            prepare(query, db, cache=cache)
        assert len(cache) == 2 and cache.evictions == 1
        # the oldest entry (age == 21) was evicted: preparing it misses
        prepare(queries[0], db, cache=cache)
        assert cache.hits == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_cache_none_bypasses(self, db):
        first = prepare(anchor_query(), db, cache=None)
        second = prepare(anchor_query(), db, cache=None)
        assert second is not first

    def test_aql_alias_skips_reparse(self, db):
        cache = PlanCache(capacity=4)
        text = 'root T | sub_select "d(e j)"'
        cold = Instrumentation()
        with cold.activated():
            first = prepare(text, db, cache=cache)
        sink = Instrumentation()
        with sink.activated():
            assert prepare(text, db, cache=cache) is first
        assert cache.hits == 1
        # the warm textual path does not even parse the pattern
        assert sink["pattern_compilations"] == 0
        assert sink["plan_cache_hits"] == 1
        # CLAIM-PREPARED: warm does strictly fewer planning steps than cold
        steps = [
            s["optimizer_rewrites"] + s["pattern_compilations"] for s in (cold, sink)
        ]
        assert steps == [1, 0]

    def test_counters_never_leak_into_db_stats(self, db):
        cache = PlanCache(capacity=4)
        before = db.stats.snapshot()
        prepare(anchor_query(), db, cache=cache)
        prepare(anchor_query(), db, cache=cache)
        after = db.stats.snapshot()
        assert not any(k.startswith("plan_cache") for k in after)
        assert before == after


class TestFineGrainedInvalidation:
    """Satellite 3 (PR 6): per-resource versioning and alias hygiene."""

    def test_unrelated_extent_mutation_keeps_plans_warm(self, db):
        cache = PlanCache(capacity=8)
        first = prepare(anchor_query(), db, cache=cache)
        db.insert(Record(name="dog"), "Animal")  # different extent
        second = prepare(anchor_query(), db, cache=cache)
        assert second is first
        assert cache.invalidations == 0

    def test_unrelated_root_mutation_keeps_plans_warm(self, db):
        cache = PlanCache(capacity=8)
        first = prepare(anchor_query(), db, cache=cache)
        db.rebind_root("T", parse_tree("r(a b)"))
        second = prepare(anchor_query(), db, cache=cache)
        assert second is first
        assert cache.invalidations == 0

    def test_touched_root_invalidates_its_plans_only(self, db):
        cache = PlanCache(capacity=8)
        tree_query = Q.root("T").sub_select("d(e j)").node
        tree_plan = prepare(tree_query, db, cache=cache)
        person_plan = prepare(anchor_query(), db, cache=cache)
        db.rebind_root("T", parse_tree("r(a b)"))
        assert prepare(tree_query, db, cache=cache) is not tree_plan
        assert prepare(anchor_query(), db, cache=cache) is person_plan
        assert cache.invalidations == 1

    def test_bare_bump_epoch_is_blanket(self, db):
        cache = PlanCache(capacity=8)
        tree_plan = prepare(Q.root("T").sub_select("d(e j)").node, db, cache=cache)
        person_plan = prepare(anchor_query(), db, cache=cache)
        db.bump_epoch()  # external blanket invalidation request
        assert prepare(Q.root("T").sub_select("d(e j)").node, db, cache=cache) is not tree_plan
        assert prepare(anchor_query(), db, cache=cache) is not person_plan
        assert cache.invalidations == 2

    def test_plan_records_its_dependencies(self, db):
        prepared = prepare(anchor_query(), db, cache=None)
        assert "extent:Person" in prepared.deps
        assert "db" in prepared.deps
        tree_prepared = prepare(Q.root("T").sub_select("d(e j)").node, db, cache=None)
        assert "root:T" in tree_prepared.deps

    def test_snapshot_keeps_hitting_its_pinned_plans(self, db):
        cache = PlanCache(capacity=8)
        snap = db.snapshot()
        pinned = prepare(anchor_query(), snap, cache=cache)
        db.insert(Record(name="new", age=31), "Person")
        # The snapshot's versions did not move: still warm for the pin.
        assert prepare(anchor_query(), snap, cache=cache) is pinned


class TestAliasConsistency:
    """Satellite 3 (PR 6): the alias table tracks its target entries."""

    TEXT = 'root T | sub_select "d(e j)"'

    def test_alias_dropped_with_invalidated_entry(self, db):
        cache = PlanCache(capacity=8)
        prepare(self.TEXT, db, cache=cache)
        assert cache.snapshot()["aliases"] == 1
        db.rebind_root("T", parse_tree("r(a b)"))
        prepare(self.TEXT, db, cache=cache)  # invalidates, re-stores
        stats = cache.snapshot()
        assert stats["alias_invalidations"] == 1
        assert stats["aliases"] == 1  # the fresh alias, not the stale one
        # and the refreshed alias serves hits again
        before_hits = cache.hits
        prepare(self.TEXT, db, cache=cache)
        assert cache.hits == before_hits + 1

    def test_alias_dropped_with_evicted_entry(self, db):
        cache = PlanCache(capacity=1)
        prepare(self.TEXT, db, cache=cache)
        assert cache.snapshot()["aliases"] == 1
        # A second distinct shape evicts the only entry — its alias must go too.
        prepare(anchor_query(), db, cache=cache)
        stats = cache.snapshot()
        assert stats["evictions"] == 1
        assert stats["aliases"] == 0

    def test_alias_table_respects_capacity(self, db):
        cache = PlanCache(capacity=2)
        texts = [
            'root T | sub_select "d(e j)"',
            'root T | sub_select "d(x)"',
            'root T | all_desc "s"',
        ]
        for text in texts:
            prepare(text, db, cache=cache)
        assert cache.snapshot()["aliases"] <= 2

    def test_unrelated_mutation_keeps_alias_path_warm(self, db):
        cache = PlanCache(capacity=8)
        prepare(self.TEXT, db, cache=cache)
        db.insert(Record(name="dog"), "Animal")
        sink = Instrumentation()
        with sink.activated():
            prepare(self.TEXT, db, cache=cache)
        assert sink["pattern_compilations"] == 0  # alias skipped the parse
        assert cache.invalidations == 0


class TestPreparedQuery:
    def test_run_matches_cold_evaluation(self, db):
        prepared = prepare(anchor_query(), db)
        warm = prepared.run({"limit": 25})
        from repro.query import evaluate

        cold = evaluate(anchor_query(), db, params={"limit": 25})
        assert set(warm) == set(cold) == {p for p in warm}

    def test_reference_parity(self, db):
        prepared = prepare(anchor_query(), db)
        assert prepared.run({"limit": 27}) == reference_eval(
            anchor_query(), db, {"limit": 27}
        )

    def test_records_param_slots(self, db):
        prepared = prepare(anchor_query(), db)
        assert prepared.param_slots == frozenset()  # E.Param nodes only
        assert "limit" in prepared.anchor_params

    def test_replan_guard_on_unhashable_binding(self, db):
        cache = PlanCache(capacity=4)
        prepared = prepare(anchor_query(), db, cache=cache)
        assert prepared.anchor_params == {"limit"}
        # an unhashable binding cannot be an index key: the guard
        # re-plans for this run instead of probing with it
        result = prepared.run({"limit": [25]})
        assert cache.replans == 1
        assert set(result) == set()
        # a well-behaved binding afterwards still uses the cached plan
        assert {p.name for p in prepared.run({"limit": 25})} == {"p5"}
        assert cache.replans == 1

    def test_prepare_rejects_unknown_sources(self, db):
        with pytest.raises(QueryError):
            prepare(42, db)

    def test_expr_param_slots_recorded(self, db):
        prepared = prepare(E.Param("answer"), db, optimize=False)
        assert prepared.param_slots == frozenset({"answer"})
