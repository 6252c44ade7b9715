"""The plan cache: fingerprints, LRU + epoch mechanics, prepared queries."""

import pytest

from repro import context
from repro.core import parse_tree
from repro.core.identity import Record
from repro.errors import PredicateError, QueryError
from repro.predicates import attr
from repro.query import Q, PlanCache, plan_fingerprint, prepare
from repro.query import expr as E
from repro.query.aql import parse_aql
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
        with context.entered(receiver=cold):
            first = prepare(text, db, cache=cache)
        sink = Instrumentation()
        with context.entered(receiver=sink):
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
        with context.entered(receiver=sink):
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


class TestWarmRunRendersNothing:
    def test_a_warm_tree_sub_select_renders_no_pattern(self, db, monkeypatch):
        """Instantiating a cached plan renders no operator head (the plan
        path is rendered only when an error names it) and the match
        registry keys on the compiled pattern's text, made once."""
        from repro.api import Session
        from repro.patterns.tree_ast import TreePattern

        session = Session(db)
        query = 'root T | sub_select "d(e(h ?*) ?*)"'
        cold = session.query(query)
        rendered = []
        original = TreePattern.describe
        monkeypatch.setattr(
            TreePattern, "describe", lambda self: rendered.append(self) or original(self)
        )
        hits = session.plan_cache.hits
        warm = session.query(query)
        assert session.plan_cache.hits == hits + 1
        assert list(warm) == list(cold) and len(cold) == 1
        assert rendered == []


class TestLiteralsAreParameters:
    """An AQL text's constants are hidden slots of its shape's plan."""

    PEOPLE = 'extent Person | sselect {age > %d and name != "p3"} | project name'

    def test_texts_of_one_shape_share_one_entry(self, db):
        cache = PlanCache(capacity=8)
        first = prepare(self.PEOPLE % 25, db, cache=cache)
        second = prepare(self.PEOPLE % 29, db, cache=cache)
        assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)
        assert second.factory is first.factory
        assert sorted(first.run()) == ["p10", "p11", "p6", "p7", "p8", "p9"]
        assert sorted(second.run()) == ["p10", "p11"]
        # each text keeps its own bound view: a warm text, the same object
        assert prepare(self.PEOPLE % 29, db, cache=cache) is second
        assert first.literals == {"0": 25, "1": "p3"}

    def test_a_prepared_text_shows_its_own_constants(self, db):
        cache = PlanCache(capacity=8)
        prepare(self.PEOPLE % 25, db, cache=cache)
        view = prepare(self.PEOPLE % 29, db, cache=cache)
        assert "$" not in view.describe() and "$" not in repr(view)
        assert "x.age > 29" in view.describe()
        oracle = prepare(parse_aql(self.PEOPLE % 29), db, cache=None)
        assert view.describe() == oracle.describe()
        assert repr(view).endswith(f"params: none; epoch {view.epoch}>")

    def test_explain_shows_the_constants(self, db):
        from repro.api import Session

        session = Session(db, plan_cache=PlanCache())
        session.prepare('root T | sub_select "d(e j)"')
        out = session.explain('root T | sub_select "s(d k)"')
        assert "sub_select[s(d k)]" in out and "$" not in out
        assert "plan_cache_hits=1" in out

    def test_user_params_bind_beside_the_literals(self, db):
        text = "extent Person | sselect {age > 25 and age < $cap} | project name"
        prepared = prepare(text, db, cache=PlanCache())
        assert sorted(prepared.run({"cap": 28})) == ["p6", "p7"]
        # a user binding cannot stand in for the text's own constant
        assert sorted(prepared.run({"cap": 28, "0": 0})) == ["p6", "p7"]

    def test_no_user_slot_is_named_like_a_lifted_one(self, db):
        with pytest.raises(QueryError):
            Q.param("0")
        with pytest.raises(PredicateError):
            parse_aql("extent Person | sselect {age > $0}")

    def test_lifted_slots_are_not_watched_by_the_replan_guard(self, db):
        prepared = prepare("extent Person | sselect {age = 25}", db, cache=PlanCache())
        assert prepared.factory.anchor_params == frozenset()
        assert {p.name for p in prepared.run()} == {"p5"}

    def test_a_text_that_prices_the_anchor_the_other_way_plans_alone(self):
        db = Database()
        db.bind_root("T", parse_tree("r(a a a a a a a a b)"))
        cache = PlanCache(capacity=8)
        # ``a`` is on 8 of 10 nodes: its probe prices out, the tree is scanned
        scan = prepare('root T | sub_select "a"', db, cache=cache)
        probe = prepare('root T | sub_select "b"', db, cache=cache)
        assert cache.replans == 1 and len(cache) == 1
        assert probe.factory is not scan.factory
        assert prepare('root T | sub_select "b"', db, cache=cache) is probe
        for text, view in (("a", scan), ("b", probe)):
            oracle = prepare(parse_aql(f'root T | sub_select "{text}"'), db, cache=None)
            got, got_metrics = view.run_with_metrics()
            want, want_metrics = oracle.run_with_metrics()
            assert got == want
            assert got_metrics.totals() == want_metrics.totals()
        assert probe.run_with_metrics()[1].total("index_probes") == 1

    def test_two_texts_of_one_shape_in_one_run_keep_their_tables(self):
        """A query nested in another's ``sapply`` joins its match registry;
        two texts of one shape must still get a context each."""
        from repro.query import evaluate
        from repro.query.aql import run_aql

        db = Database()
        db.bind_root("T", parse_tree("r(a(a(b)) c(c(b) a) a(c(b)))"))
        db.insert_many([Record(label=label) for label in "ac"], "Labels")
        text = 'root T | sub_select "[[{}(@)]]*@ .@ b"'

        def count(record):
            return (record.label, len(run_aql(text.format(record.label), db)))

        nested = evaluate(Q.extent("Labels").sapply(count).build(), db)
        assert sorted(nested) == [("a", 3), ("c", 2)]

    def test_list_atoms_test_through_compiled_predicates(self, db, monkeypatch):
        from repro.predicates.alphabet import Comparison
        from repro.workloads import song_with_melody

        db.bind_root("song", song_with_melody(60, ["A", "C", "D", "F"], 2, seed=3))
        text = 'root song | lsub_select "[A [[C|D]]+ F]" by pitch'
        want = prepare(text, db, cache=PlanCache()).run()

        def evaluated(self, obj):
            raise AssertionError("a list atom resolved its $param per element")

        monkeypatch.setattr(Comparison, "__call__", evaluated)
        assert prepare(text, db, cache=PlanCache()).run() == want

    def test_an_unoptimized_melody_scan_stays_columnar(self, db):
        from repro.storage.columnar import COLUMNAR_MIN_LENGTH
        from repro.workloads import song_with_melody

        db.bind_root(
            "song",
            song_with_melody(COLUMNAR_MIN_LENGTH, ["A", "C", "D", "F"], 3, seed=1),
        )
        cache = PlanCache(capacity=8)
        text = 'root song | lsub_select "[%s [[C|D]]+ %s]" by pitch'
        for ends in (("A", "F"), ("B", "G"), ("A", "F")):
            view = prepare(text % ends, db, optimize=False, cache=cache)
            assert type(view.factory.instantiate().root).__name__ == "ColumnarListScan"
            got, metrics = view.run_with_metrics()
            oracle = prepare(parse_aql(text % ends), db, optimize=False, cache=None)
            assert got == oracle.run()
        assert len(got) == 3 and metrics.total("positions_scanned") == 3
        assert cache.misses == 1
