"""Snapshot isolation and the per-resource version counters (PR 6)."""

import operator
import random
import sys
import threading

import pytest

from repro.core.aqua_list import AquaList
from repro.core.aqua_set import AquaSet
from repro.errors import StorageError
from repro.predicates import attr
from repro.storage import (
    GLOBAL_RESOURCE,
    Database,
    DatabaseSnapshot,
    extent_resource,
    root_resource,
)
from repro.storage.stats import Instrumentation


def seeded_db() -> Database:
    db = Database()
    for i in range(10):
        db.insert({"name": f"p{i}", "age": i * 10}, extent="Person")
    db.bind_root("L", AquaList.from_values([1, 2, 3]))
    return db


class TestPinSemantics:
    def test_snapshot_does_not_see_later_inserts(self):
        db = seeded_db()
        snap = db.snapshot()
        db.insert({"name": "late", "age": 70}, extent="Person")
        assert snap.extent_size("Person") == 10
        assert db.extent_size("Person") == 11
        assert len(snap.extent("Person")) == 10

    def test_snapshot_does_not_see_later_rebinds(self):
        db = seeded_db()
        snap = db.snapshot()
        db.rebind_root("L", AquaList.from_values([9]))
        assert snap.root("L").values() == [1, 2, 3]
        assert db.root("L").values() == [9]

    def test_snapshot_does_not_see_later_binds(self):
        db = seeded_db()
        snap = db.snapshot()
        db.bind_root("M", AquaList.from_values([4]))
        assert "M" not in snap.roots()
        with pytest.raises(StorageError):
            snap.root("M")

    def test_snapshot_does_not_see_new_extents(self):
        db = seeded_db()
        snap = db.snapshot()
        db.insert({"x": 1}, extent="Other")
        assert "Other" not in snap.extents()
        assert snap.extent_size("Other") == 0

    def test_iter_extent_respects_watermark(self):
        db = seeded_db()
        snap = db.snapshot()
        db.insert({"name": "late", "age": 70}, extent="Person")
        assert len(list(snap.iter_extent("Person"))) == 10

    def test_snapshot_of_snapshot_is_stable(self):
        db = seeded_db()
        snap = db.snapshot()
        again = snap.snapshot()
        db.insert({"name": "late"}, extent="Person")
        assert again.extent_size("Person") == 10

    def test_snapshot_shares_cache_identity_with_base(self):
        db = seeded_db()
        snap = db.snapshot()
        assert snap.cache_identity == db.cache_identity
        assert isinstance(snap, DatabaseSnapshot)

    def test_snapshot_private_stats_sink(self):
        db = seeded_db()
        sink = Instrumentation()
        snap = db.snapshot(stats=sink)
        assert snap.stats is sink
        assert snap.stats is not db.stats


class TestReadOnly:
    def test_all_mutators_raise(self):
        db = seeded_db()
        snap = db.snapshot()
        with pytest.raises(StorageError):
            snap.insert({"x": 1}, extent="Person")
        with pytest.raises(StorageError):
            snap.insert_many([{"x": 1}], extent="Person")
        with pytest.raises(StorageError):
            snap.bind_root("X", 1)
        with pytest.raises(StorageError):
            snap.rebind_root("L", 1)
        with pytest.raises(StorageError):
            snap.create_index("Person", "age")
        with pytest.raises(StorageError):
            snap.drop_index("Person", "age")
        with pytest.raises(StorageError):
            snap.analyze("Person", "age")
        with pytest.raises(StorageError):
            snap.bump_epoch()

    def test_mutator_failure_leaves_snapshot_intact(self):
        db = seeded_db()
        snap = db.snapshot()
        with pytest.raises(StorageError):
            snap.insert({"x": 1}, extent="Person")
        assert snap.extent_size("Person") == 10


class TestIndexVisibility:
    def test_index_probe_filters_post_pin_rows(self):
        db = seeded_db()
        db.create_index("Person", "age")
        snap = db.snapshot()
        db.insert({"name": "late", "age": 20}, extent="Person")

        from repro.predicates import attr

        predicate = attr("age") == 20
        rows, used_index = snap.candidates("Person", predicate)
        assert used_index
        assert [row["name"] for row in rows] == ["p2"]
        base_rows, _ = db.candidates("Person", predicate)
        assert len(base_rows) == 2

    def test_index_created_after_pin_is_invisible(self):
        db = seeded_db()
        snap = db.snapshot()
        db.create_index("Person", "age")
        assert db.has_index("Person", "age")
        assert not snap.has_index("Person", "age")
        assert snap.index_for("Person", "age") is None


class TestVersions:
    def test_insert_bumps_only_its_extent(self):
        db = seeded_db()
        before = db.versions(
            (extent_resource("Person"), extent_resource("Other"), GLOBAL_RESOURCE)
        )
        db.insert({"name": "x"}, extent="Person")
        after = db.versions(
            (extent_resource("Person"), extent_resource("Other"), GLOBAL_RESOURCE)
        )
        assert after[0] > before[0]  # Person moved
        assert after[1] == before[1]  # Other did not
        assert after[2] == before[2]  # blanket watermark did not

    def test_rebind_bumps_only_its_root(self):
        db = seeded_db()
        tags = (root_resource("L"), extent_resource("Person"))
        before = db.versions(tags)
        db.rebind_root("L", AquaList.from_values([0]))
        after = db.versions(tags)
        assert after[0] > before[0]
        assert after[1] == before[1]

    def test_bare_bump_is_a_blanket_invalidation(self):
        db = seeded_db()
        tags = (root_resource("L"), extent_resource("Person"), GLOBAL_RESOURCE)
        before = db.versions(tags)
        db.bump_epoch()
        after = db.versions(tags)
        assert all(a > b for a, b in zip(after, before))

    def test_version_token_is_pinned(self):
        db = seeded_db()
        token = db.version_token()
        frozen = token.versions((extent_resource("Person"),))
        db.insert({"name": "x"}, extent="Person")
        assert token.versions((extent_resource("Person"),)) == frozen
        assert db.versions((extent_resource("Person"),)) != frozen

    def test_snapshot_versions_are_pinned(self):
        db = seeded_db()
        snap = db.snapshot()
        tag = (extent_resource("Person"),)
        pinned = snap.versions(tag)
        db.insert({"name": "x"}, extent="Person")
        assert snap.versions(tag) == pinned
        assert snap.epoch < db.epoch

    def test_index_create_and_analyze_stamp_the_extent(self):
        db = seeded_db()
        tag = (extent_resource("Person"),)
        v0 = db.versions(tag)
        db.create_index("Person", "age")
        v1 = db.versions(tag)
        db.analyze("Person", "age")
        v2 = db.versions(tag)
        assert v0 < v1 < v2


class TestBumpEpochRace:
    def test_concurrent_bumps_never_collide(self):
        """Satellite 1: the historical ``self._epoch += 1`` data race.

        Two threads hammering ``bump_epoch`` must produce strictly
        unique epoch values — the unsynchronized read-modify-write used
        to let both threads observe the same epoch under an unlucky
        switch, silently merging two invalidation events into one.
        """
        db = Database()
        per_thread = 2000
        results: list[list[int]] = [[], []]
        barrier = threading.Barrier(2)

        def hammer(slot: int) -> None:
            barrier.wait()
            collect = results[slot].append
            for _ in range(per_thread):
                collect(db.bump_epoch())

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force frequent thread switches
        try:
            threads = [
                threading.Thread(target=hammer, args=(slot,)) for slot in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old_interval)

        seen = results[0] + results[1]
        assert len(set(seen)) == 2 * per_thread
        assert db.epoch == 2 * per_thread

    def test_concurrent_inserts_are_all_recorded(self):
        db = Database()
        per_thread = 500

        def writer() -> None:
            for i in range(per_thread):
                db.insert({"i": i}, extent="Person")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert db.extent_size("Person") == 4 * per_thread
        assert db.epoch == 4 * per_thread


class TestIsolationProperty:
    """A pin reads ``rows[:watermark]`` and nothing else, whichever access
    path serves it and whatever the writers did before or after it."""

    #: The five operators an ordered index serves.
    OPS = (operator.eq, operator.lt, operator.le, operator.gt, operator.ge)

    def _check_pin(self, snap, visible):
        """Every probe through ``snap`` equals a scan of ``visible``."""
        indexed = snap.has_index("Row", "k")
        for k in range(4):
            rows, used = snap.candidates("Row", attr("k") == k)
            assert used == indexed
            # Hash postings come back in extent order; a scan is the prefix.
            expected = [r for r in visible if r["k"] == k]
            assert rows == (expected if used else visible)
            assert snap.select("Row", attr("k") == k) == AquaSet(expected)
        indexed = snap.has_index("Row", "n")
        for compare in self.OPS:
            for n in (0, 3, 7):
                rows, used = snap.candidates("Row", compare(attr("n"), n))
                assert used == indexed
                expected = [r for r in visible if compare(r["n"], n)]
                if used:  # key order, extent order within a key
                    expected.sort(key=lambda r: r["n"])
                assert rows == (expected if used else visible)
                assert snap.select("Row", compare(attr("n"), n)) == AquaSet(expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_interleaving(self, seed):
        rng = random.Random(seed)
        db = Database()
        written: list[dict] = []  # extent order
        pins: list[tuple[DatabaseSnapshot, int]] = []

        def fresh(count):
            rows = [
                {"id": len(written) + i, "k": rng.randrange(4), "n": rng.randrange(8)}
                for i in range(count)
            ]
            written.extend(rows)
            return rows

        db.insert_many(fresh(5), extent="Row")
        for _ in range(150):
            draw = rng.randrange(8)
            if draw == 0:
                db.insert(fresh(1)[0], extent="Row")
            elif draw == 1:
                db.insert_many(fresh(rng.randrange(1, 5)), extent="Row")
            elif draw == 2:
                rows = fresh(rng.randrange(1, 4))
                db.commit_staged({}, {}, [(row, "Row") for row in rows])
            elif draw == 3:  # on a non-empty extent: bulk_load stamps it
                db.create_index("Row", "k")
                db.create_index("Row", "n", ordered=True)
            elif draw == 4:
                attribute = rng.choice(["k", "n"])
                if db.drop_index("Row", attribute):
                    db.create_index("Row", attribute, ordered=attribute == "n")
            elif draw == 5:
                db.drop_index("Row", rng.choice(["k", "n"]))
            else:
                snap = db.snapshot()
                pins.append((snap, len(written)))
                self._check_pin(snap, written[:])
        assert pins
        for snap, watermark in pins:  # and again, after everything later
            assert snap.extent_size("Row") == watermark
            self._check_pin(snap, written[:watermark])

    def test_pins_under_concurrent_writers(self):
        db = Database()
        db.insert_many(
            [{"id": -1 - i, "k": i % 4, "n": i % 8} for i in range(40)], extent="Row"
        )
        db.create_index("Row", "k")
        db.create_index("Row", "n", ordered=True)

        def writer(slot: int) -> None:
            for serial in range(0, 3000, 3):
                rows = [
                    {"id": (slot, serial + i), "k": (serial + i) % 4, "n": (serial + i) % 8}
                    for i in range(3)
                ]
                if slot:
                    db.commit_staged({}, {}, [(row, "Row") for row in rows])
                else:
                    db.insert(rows[0], extent="Row")
                    db.insert_many(rows[1:], extent="Row")

        threads = [threading.Thread(target=writer, args=(slot,)) for slot in (0, 1)]
        watermarks = [40]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            while any(t.is_alive() for t in threads) or watermarks[-1] < 6040:
                snap = db.snapshot()
                visible = list(snap.iter_extent("Row"))
                assert len(visible) == snap.extent_size("Row")
                watermarks.append(len(visible))
                self._check_pin(snap, visible)
        finally:
            for t in threads:
                t.join(timeout=60)
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert watermarks == sorted(watermarks) and watermarks[-1] == 6040
