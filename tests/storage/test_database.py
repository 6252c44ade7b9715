"""Tests for the Database substrate: extents, roots, index-backed selects."""

import pytest

from repro.core import parse_list, parse_tree
from repro.core.identity import Record
from repro.errors import StorageError
from repro.predicates.alphabet import attr, pred
from repro.storage.database import Database
from repro.storage.stats import Instrumentation


def populated():
    db = Database()
    db.insert_many(
        [Record(name=f"p{i}", age=i % 50, city=f"C{i % 10}") for i in range(200)],
        "Person",
    )
    return db


class TestExtents:
    def test_insert_and_extent(self):
        db = populated()
        assert db.extent_size("Person") == 200
        assert len(db.extent("Person")) == 200

    def test_default_extent_is_class_name(self):
        db = Database()
        db.insert(Record(x=1))
        assert db.extents() == ["Record"]

    def test_unknown_extent_is_empty(self):
        assert len(Database().extent("Nope")) == 0

    def test_inserts_maintain_existing_indexes(self):
        db = populated()
        index = db.create_index("Person", "city")
        before = index.count("C1")
        db.insert(Record(name="new", age=1, city="C1"), "Person")
        assert index.count("C1") == before + 1


class TestRoots:
    def test_bind_and_get(self):
        db = Database()
        tree = parse_tree("a(b)")
        db.bind_root("T", tree)
        assert db.root("T") is tree

    def test_rebind_requires_explicit_call(self):
        db = Database()
        db.bind_root("T", 1)
        with pytest.raises(StorageError):
            db.bind_root("T", 2)
        db.rebind_root("T", 2)
        assert db.root("T") == 2

    def test_unknown_root(self):
        with pytest.raises(StorageError):
            Database().root("missing")

    def test_roots_listing(self):
        db = Database()
        db.bind_root("b", 1)
        db.bind_root("a", 2)
        assert db.roots() == ["a", "b"]


class TestCandidatesAndSelect:
    def test_indexed_candidates(self):
        db = populated()
        db.create_index("Person", "city")
        rows, used = db.candidates("Person", attr("city") == "C3")
        assert used
        assert len(rows) == 20

    def test_unindexed_falls_back_to_scan(self):
        db = populated()
        rows, used = db.candidates("Person", attr("city") == "C3")
        assert not used
        assert len(rows) == 200
        assert db.stats["full_scans"] == 1

    def test_opaque_predicate_scans(self):
        db = populated()
        db.create_index("Person", "city")
        rows, used = db.candidates("Person", pred(lambda o: True))
        assert not used

    def test_most_selective_index_wins(self):
        db = populated()
        db.create_index("Person", "city")
        db.create_index("Person", "name")
        predicate = (attr("city") == "C3") & (attr("name") == "p3")
        rows, used = db.candidates("Person", predicate)
        assert used
        assert len(rows) == 1

    def test_ordered_index_serves_ranges(self):
        db = populated()
        db.create_index("Person", "age", ordered=True)
        rows, used = db.candidates("Person", attr("age") >= 45)
        assert used
        assert all(r.age >= 45 for r in rows)

    def test_select_rechecks_full_predicate(self):
        db = populated()
        db.create_index("Person", "city")
        result = db.select("Person", (attr("city") == "C3") & (attr("age") > 40))
        assert all(r.age > 40 and r.city == "C3" for r in result)

    def test_select_counts_predicate_evals(self):
        db = populated()
        db.create_index("Person", "city")
        db.select("Person", attr("city") == "C3")
        assert db.stats["predicate_evals"] == 20


class TestStructureIndexCaching:
    def test_tree_index_cached(self):
        db = Database()
        tree = parse_tree("a(b)")
        first = db.tree_index(tree)
        assert db.tree_index(tree) is first

    def test_tree_index_attributes_extended(self):
        db = Database()
        from repro.workloads.family import figure3_family_tree

        tree = figure3_family_tree()
        db.tree_index(tree)
        extended = db.tree_index(tree, ["citizen"])
        assert "citizen" in extended.indexed_attributes()

    def test_list_index_cached(self):
        db = Database()
        values = parse_list("[ab]")
        assert db.list_index(values) is db.list_index(values)


class TestInstrumentation:
    def test_counting_wrapper(self):
        """``select`` tests through the predicate's compiled closure and
        counts one evaluation per row tested; an opaque predicate, which
        does not compile, is called itself and counts the same."""
        db = populated()
        assert len(db.select("Person", attr("age") > 45)) == 16
        assert db.stats["predicate_evals"] == 200
        assert len(db.select("Person", pred(lambda o: o.age > 45))) == 16
        assert db.stats["predicate_evals"] == 400

    def test_reset_and_snapshot(self):
        stats = Instrumentation()
        stats.bump("x", 3)
        assert stats.snapshot() == {"x": 3}
        stats.reset()
        assert stats["x"] == 0

    def test_counting_preserves_predicate_metadata(self):
        """The predicate reaches the index unwrapped, so its terms still
        serve a probe, and only the probed candidates are tested."""
        db = populated()
        db.create_index("Person", "age", ordered=True)
        assert len(db.select("Person", attr("age") > 45)) == 16
        assert db.stats.snapshot() == {
            "index_probes": 1,
            "index_candidates": 16,
            "predicate_evals": 16,
        }
