"""Tests for the object model: OIDs, cells, records, dereferencing."""

import copy
import pickle
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import identity
from repro.core.equality import _identity_key
from repro.core.identity import Cell, DatabaseObject, Record, as_cell, deref, fresh_oid
from repro.docstore.model import DocNode


class TestOids:
    def test_fresh_oids_are_unique(self):
        oids = {fresh_oid() for _ in range(1000)}
        assert len(oids) == 1000

    def test_fresh_oids_are_monotonic(self):
        first = fresh_oid()
        second = fresh_oid()
        assert second > first

    def test_database_objects_get_oids(self):
        a = Record(x=1)
        b = Record(x=1)
        assert a.oid != b.oid


class TestIdentityEquality:
    def test_objects_equal_only_to_themselves(self):
        a = Record(x=1)
        b = Record(x=1)
        assert a == a
        assert a != b

    def test_objects_are_hashable_by_identity(self):
        a = Record(x=1)
        b = Record(x=1)
        assert len({a, b}) == 2


class TestCell:
    def test_cell_wraps_contents(self):
        payload = Record(name="n")
        cell = Cell(payload)
        assert cell.contents is payload

    def test_two_cells_same_contents_are_distinct(self):
        payload = Record(name="n")
        c1, c2 = Cell(payload), Cell(payload)
        assert c1 != c2
        assert c1.contents is c2.contents

    def test_as_cell_wraps_raw_values(self):
        cell = as_cell("a")
        assert isinstance(cell, Cell)
        assert cell.contents == "a"

    def test_as_cell_passes_cells_through(self):
        cell = Cell("a")
        assert as_cell(cell) is cell

    def test_deref_unwraps_cells(self):
        assert deref(Cell("a")) == "a"

    def test_deref_passes_non_cells_through(self):
        assert deref("a") == "a"
        assert deref(None) is None

    def test_nested_cells_deref_one_level(self):
        inner = Cell("a")
        outer = Cell(inner)
        assert deref(outer) is inner


class TestRecord:
    def test_record_stores_attributes(self):
        r = Record(name="Mat", citizen="Brazil")
        assert r.name == "Mat"
        assert r.citizen == "Brazil"

    def test_stored_attributes_exclude_oid(self):
        r = Record(name="Mat")
        attrs = r.stored_attributes()
        assert attrs == {"name": "Mat"}

    def test_repr_is_stable(self):
        r = Record(b=2, a=1)
        assert repr(r) == "Record(a=1, b=2)"

    def test_slots_subclass_stored_attributes(self):
        class Point(DatabaseObject):
            __slots__ = ("x", "y")

            def __init__(self, x, y):
                super().__init__()
                self.x = x
                self.y = y

        p = Point(1, 2)
        assert p.stored_attributes() == {"x": 1, "y": 2}


#: One fresh, unread object of each identity-bearing kind.
MAKERS = {
    "record": lambda: Record(name="n"),
    "cell": lambda: Cell(Record(name="n")),
    "docnode": lambda: DocNode("element", tag="p", attrs={"_oid": "an attribute"}),
}

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


class TestOidContract:
    """An OID is drawn on first read, not at construction: one number per
    object, stable, carried by copies, and drawn once under a race."""

    @settings(max_examples=50, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(sorted(MAKERS)), min_size=1, max_size=12),
        order=st.randoms(use_true_random=False),
    )
    def test_oids_are_unique_and_stable_on_reread(self, kinds, order):
        objects = [MAKERS[kind]() for kind in kinds]
        reads = list(range(len(objects)))
        order.shuffle(reads)
        first = {index: objects[index].oid for index in reads}
        assert len(set(first.values())) == len(objects)
        assert {index: objects[index].oid for index in reads} == first

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(sorted(MAKERS)),
        how=st.sampled_from(sorted(COPIES)),
        read_first=st.booleans(),
    )
    def test_copies_carry_the_original_oid(self, kind, how, read_first):
        original = MAKERS[kind]()
        before = original.oid if read_first else None
        duplicate = COPIES[how](original)
        assert duplicate is not original
        assert duplicate.oid == original.oid
        assert before is None or original.oid == before
        if kind == "cell" and how != "copy":  # the contents were copied too
            assert duplicate.contents.oid == original.contents.oid

    @settings(max_examples=50, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(sorted(MAKERS)), min_size=1, max_size=6),
        picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1),
    )
    def test_identity_key_agrees_with_is(self, kinds, picks):
        objects = [MAKERS[kind]() for kind in kinds]
        for i, j in picks:
            a, b = objects[i % len(objects)], objects[j % len(objects)]
            assert (_identity_key(a) == _identity_key(b)) == (a is b)

    @settings(max_examples=5, deadline=None)
    @given(kind=st.sampled_from(sorted(MAKERS)), threads=st.integers(2, 6))
    def test_racing_first_reads_see_one_oid(self, kind, threads):
        """Each reader misses the slot before any has stored a number (the
        draw is slowed); the lock makes the later ones re-read it."""
        target = MAKERS[kind]()
        start = threading.Barrier(threads)
        seen = []

        def slow_draw() -> int:
            time.sleep(0.02)
            return fresh_oid()

        def read() -> None:
            start.wait(timeout=10)
            seen.append(target.oid)

        workers = [threading.Thread(target=read) for _ in range(threads)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(identity, "fresh_oid", slow_draw)
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == threads
        assert len(set(seen)) == 1
        assert target.oid == seen[0]

    def test_construction_draws_no_oid(self):
        before = fresh_oid()
        made = [factory() for factory in MAKERS.values()]
        assert fresh_oid() == before + 1
        assert all(item.oid > before for item in made)
