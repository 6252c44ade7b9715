"""Tests for parameterized equality (paper §2)."""

import copy
import pickle

import pytest

from repro.core.aqua_set import AquaSet
from repro.core.equality import DEEP, IDENTITY, SHALLOW, _identity_key
from repro.core.identity import Cell, Record


class TestIdentityEquality:
    def test_same_object_is_equal(self):
        r = Record(x=1)
        assert IDENTITY.eq(r, r)

    def test_structurally_equal_objects_differ(self):
        assert not IDENTITY.eq(Record(x=1), Record(x=1))

    def test_plain_values_compare_by_value(self):
        assert IDENTITY.eq(3, 3)
        assert not IDENTITY.eq(3, 4)

    def test_key_agreement(self):
        r = Record(x=1)
        assert IDENTITY.key(r) == IDENTITY.key(r)


class TestShallowEquality:
    def test_equal_attributes_are_equal(self):
        assert SHALLOW.eq(Record(x=1, y="a"), Record(x=1, y="a"))

    def test_different_attributes_differ(self):
        assert not SHALLOW.eq(Record(x=1), Record(x=2))

    def test_cells_compare_by_contents(self):
        shared = Record(x=1)
        assert SHALLOW.eq(Cell(shared), Cell(shared))

    def test_shallow_nested_objects_compare_by_identity(self):
        a = Record(inner=Record(x=1))
        b = Record(inner=Record(x=1))
        assert not SHALLOW.eq(a, b)  # inner objects are distinct identities

    def test_type_matters(self):
        class Other(Record):
            pass

        assert not SHALLOW.eq(Record(x=1), Other(x=1))


class TestDeepEquality:
    def test_recursive_structure_equality(self):
        a = Record(inner=Record(x=1), xs=[1, 2])
        b = Record(inner=Record(x=1), xs=[1, 2])
        assert DEEP.eq(a, b)

    def test_deep_difference_detected(self):
        a = Record(inner=Record(x=1))
        b = Record(inner=Record(x=2))
        assert not DEEP.eq(a, b)

    def test_cells_are_transparent(self):
        assert DEEP.eq(Cell(Record(x=1)), Cell(Record(x=1)))

    def test_containers(self):
        assert DEEP.eq({"a": [1, (2, 3)]}, {"a": [1, (2, 3)]})
        assert not DEEP.eq({"a": [1]}, {"a": [2]})

    def test_callable_interface(self):
        assert DEEP(Record(x=1), Record(x=1))


class TestEqualitiesPickleByName:
    """The module's notions pickle and copy as themselves, so AQUA sets —
    query results included — round-trip with their notion intact."""

    @pytest.mark.parametrize("equality", [IDENTITY, SHALLOW, DEEP], ids=lambda e: e.name)
    @pytest.mark.parametrize("roundtrip", ["pickle", "deepcopy"])
    def test_a_set_round_trips_with_its_notion(self, equality, roundtrip):
        original = AquaSet([1, "a", (2, 3), Record(x=1), Record(x=1)], equality)
        if roundtrip == "pickle":
            loaded = pickle.loads(pickle.dumps(original))
        else:
            loaded = copy.deepcopy(original)
        assert loaded.equality is equality
        assert loaded == original and len(loaded) == len(original)
        assert [equality.key(v) for v in loaded] == [equality.key(v) for v in original]

    def test_a_set_valued_query_result_pickles(self):
        from repro import Session
        from repro.storage import Database

        db = Database()
        db.insert_many([Record(name=f"p{i}", city=f"C{i % 3}") for i in range(9)], "Person")
        db.create_index("Person", "city")
        session = Session(db)
        rows = 'extent Person | sselect {city = "C1"}'
        for text in (rows, rows + " | project name"):
            result = session.query(text)
            loaded = pickle.loads(pickle.dumps(result))
            assert isinstance(loaded, AquaSet) and loaded.equality is IDENTITY
            assert loaded == result and len(loaded) == 3

    def test_key_is_the_plain_key_function(self):
        """A dedup loop calls ``equality.key`` once per row: no wrapper."""
        assert IDENTITY.key is _identity_key
