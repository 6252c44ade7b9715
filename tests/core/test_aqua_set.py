"""Tests for AQUA sets and multisets (paper §2)."""

import pickle

import pytest

from repro.core.aqua_set import AquaMultiset, AquaSet
from repro.core.aqua_tuple import AquaTuple
from repro.core.equality import DEFAULT, IDENTITY, SHALLOW
from repro.core.identity import Record
from repro.errors import TypeMismatchError


class TestAquaSet:
    def test_duplicates_collapse(self):
        s = AquaSet([1, 2, 2, 3])
        assert len(s) == 3

    def test_membership(self):
        s = AquaSet([1, 2])
        assert 1 in s
        assert 5 not in s

    def test_identity_equality_keeps_twins(self):
        a, b = Record(x=1), Record(x=1)
        s = AquaSet([a, b], IDENTITY)
        assert len(s) == 2

    def test_shallow_equality_collapses_twins(self):
        a, b = Record(x=1), Record(x=1)
        s = AquaSet([a, b], SHALLOW)
        assert len(s) == 1

    def test_select(self):
        s = AquaSet(range(10))
        assert sorted(s.select(lambda x: x % 2 == 0)) == [0, 2, 4, 6, 8]

    def test_apply(self):
        s = AquaSet([1, 2, 3])
        assert sorted(s.apply(lambda x: x * 2)) == [2, 4, 6]

    def test_apply_collapses_collisions(self):
        s = AquaSet([1, 2, 3])
        assert len(s.apply(lambda x: x % 2)) == 2

    def test_fold(self):
        s = AquaSet([1, 2, 3])
        assert s.fold(lambda acc, x: acc + x, 0) == 6

    def test_union(self):
        assert sorted(AquaSet([1, 2]).union(AquaSet([2, 3]))) == [1, 2, 3]

    def test_union_with_equality_override(self):
        a, b = Record(x=1), Record(x=1)
        merged = AquaSet([a]).union(AquaSet([b]), SHALLOW)
        assert len(merged) == 1

    def test_intersection(self):
        assert sorted(AquaSet([1, 2, 3]).intersection(AquaSet([2, 3, 4]))) == [2, 3]

    def test_difference(self):
        assert sorted(AquaSet([1, 2, 3]).difference(AquaSet([2]))) == [1, 3]

    def test_product(self):
        p = AquaSet([1, 2]).product(AquaSet(["a"]))
        assert AquaTuple(1, "a") in p
        assert len(p) == 2

    def test_set_equality_ignores_order(self):
        assert AquaSet([1, 2, 3]) == AquaSet([3, 2, 1])

    def test_exists_forall(self):
        s = AquaSet([1, 2, 3])
        assert s.exists(lambda x: x == 2)
        assert not s.for_all(lambda x: x > 1)

    def test_bool(self):
        assert not AquaSet()
        assert AquaSet([1])


class TestDistinctAquaSet:
    """``AquaSet.distinct`` keys its members only when a lookup needs it."""

    def members(self):
        return [Record(x=1), Record(x=2), (1, [2]), "a"]

    @pytest.mark.parametrize("equality", [DEFAULT, IDENTITY, SHALLOW])
    def test_equals_an_eagerly_built_set(self, equality):
        rows = self.members()
        eager, lazy = AquaSet(rows, equality), AquaSet.distinct(list(rows), equality)
        assert lazy._keys is None
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert list(lazy) == list(eager) and len(lazy) == len(eager)
        assert all(row in lazy for row in rows) and "b" not in lazy
        assert not lazy.add(rows[0]) and lazy.add("b") and list(lazy)[-1] == "b"
        assert pickle.loads(pickle.dumps(AquaSet.distinct(list(rows), equality))) == pickle.loads(
            pickle.dumps(eager)
        )

    def test_an_only_iterated_set_is_never_keyed(self, monkeypatch):
        keyed = []
        monkeypatch.setattr(DEFAULT, "key", lambda row: keyed.append(row) or row)
        lazy = AquaSet.distinct([1, 2, 3])
        assert list(lazy) == [1, 2, 3] and len(lazy) == 3 and lazy
        assert keyed == []
        assert 2 in lazy and sorted(keyed) == [1, 2, 2, 3]


class TestAquaMultiset:
    def test_counts(self):
        m = AquaMultiset([1, 1, 2])
        assert m.count(1) == 2
        assert m.count(2) == 1
        assert len(m) == 3

    def test_negative_count_rejected(self):
        m = AquaMultiset()
        with pytest.raises(TypeMismatchError):
            m.add(1, count=-1)

    def test_union_adds_multiplicities(self):
        m = AquaMultiset([1, 1]).union(AquaMultiset([1]))
        assert m.count(1) == 3

    def test_intersection_takes_min(self):
        m = AquaMultiset([1, 1, 2]).intersection(AquaMultiset([1, 2, 2]))
        assert m.count(1) == 1
        assert m.count(2) == 1

    def test_difference_subtracts(self):
        m = AquaMultiset([1, 1, 2]).difference(AquaMultiset([1]))
        assert m.count(1) == 1
        assert m.count(2) == 1

    def test_select_preserves_counts(self):
        m = AquaMultiset([1, 1, 2, 3]).select(lambda x: x < 3)
        assert m.count(1) == 2
        assert m.count(3) == 0

    def test_apply_preserves_counts(self):
        m = AquaMultiset([1, 1]).apply(lambda x: x + 1)
        assert m.count(2) == 2

    def test_dup_elim(self):
        s = AquaMultiset([1, 1, 2]).dup_elim()
        assert isinstance(s, AquaSet)
        assert sorted(s) == [1, 2]

    def test_fold_sees_duplicates(self):
        assert AquaMultiset([1, 1, 2]).fold(lambda acc, x: acc + x, 0) == 4

    def test_multiset_equality(self):
        assert AquaMultiset([1, 1, 2]) == AquaMultiset([2, 1, 1])
        assert AquaMultiset([1, 2]) != AquaMultiset([1, 1, 2])
