"""The hash/eq contract of the bulk values, and what copies carry.

Equal ``AquaList`` / ``AquaTree`` / ``AquaTuple`` values hash equal —
whatever a dict payload's key order, and an ``AquaTuple`` equal to its
plain tuple.  Lists and trees cache their structural hash (computed once
per value, however many set stages key it); copies and pickles carry
structure alone, so every cache is re-derived by the receiving process.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.core import aqua_list
from repro.core.aqua_list import AquaList
from repro.core.aqua_set import AquaSet
from repro.core.aqua_tree import VALUE_ATTRIBUTE, AquaTree
from repro.core.aqua_tuple import AquaTuple
from repro.core.concat import alpha
from repro.core.equality import payload_key
from repro.storage import Database
from repro.workloads import song_with_melody

SRC = str(Path(__file__).resolve().parents[2] / "src")

ROUND_TRIPS = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def _warm_tree() -> AquaTree:
    tree = AquaTree.from_nested(("a", [("b", ["c", "d"]), "e", alpha(1)]))
    tree.layout()
    tree.postings(VALUE_ATTRIBUTE)
    hash(tree)
    return tree


class TestEqualValuesHashEqual:
    def test_list_dict_payload_order(self):
        a = AquaList.of({"x": 1, "y": 2})
        b = AquaList.of({"y": 2, "x": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert len(AquaSet([a, b])) == 1

    def test_tree_dict_payload_order(self):
        a = AquaTree.leaf({"x": 1, "y": [1, 2]})
        b = AquaTree.leaf({"y": [1, 2], "x": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert len(AquaSet([a, b])) == 1

    def test_tuple_equals_and_hashes_as_plain_tuple(self):
        a, b = AquaTuple(1, "x"), (1, "x")
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_payload_key_canonical_forms(self):
        assert payload_key({"b": [1, {2}], "a": 0}) == payload_key({"a": 0, "b": [1, {2}]})
        # Keys that do not sort fall back to repr, and still key something.
        assert payload_key({1: "x", "y": 2}) == repr({1: "x", "y": 2})


class TestCopiesRederiveCaches:
    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    def test_tree_layout_positions_its_own_nodes(self, round_trip):
        tree = _warm_tree()
        copied = round_trip(tree)
        assert copied == tree and hash(copied) == hash(tree)
        positions = copied.layout().position
        assert [positions[id(node)] for node in copied.nodes()] == list(range(6))
        assert copied.postings(VALUE_ATTRIBUTE).buckets["b"][1] == [copied.root.children[0]]

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    def test_list_carries_entries_only(self, round_trip):
        song = AquaList.of("a", alpha(1), {"k": [1]}, "b")
        hash(song)
        song.value_array
        copied = round_trip(song)
        assert copied == song and hash(copied) == hash(song)
        assert copied.value_array == song.value_array
        assert copied.concat_points() == [alpha(1)]

    def test_pickled_hash_does_not_cross_hash_seeds(self, tmp_path):
        dump = (
            "import pickle, sys\n"
            "from repro.core import AquaList, AquaTree\n"
            "values = [AquaTree.from_nested(('a', ['b', 'c'])), AquaList.of('a', 'b')]\n"
            "for value in values: hash(value)\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps(values))\n"
        )
        load = (
            "import pickle, sys\n"
            "from repro.core import AquaList, AquaTree\n"
            "fresh = [AquaTree.from_nested(('a', ['b', 'c'])), AquaList.of('a', 'b')]\n"
            "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "print([l == f and l in {f} for l, f in zip(loaded, fresh)])\n"
        )
        path = str(tmp_path / "values.pickle")
        outputs = []
        for seed, code in (("1", dump), ("2", load)):
            result = subprocess.run(
                [sys.executable, "-c", code, path],
                env={"PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout.strip())
        assert outputs[1] == "[True, True]"


def test_a_result_list_is_hashed_once(monkeypatch):
    """Every set stage keys a result sublist (dedup, the result set), but
    its structural hash is computed once: one computation per row."""
    computed = []
    structural_hash = aqua_list._structural_hash

    def counting(entries):
        computed.append(len(entries))
        return structural_hash(entries)

    db = Database()
    db.bind_root("song", song_with_melody(300, ["A", "C", "E", "F"], 3, seed=5))
    monkeypatch.setattr(aqua_list, "_structural_hash", counting)
    rows = Session(db).query('root song | lsub_select "[A??F]" by pitch', parallel="off")
    assert len(rows) == 3
    assert computed == [4, 4, 4]
