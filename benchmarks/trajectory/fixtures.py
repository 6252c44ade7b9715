"""Databases built from ``data.py``, shared by workloads and layer probes.

The workloads call these at full size; ``Fixtures`` holds the small
fixed-size copies the layer probes in ``layers.py`` run on, so a probe
costs the same in every workload's traced run.  Only ``repro.__all__``
names are used.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Any, Callable

import repro
from repro import (
    AquaList,
    Cell,
    Database,
    PlanCache,
    Session,
    attr,
    split_pieces,
)

import data

FIGURE4_PATTERN = "Brazil(!?* USA !?*)"


def by_citizen(symbol: str) -> Any:
    return attr("citizen") == symbol


def by_pitch(symbol: str) -> Any:
    return attr("pitch") == symbol


def anchors(tree: Any, label: str = "d") -> list:
    """The nodes labelled ``label``, by a plain scan: what the oracles
    hand to ``roots=`` so a 100k-node reference answer takes seconds."""
    return [node for node in tree.nodes() if node.value == label]


def codec(fmt: str) -> tuple[Callable[[str], Any], Callable[[Any], str]]:
    """``(from_<fmt>, to_<fmt>)`` for html | json | xml."""
    return getattr(repro, f"from_{fmt}"), getattr(repro, f"to_{fmt}")


def split_count(tree: Any) -> tuple[str, int]:
    """``forest_split``'s per-tree function: the Figure-4 split's piece
    count, tagged with the tree's (unique) root name so the 300 answers
    stay distinct under set semantics."""
    pieces = split_pieces(FIGURE4_PATTERN, tree, resolver=by_citizen)
    return tree.root.value.name, len(pieces)


def set_at(aqua_list: AquaList, position: int, payload: Any) -> AquaList:
    """The benchmark's list updater: a persistent single-element replace."""
    entries = list(aqua_list.entries)
    entries[position] = Cell(payload)
    return AquaList(entries)


def labelled_db(rng: random.Random, size: int, plant: int = 5) -> Database:
    """Root ``T``: a labelled tree with its node index built."""
    db = Database()
    tree = data.labelled_tree(rng, size, plant=plant)
    db.bind_root("T", tree)
    db.tree_index(tree)
    return db


def forest_db(rng: random.Random, trees: int, nodes_per_tree: int) -> Database:
    db = Database()
    db.insert_many(data.family_forest(rng, trees, nodes_per_tree), "Families")
    return db


def song_db(rng: random.Random, length: int, melodies: int, phrase: int, phrase_melodies: int) -> Database:
    """Roots ``song`` and ``phrase`` (a short list for ``lsplit``, whose
    pieces each copy the whole list), both with a ``pitch`` index."""
    db = Database()
    for name, size, planted in (("song", length, melodies), ("phrase", phrase, phrase_melodies)):
        notes = data.song(rng, size, planted)
        db.bind_root(name, notes)
        db.list_index(notes, ["pitch"])
    return db


def people_db(rng: random.Random, count: int, cities: int, tree_size: int) -> Database:
    """Extent ``Person`` (index on ``city``), tree root ``T``, list root ``L``."""
    db = labelled_db(rng, tree_size)
    db.insert_many(data.people(rng, count, cities), "Person")
    db.create_index("Person", "city")
    db.bind_root("L", AquaList.from_values(range(64)))
    return db


def adhoc_db(rng: random.Random, cities: int = 8) -> Database:
    """``small_adhoc``'s tiny database: Figure-3 family, 200-node ``T``,
    64-note ``song``, 64 ``Person`` records indexed on ``city``."""
    db = people_db(rng, 64, cities, 200)
    db.bind_root("family", data.figure3_family_tree())
    notes = data.song(rng, 64, 2)
    db.bind_root("song", notes)
    db.list_index(notes, ["pitch"])
    return db


def city_texts(cities: int) -> list[str]:
    """One indexed-conjunct read per city, plus one ``sub_select`` on ``T``."""
    texts = [
        f'extent Person | sselect {{age > 30 and city = "C{k}" and salary > 1000}}'
        " | project name"
        for k in range(cities)
    ]
    texts.append('root T | sub_select "d(?* e ?*)"')
    return texts


class Fixtures:
    """Small fixed-size inputs for the layer probes, built on first use.

    Each fixture draws from its own generator seeded by ``(seed, name)``,
    so what one probe builds never shifts what another sees.
    """

    TREE_NODES = 20_000
    FOREST = (300, 40)
    SONG_NOTES = 20_000
    PEOPLE = (2_000, 20)
    ARTICLES = 60

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.seed}:{name}")

    @cached_property
    def tree_db(self) -> Database:
        return labelled_db(self.rng("tree"), self.TREE_NODES)

    @cached_property
    def forest_db(self) -> Database:
        return forest_db(self.rng("forest"), *self.FOREST)

    @cached_property
    def song_db(self) -> Database:
        return song_db(self.rng("song"), self.SONG_NOTES, 5, 4_000, 2)

    @cached_property
    def people_db(self) -> Database:
        return people_db(self.rng("people"), *self.PEOPLE, 2_000)

    @cached_property
    def adhoc_db(self) -> Database:
        return adhoc_db(self.rng("adhoc"))

    @cached_property
    def documents(self) -> dict[str, str]:
        return dict(data.documents(self.rng("documents"), (self.ARTICLES,)))

    @cached_property
    def texts(self) -> list[str]:
        """AQL texts over ``adhoc_db``, the four kinds in equal shares."""
        return [text for text, _ in data.aql_candidates(self.rng("texts"), 8)[:64]]

    def session(self, db: Database) -> Session:
        return Session(db, plan_cache=PlanCache())
