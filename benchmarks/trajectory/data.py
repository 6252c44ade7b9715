"""Seeded input generators for the trajectory benchmark.

Everything the benchmark feeds the engine is made here from one
``random.Random(seed)`` and names in ``repro.__all__`` only (``AquaTree``,
``AquaList``, ``Record``): ROADMAP item 5 plans to move
``repro.workloads`` and ``repro.docstore.corpus``, and the benchmark that
judges that move must not import what it moves.  Documents are produced
as *text*, so ingestion is part of what is measured.

Structural counts (labels per kind, planted melodies, articles per page)
are fixed by the size arguments and only their *placement* is drawn from
the seed: two seeds give different inputs that cost the same work, which
is what keeps the seed-to-seed spread of the timings inside the bounds.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Any, Sequence

from repro import AquaList, AquaTree, Record

LABELS = ("d", "e", "h", "i", "j", "u", "v", "w", "x", "y")
PITCHES = ("A", "B", "C", "D", "E", "F", "G")
CITIZENSHIPS = ("Brazil", "USA", "Chile", "Peru", "France")
_NEUTRAL = ("Chile", "Peru", "France")
_EYES = ("brown", "blue", "green", "hazel")
_EDUCATIONS = ("None", "HighSchool", "College", "PhD")
_WORDS = (
    "stream", "query", "index", "tree", "node", "merge", "scan", "plan",
    "cache", "shard", "split", "match", "probe", "cost", "budget", "page",
)
_LANGS = ("de", "fr", "es", "pt", "it", "nl", "pl", "sv")


# -- tree shapes ---------------------------------------------------------------


def _random_shape(rng: random.Random, size: int, max_arity: int) -> list[list[int]]:
    """Children lists of a uniformly grown ordered tree on ``size`` nodes.

    Node ``i`` is attached under a parent drawn uniformly from the nodes
    that still have arity budget, so every child index exceeds its
    parent's — which lets ``_assemble`` build bottom-up in one pass.
    """
    children: list[list[int]] = [[] for _ in range(size)]
    open_nodes = [0]
    for index in range(1, size):
        slot = rng.randrange(len(open_nodes))
        parent = open_nodes[slot]
        children[parent].append(index)
        if len(children[parent]) >= max_arity:
            open_nodes[slot] = open_nodes[-1]
            open_nodes.pop()
        open_nodes.append(index)
    return children


def _assemble(payloads: Sequence[Any], children: list[list[int]]) -> AquaTree:
    built: list[Any] = [None] * len(payloads)
    for index in range(len(payloads) - 1, -1, -1):
        built[index] = AquaTree.build(
            payloads[index], [built[child] for child in children[index]]
        )
    return built[0]


def labelled_tree(
    rng: random.Random, size: int, anchor_share: float = 0.01, max_arity: int = 4,
    plant: int = 5,
) -> AquaTree:
    """A ``size``-node tree over ``LABELS`` with *exactly*
    ``round(size * anchor_share)`` nodes labelled ``d`` (the anchor) and
    the rest split evenly over the other nine labels, shuffled.

    ``plant`` anchors are relabelled below into ``d(e(h ..) j ..)``, a
    site every ``deep_subselect`` pattern matches, so no seed yields an
    empty answer; the anchor count is left untouched.
    """
    anchors = max(1, round(size * anchor_share))
    others = LABELS[1:]
    labels = ["d"] * anchors + [
        others[i % len(others)] for i in range(size - anchors)
    ]
    rng.shuffle(labels)
    children = _random_shape(rng, size, max_arity)
    planted = 0
    for node in rng.sample(range(size), size):
        if planted == plant:
            break
        kids = children[node]
        if labels[node] != "d" or len(kids) < 2 or not children[kids[0]]:
            continue
        sites = (kids[0], children[kids[0]][0], kids[1])
        if any(labels[site] == "d" for site in sites):
            continue
        for site, label in zip(sites, "ehj"):
            labels[site] = label
        planted += 1
    return _assemble(labels, children)


# -- family trees (paper §4, Figures 3 and 4) ----------------------------------


def person(name: str, citizen: str, eyes: str = "brown", education: str = "College") -> Record:
    return Record(name=name, citizen=citizen, eyes=eyes, education=education)


def figure3_family_tree() -> AquaTree:
    """The paper's Figure-3 tree: one ``Brazil(!?* USA !?*)`` site."""
    return AquaTree.build(
        person("Maria", "Brazil", "brown", "PhD"),
        [
            AquaTree.build(
                person("Mat", "Brazil"),
                [
                    AquaTree.leaf(person("Ana", "Brazil", "green", "HighSchool")),
                    AquaTree.build(
                        person("Ed", "USA", "blue"),
                        [AquaTree.leaf(person("Bill", "USA", "blue", "None"))],
                    ),
                ],
            ),
            AquaTree.build(
                person("Tom", "Brazil", "hazel", "PhD"),
                [
                    AquaTree.leaf(person("Rita", "Brazil")),
                    AquaTree.leaf(person("Carl", "Chile", "green", "HighSchool")),
                ],
            ),
        ],
    )


def family_tree(
    rng: random.Random, size: int, planted: int, prefix: str = "", max_arity: int = 4
) -> AquaTree:
    """A ``size``-person tree with exactly ``planted`` sites where a
    Brazilian parent has an American child; everyone else is neither, so
    the Figure-4 split has exactly ``planted`` pieces.  Names start with
    ``prefix``, which keeps the roots of a forest distinguishable."""
    bulk = size - 2 * planted
    children = _random_shape(rng, bulk, max_arity)
    people: list[Record] = [
        person(f"{prefix}P{i}", rng.choice(_NEUTRAL), rng.choice(_EYES), rng.choice(_EDUCATIONS))
        for i in range(bulk)
    ]
    for plant, host in enumerate(rng.sample(range(bulk), planted)):
        brazilian, american = len(people), len(people) + 1
        people.append(person(f"{prefix}B{plant}", "Brazil", rng.choice(_EYES)))
        people.append(person(f"{prefix}U{plant}", "USA", rng.choice(_EYES)))
        children.extend(([american], []))
        children[host].append(brazilian)
    return _assemble(people, children)


def family_forest(rng: random.Random, trees: int, nodes_per_tree: int) -> list[AquaTree]:
    """``trees`` family trees; tree ``i`` carries ``i % 3`` planted sites."""
    return [family_tree(rng, nodes_per_tree, i % 3, f"F{i}") for i in range(trees)]


# -- lists ---------------------------------------------------------------------


def note(pitch: str, duration: int = 4) -> Record:
    return Record(pitch=pitch, duration=duration)


def song(rng: random.Random, length: int, melodies: int, melody: str = "ACDF") -> AquaList:
    """A ``length``-note song whose background never plays the melody's
    first or last pitch, with ``melody`` planted exactly ``melodies``
    times — so ``[A??F]`` has exactly ``melodies`` matches."""
    pool = [p for p in PITCHES if p not in (melody[0], melody[-1])]
    notes = [note(rng.choice(pool), rng.choice((1, 2, 4, 8))) for _ in range(length)]
    slots = sorted(rng.sample(range(length), melodies))
    for offset, slot in enumerate(slots):
        at = slot + offset * len(melody)
        notes[at:at] = [note(p, rng.choice((1, 2, 4, 8))) for p in melody]
    return AquaList.from_values(notes)


# -- extents -------------------------------------------------------------------


def people(rng: random.Random, count: int, cities: int) -> list[Record]:
    """``count`` ``Person`` records, ``count / cities`` per city."""
    rows = [
        Record(
            name=f"p{i}",
            age=rng.randrange(18, 78),
            city=f"C{i % cities}",
            salary=rng.randrange(0, 9000),
        )
        for i in range(count)
    ]
    rng.shuffle(rows)
    return rows


# -- documents (as text) -------------------------------------------------------


def _words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(count))


def _article_langs(rng: random.Random, articles: int, english_every: int) -> list[str | None]:
    return [
        "en" if index % english_every == 0 else rng.choice((None, *_LANGS))
        for index in range(articles)
    ]


def markup_document(
    rng: random.Random, articles: int, *, html: bool, paragraphs: int = 12,
    links: int = 24, english_every: int = 5,
) -> str:
    """A scraped-site page as HTML (``html=True``) or as an XML feed with
    the same shape under different tag names."""
    if html:
        page, nav, item, link, art, par, box = "html", "nav", "li", "a", "article", "p", "div"
    else:
        page, nav, item, link, art, par, box = "feed", "index", "item", "link", "entry", "para", "note"
    out = [f"<{page}><{nav}>"]
    for i in range(links):
        out.append(f'<{item}><{link} href="/section/{i}">{_words(rng, 2)}</{link}></{item}>')
    out.append(f"</{nav}><main>")
    for index, lang in enumerate(_article_langs(rng, articles, english_every)):
        lang_attr = f' lang="{lang}"' if lang else ""
        out.append(f'<{art} id="a{index}"{lang_attr}><h1>{_words(rng, 4)}</h1>')
        for _ in range(paragraphs):
            out.append(f"<{par}>{_words(rng, 8)}<em>{_words(rng, 2)}</em></{par}>")
        for _ in range(3):
            out.append(f'<{box} class="comment"><{par}>{_words(rng, 6)}</{par}></{box}>')
        out.append(f"</{art}>")
    out.append(f"</main><footer><{par}>{_words(rng, 6)}</{par}></footer></{page}>")
    return "".join(out)


def json_document(
    rng: random.Random, articles: int, *, paragraphs: int = 12, links: int = 24,
    english_every: int = 5,
) -> str:
    """The same site as JSON: member keys play the role of tags."""
    site = {
        "nav": [{"href": f"/section/{i}", "label": _words(rng, 2)} for i in range(links)],
        "articles": [
            {
                "id": f"a{index}",
                "lang": lang or "mul",
                "title": _words(rng, 4),
                "paragraphs": [
                    {"text": _words(rng, 8), "em": _words(rng, 2)} for _ in range(paragraphs)
                ],
                "comments": [{"text": _words(rng, 6), "votes": rng.randrange(99)} for _ in range(3)],
            }
            for index, lang in enumerate(_article_langs(rng, articles, english_every))
        ],
        "footer": {"text": _words(rng, 6)},
    }
    return json.dumps(site)


#: The path queries run against each format, cold, once per lifecycle.
DOCUMENT_PATHS = {
    "html": ("//article[@lang='en']//p", "//nav//a", "//p"),
    "xml": ("//entry[@lang='en']//para", "//index//link", "//para"),
    "json": ("//comments//text", "//nav//href", "//text"),
}

#: Articles per generated document, by rotation slot: 2k-10k nodes.
DOCUMENT_SIZES = (30, 60, 100, 150)


def documents(rng: random.Random, sizes: Sequence[int] = DOCUMENT_SIZES) -> list[tuple[str, str]]:
    """``(format, text)`` pairs, interleaving the three formats."""
    docs: list[tuple[str, str]] = []
    for articles in sizes:
        docs.append(("html", markup_document(rng, articles, html=True)))
        docs.append(("json", json_document(rng, articles)))
        docs.append(("xml", markup_document(rng, articles, html=False)))
    return docs


# -- AQL text population -------------------------------------------------------


def _interleave(groups: Sequence[Sequence[Any]]) -> list[Any]:
    """Round-robin over ``groups``, so any prefix mixes them evenly."""
    return [
        entry for row in itertools.zip_longest(*groups) for entry in row if entry is not None
    ]


def aql_candidates(rng: random.Random, cities: int) -> list[tuple[str, tuple]]:
    """A pool of distinct ``(AQL text, spec)`` pairs over the
    ``small_adhoc`` database (roots ``T``, ``family``, ``song``; extent
    ``Person``).  ``spec`` restates the query as data — ``("person", age,
    city, salary)``, ``("tree", pattern)``, ``("family", operator,
    pattern)``, ``("song", pattern)`` — so the oracle never has to parse
    AQL.  The workload keeps the first of each kind whose oracle answer
    is non-empty.

    What a query costs follows its kind and, within a kind, its pattern
    shape (``a(b ?*)`` is half the price of ``a(?* b ?*)``).  So only the
    symbols are shuffled: shapes alternate within a kind and kinds within
    the pool, and any prefix holds the same mix whatever the seed.
    """
    persons = [
        (
            f'extent Person | sselect {{age > {age} and city = "C{k}"'
            f" and salary > {100 * (age % 7)}}} | project name",
            ("person", age, f"C{k}", 100 * (age % 7)),
        )
        for age in range(18, 50)
        for k in range(cities)
    ]
    trees = [
        [
            (f'root T | sub_select "{pattern}"', ("tree", pattern))
            for a, b in itertools.product(LABELS, repeat=2)
            for pattern in [shape.format(a=a, b=b)]
        ]
        for shape in ("{a}({b} ?*)", "{a}(?* {b} ?*)", "{a}(?* {b})")
    ]
    families = [
        [
            (f'root family | {op} "{pattern}" by citizen', ("family", op, pattern))
            for a, b in itertools.product(CITIZENSHIPS, repeat=2)
            for pattern in [shape.format(a=a, b=b)]
        ]
        for shape in ("{a}(!?* {b} !?*)", "{a}(?* {b} ?*)", "{a}({b} ?*)", "{a}(?* {b})")
        for op in ("sub_select", "all_anc", "all_desc")
    ]
    songs = [
        [
            (f'root song | lsub_select "{pattern}" by pitch', ("song", pattern))
            for a, b in itertools.product(PITCHES, repeat=2)
            for pattern in [shape.format(a=a, b=b)]
        ]
        for shape in ("[{a}??{b}]", "[{a} {b}]", "[{a}?{b}]", "[{a}???{b}]", "[{a} [[C|D]]+ {b}]")
    ]
    kinds = []
    for shapes in ([persons], trees, families, songs):
        for group in shapes:
            rng.shuffle(group)
        kinds.append(_interleave(shapes))
    return _interleave(kinds)
