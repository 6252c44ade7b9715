"""A synthetic scraped-document corpus for the CLAIM-DOCSTORE benchmark.

Models a scraped news site the way a crawler would hand it over: one
big HTML page per crawl — boilerplate navigation, a deep content well
of articles (a few carrying ``lang="en"``), comment threads, and a
footer.  The shape matters more than the prose:

* ~10k nodes at the default size, so walks are measurable;
* ``article`` elements are *rare* relative to total nodes and
  ``lang='en'`` articles rarer still — the selectivity regime where an
  index-anchored first step beats a full DOM walk;
* matches sit deep under noise siblings, so pruning pays.

``corpus_tree`` builds the document tree directly (deterministic for a
given seed); ``corpus_html`` serializes it, which is also how the demo
``\\doc`` corpus file is produced.
"""

from __future__ import annotations

import random

from ..core.aqua_tree import AquaTree
from .ingest import to_html
from .model import DocNode, document_node
from .store import Document

__all__ = ["corpus_tree", "corpus_html", "corpus_document"]

_WORDS = (
    "stream", "query", "index", "tree", "node", "merge", "scan", "plan",
    "cache", "shard", "split", "match", "probe", "cost", "budget", "page",
)

_LANGS = ("de", "fr", "es", "pt", "it", "nl", "pl", "sv")


def _text(rng: random.Random, words: int) -> AquaTree:
    return AquaTree.leaf(
        DocNode("text", text=" ".join(rng.choice(_WORDS) for _ in range(words)))
    )


def _element(tag: str, children: list[AquaTree], **attrs: str) -> AquaTree:
    return AquaTree.build(DocNode("element", tag=tag, attrs=attrs), children)


def _nav(rng: random.Random, links: int) -> AquaTree:
    items = [
        _element(
            "li",
            [_element("a", [_text(rng, 2)], href=f"/section/{i}")],
        )
        for i in range(links)
    ]
    return _element("nav", [_element("ul", items)])


def _comment_thread(rng: random.Random, depth: int) -> AquaTree:
    children: list[AquaTree] = [_element("p", [_text(rng, rng.randint(4, 10))])]
    if depth > 0 and rng.random() < 0.6:
        children.append(_comment_thread(rng, depth - 1))
    return _element("div", children, **{"class": "comment"})


def _article(rng: random.Random, index: int, paragraphs: int, english: bool) -> AquaTree:
    attrs = {"id": f"a{index}"}
    if english:
        attrs["lang"] = "en"
    elif rng.random() < 0.5:
        attrs["lang"] = rng.choice(_LANGS)
    body: list[AquaTree] = [_element("h1", [_text(rng, 4)])]
    for _ in range(paragraphs):
        inner: list[AquaTree] = [_text(rng, rng.randint(6, 14))]
        if rng.random() < 0.3:
            inner.append(_element("em", [_text(rng, 2)]))
            inner.append(_text(rng, 3))
        body.append(_element("p", inner))
    body.append(_element("section", [_comment_thread(rng, 2) for _ in range(3)]))
    return _element("article", body, **attrs)


def corpus_tree(
    articles: int = 150,
    paragraphs: int = 14,
    english_every: int = 20,
    seed: int = 7,
) -> AquaTree:
    """The scraped-site document tree (≈10k nodes at the defaults).

    ``english_every`` sets the benchmark's selectivity regime: 1 in 20
    articles carries ``lang='en'`` (≈5%), the "find the English articles
    on a mixed-language site" shape where the index-anchored first step
    pays off.
    """
    rng = random.Random(seed)
    sections: list[AquaTree] = []
    for index in range(articles):
        sections.append(
            _article(rng, index, paragraphs, english=index % english_every == 0)
        )
        if rng.random() < 0.25:
            sections.append(_element("aside", [_text(rng, 8)]))
    page = _element(
        "html",
        [
            _element(
                "head",
                [_element("title", [_text(rng, 3)]), _element("meta", [], charset="utf-8")],
            ),
            _element(
                "body",
                [
                    _nav(rng, 24),
                    _element("main", sections, **{"class": "content"}),
                    _element("footer", [_element("p", [_text(rng, 6)])]),
                ],
            ),
        ],
        lang="mul",
    )
    return AquaTree.build(document_node(), [page])


def corpus_html(**kwargs: object) -> str:
    """The corpus serialized as HTML (what a crawler would have saved)."""
    return to_html(corpus_tree(**kwargs))  # type: ignore[arg-type]


def corpus_document(**kwargs: object):
    """The corpus wrapped as a ready-to-query :class:`Document`."""
    return Document(corpus_tree(**kwargs), "html", name="site")  # type: ignore[arg-type]
