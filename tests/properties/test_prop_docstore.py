"""Document-store properties: round-trip fidelity and mode agreement.

Two families:

* **Serialization is round-trip faithful.**  For every format,
  serialize → parse → serialize is the identity on serializer output
  (``s(p(s(t))) == s(t)``) — the canonical-form statement that survives
  whitespace/adjacent-text normalization — and the parsed tree is
  value-identical after one round trip.

* **Path queries are mode-independent.**  A random document queried
  with a random path yields bit-identical serialized results across
  matcher tables on/off × columnar backends, all agreeing with the
  ``naive_path`` reference walk — and querying never mutates the
  document (it re-serializes identically afterwards).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.core.aqua_tree import AquaTree
from repro.docstore import (
    from_html,
    from_json,
    from_xml,
    naive_path,
    to_html,
    to_json,
    to_xml,
)
from repro.docstore.model import DocNode, document_node
from repro.docstore.store import Document
from repro.storage.columnar import numpy_available

from ..reference import untabled_scope

SETTINGS = settings(max_examples=40, deadline=None)

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

MODES = [(engine, backend) for engine in ("memo", "backtrack") for backend in BACKENDS]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

_TAGS = ("div", "span", "p", "a", "section", "em", "li")
_ATTR_NAMES = ("id", "class", "lang", "href", "title")

# XML 1.0 forbids most control characters; keep text printable.
_text_content = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=16,
)
_attrs = st.dictionaries(
    st.sampled_from(_ATTR_NAMES), _text_content, max_size=3
)


def _element(tag: str, attrs: dict, children: list) -> AquaTree:
    return AquaTree.build(DocNode("element", tag=tag, attrs=attrs), children)


def _text_node(content: str) -> AquaTree:
    return AquaTree.leaf(DocNode("text", text=content))


doc_subtrees = st.recursive(
    st.builds(_text_node, _text_content),
    lambda children: st.builds(
        _element,
        st.sampled_from(_TAGS),
        _attrs,
        st.lists(children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def documents(draw):
    """A document tree: wrapper over a single root element."""
    root = draw(
        st.builds(
            _element,
            st.sampled_from(_TAGS),
            _attrs,
            st.lists(doc_subtrees, max_size=4),
        )
    )
    return AquaTree.build(document_node(), [root])


@st.composite
def paths(draw):
    """A random path over the tag/attribute vocabulary above."""
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        axis = draw(st.sampled_from(["//", "/"]))
        test = draw(st.sampled_from(list(_TAGS) + ["*"]))
        step = f"{axis}{test}"
        if draw(st.booleans()):
            attribute = draw(st.sampled_from(_ATTR_NAMES))
            if draw(st.booleans()):
                step += f"[@{attribute}]"
            else:
                value = draw(
                    st.text(
                        alphabet=st.characters(
                            min_codepoint=0x20, max_codepoint=0x7E,
                            exclude_characters="'\"[]",
                        ),
                        max_size=6,
                    )
                )
                step += f"[@{attribute}='{value}']"
        steps.append(step)
    return "".join(steps)


# ---------------------------------------------------------------------------
# Round-trip fidelity
# ---------------------------------------------------------------------------


@SETTINGS
@given(value=json_values)
def test_json_round_trip_is_identity_on_canonical_text(value):
    canonical = json.dumps(value, ensure_ascii=False, separators=(",", ":"))
    assert to_json(from_json(canonical)) == canonical


@SETTINGS
@given(tree=documents())
def test_xml_serialize_parse_serialize_is_identity(tree):
    once = to_xml(tree)
    assert to_xml(from_xml(once)) == once
    # And a second round trip is exactly stable.
    twice = to_xml(from_xml(to_xml(from_xml(once))))
    assert twice == once


@SETTINGS
@given(tree=documents())
def test_html_serialize_parse_serialize_is_identity(tree):
    once = to_html(tree)
    assert to_html(from_html(once)) == once


@SETTINGS
@given(tree=documents())
def test_formats_cross_agree_on_reparse(tree):
    """One XML round trip and one HTML round trip commute on these docs."""
    via_xml = from_xml(to_xml(tree))
    assert to_html(via_xml) == to_html(from_html(to_html(tree)))


# ---------------------------------------------------------------------------
# Path queries: mode independence + document immutability
# ---------------------------------------------------------------------------


def _rendered(results) -> list[str]:
    return sorted(to_xml(member) for member in results)


@pytest.mark.parametrize("engine,backend", MODES)
@settings(max_examples=8, deadline=None)
@given(tree=documents(), path=paths())
def test_path_results_bit_identical_across_modes(engine, backend, tree, path):
    doc = Document(tree, "xml", name="propdoc")
    before = to_xml(doc.tree)
    reference = _rendered(naive_path(doc.tree, path))
    with (
        config.columnar_scope("on"),
        config.columnar_backend_scope(backend),
        config.columnar_threshold_scope(0),
    ):
        with untabled_scope(doc.db, engine):
            got = _rendered(doc.path(path))
    assert got == reference
    # Querying is read-only: the document re-serializes identically.
    assert to_xml(doc.tree) == before


@settings(max_examples=25, deadline=None)
@given(tree=documents(), path=paths())
def test_path_agrees_with_naive_default_mode(tree, path):
    doc = Document(tree, "xml", name="propdoc")
    assert _rendered(doc.path(path)) == _rendered(naive_path(doc.tree, path))
