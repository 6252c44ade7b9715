"""Ingestion adapters: JSON / XML / HTML text ⇄ document AquaTrees.

Each ``from_*`` parser (stdlib only: :mod:`json`, :mod:`xml.etree`,
:mod:`html.parser`) produces a plain :class:`~repro.core.aqua_tree.AquaTree`
of :class:`~repro.docstore.model.DocNode` payloads under a synthetic
``document`` wrapper root; each ``to_*`` serializer walks such a tree
back to text.

Round-trip fidelity is defined over the **canonical form**: the
serializers are normalizing (attribute quoting, entity escaping, JSON
separators), so ``to_x(from_x(text))`` may differ from hand-written
input — but re-ingesting canonical output reproduces it *bit for bit*::

    canonical = to_xml(from_xml(text))
    assert to_xml(from_xml(canonical)) == canonical

(the property the hypothesis suite drives across engines × columnar
backends).  Information outside the canonical form — comments,
doctypes, insignificant attribute quoting — is dropped at ingestion;
element order, text (whitespace included), attributes, and JSON member
order are preserved exactly.
"""

from __future__ import annotations

import json
from html import escape as _html_escape
from html.parser import HTMLParser
from typing import Any
from xml.etree import ElementTree
from xml.sax.saxutils import escape as _xml_escape
from xml.sax.saxutils import quoteattr as _xml_quoteattr

from ..core.aqua_tree import AquaTree, TreeNode
from ..errors import QueryError
from .model import DocNode, document_node

__all__ = [
    "from_json",
    "to_json",
    "from_xml",
    "to_xml",
    "from_html",
    "to_html",
    "VOID_ELEMENTS",
]


def _doc_value(node: TreeNode) -> DocNode:
    value = node.value
    if not isinstance(value, DocNode):
        raise QueryError(
            f"expected a document tree of DocNode payloads, found {value!r}"
        )
    return value


def _element_children(node: TreeNode) -> list[TreeNode]:
    return [child for child in node.children if not child.is_concat_point]


def _content_root(tree: AquaTree) -> TreeNode:
    """The single content child under the ``document`` wrapper."""
    if tree.root is None:
        raise QueryError("cannot serialize an empty document tree")
    root_value = _doc_value(tree.root)
    if root_value.kind == "document":
        children = _element_children(tree.root)
        if len(children) != 1:
            raise QueryError(
                f"document wrapper must hold exactly one content root,"
                f" found {len(children)}"
            )
        return children[0]
    return tree.root  # already a content subtree (e.g. a path-query result)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def from_json(text: str) -> AquaTree:
    """Parse JSON text into a document tree.

    Objects become ``object`` nodes whose children carry the member key
    in ``tag`` (member order preserved); arrays become ``array`` nodes;
    scalars become ``value`` nodes.  Path queries address members by
    key: ``//price`` finds every member named ``price`` at any depth.
    """
    return AquaTree.build(document_node(), [_json_subtree(json.loads(text), None)])


def _json_subtree(value: Any, key: str | None) -> AquaTree:
    if isinstance(value, dict):
        return AquaTree.build(
            DocNode("object", tag=key),
            [_json_subtree(member, name) for name, member in value.items()],
        )
    if isinstance(value, list):
        return AquaTree.build(
            DocNode("array", tag=key),
            [_json_subtree(item, None) for item in value],
        )
    return AquaTree.leaf(DocNode("value", tag=key, value=value))


def to_json(tree: AquaTree) -> str:
    """Serialize a document tree (or subtree) back to canonical JSON."""
    return json.dumps(
        _json_value(_content_root(tree)), ensure_ascii=False, separators=(",", ":")
    )


def _json_value(node: TreeNode) -> Any:
    payload = _doc_value(node)
    if payload.kind == "object":
        return {
            _doc_value(child).tag: _json_value(child)
            for child in _element_children(node)
        }
    if payload.kind == "array":
        return [_json_value(child) for child in _element_children(node)]
    if payload.kind == "value":
        return payload.value
    raise QueryError(f"cannot serialize {payload.kind!r} node as JSON")


# ---------------------------------------------------------------------------
# XML
# ---------------------------------------------------------------------------


def from_xml(text: str) -> AquaTree:
    """Parse XML text into a document tree.

    Elements keep tag, attributes (document order), and *all* character
    data — whitespace-only text included, so layout survives the round
    trip.  Comments, processing instructions, and the XML declaration
    are outside the canonical form and dropped.
    """
    return AquaTree.build(
        document_node(), [_xml_subtree(ElementTree.fromstring(text))]
    )


def _xml_subtree(element: ElementTree.Element) -> AquaTree:
    children: list[AquaTree] = []
    if element.text:
        children.append(AquaTree.leaf(DocNode("text", text=element.text)))
    for child in element:
        children.append(_xml_subtree(child))
        if child.tail:
            children.append(AquaTree.leaf(DocNode("text", text=child.tail)))
    return AquaTree.build(
        DocNode("element", tag=element.tag, attrs=dict(element.attrib)), children
    )


def to_xml(tree: AquaTree) -> str:
    """Serialize a document tree (or subtree) back to canonical XML."""
    parts: list[str] = []
    _write_xml(_content_root(tree), parts)
    return "".join(parts)


def _write_xml(node: TreeNode, parts: list[str]) -> None:
    payload = _doc_value(node)
    if payload.kind == "text":
        parts.append(_xml_escape(payload.text or ""))
        return
    if payload.kind != "element":
        raise QueryError(f"cannot serialize {payload.kind!r} node as XML")
    attrs = "".join(
        f" {name}={_xml_quoteattr(value)}" for name, value in payload.attrs.items()
    )
    inner: list[str] = []
    for child in _element_children(node):
        _write_xml(child, inner)
    content = "".join(inner)
    # The empty-tag form keys off serialized *content*, not child count:
    # children that render to nothing (an empty text node) would
    # otherwise break serialize→parse→serialize idempotence.
    if not content:
        parts.append(f"<{payload.tag}{attrs} />")
        return
    parts.append(f"<{payload.tag}{attrs}>")
    parts.append(content)
    parts.append(f"</{payload.tag}>")


# ---------------------------------------------------------------------------
# HTML
# ---------------------------------------------------------------------------

#: Elements the HTML standard closes implicitly (never get end tags).
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "source", "track", "wbr",
    }
)

#: Raw-text elements: the parser reads their content verbatim (no
#: character references), so the serializer must not escape it either.
_RAWTEXT_ELEMENTS = frozenset({"script", "style"})


class _HtmlBuilder(HTMLParser):
    """Builds (payload, children) frames; lenient about stray end tags."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._stack: list[tuple[DocNode, list[AquaTree]]] = [
            (document_node(), [])
        ]

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        node = DocNode(
            "element",
            tag=tag,
            attrs={name: value for name, value in attrs},
        )
        if tag in VOID_ELEMENTS:
            self._stack[-1][1].append(AquaTree.leaf(node))
        else:
            self._stack.append((node, []))

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        # ``<tag/>`` XML-style self-closing — canonicalized as void-like.
        self._stack[-1][1].append(
            AquaTree.leaf(
                DocNode("element", tag=tag, attrs={n: v for n, v in attrs})
            )
        )

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_ELEMENTS:
            return  # e.g. a spurious ``</br>``
        open_tags = [payload.tag for payload, _ in self._stack[1:]]
        if tag not in open_tags:
            return  # stray end tag: ignore (browser-style leniency)
        while True:
            payload, children = self._stack.pop()
            self._stack[-1][1].append(AquaTree.build(payload, children))
            if payload.tag == tag:
                break

    def handle_data(self, data: str) -> None:
        if data:
            self._stack[-1][1].append(AquaTree.leaf(DocNode("text", text=data)))

    def finish(self) -> AquaTree:
        while len(self._stack) > 1:  # unclosed elements at EOF
            payload, children = self._stack.pop()
            self._stack[-1][1].append(AquaTree.build(payload, children))
        wrapper, children = self._stack[0]
        return AquaTree.build(wrapper, children)


def from_html(text: str) -> AquaTree:
    """Parse HTML text into a document tree.

    Browser-lenient: void elements (``<br>``, ``<img>``, ...) never
    nest, stray end tags are ignored, unclosed elements close at EOF,
    and character references decode to text.  Comments and the doctype
    are outside the canonical form and dropped.  Unlike XML, the wrapper
    may hold several top-level nodes (text around ``<html>`` etc.).
    """
    builder = _HtmlBuilder()
    builder.feed(text)
    builder.close()
    return builder.finish()


def to_html(tree: AquaTree) -> str:
    """Serialize a document tree (or subtree) back to canonical HTML."""
    parts: list[str] = []
    if tree.root is None:
        return ""
    root_value = _doc_value(tree.root)
    roots = (
        _element_children(tree.root)
        if root_value.kind == "document"
        else [tree.root]
    )
    for node in roots:
        _write_html(node, parts)
    return "".join(parts)


def _write_html(node: TreeNode, parts: list[str], raw: bool = False) -> None:
    payload = _doc_value(node)
    if payload.kind == "text":
        text = payload.text or ""
        parts.append(text if raw else _html_escape(text, quote=False))
        return
    if payload.kind != "element":
        raise QueryError(f"cannot serialize {payload.kind!r} node as HTML")
    attrs = "".join(
        f" {name}" if value is None else f' {name}="{_html_escape(value, quote=True)}"'
        for name, value in payload.attrs.items()
    )
    parts.append(f"<{payload.tag}{attrs}>")
    if payload.tag in VOID_ELEMENTS:
        return
    for child in _element_children(node):
        _write_html(child, parts, raw=payload.tag in _RAWTEXT_ELEMENTS)
    parts.append(f"</{payload.tag}>")
