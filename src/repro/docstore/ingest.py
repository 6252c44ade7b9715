"""Ingestion adapters: JSON / XML / HTML text ⇄ document AquaTrees.

Each ``from_*`` parser (stdlib only: :mod:`json`, :mod:`xml.etree`,
:mod:`html.parser`) produces a plain :class:`~repro.core.aqua_tree.AquaTree`
of :class:`~repro.docstore.model.DocNode` payloads under a synthetic
``document`` wrapper root; each ``to_*`` serializer walks such a tree
back to text.  A parser builds the tree's nodes — each a cell over its
payload (§2), nothing more — and wraps the root alone in an ``AquaTree``.

Round-trip fidelity is defined over the **canonical form**: the
serializers are normalizing (attribute quoting, entity escaping, JSON
separators), so ``to_x(from_x(text))`` may differ from hand-written
input — but re-ingesting canonical output reproduces it *bit for bit*::

    canonical = to_xml(from_xml(text))
    assert to_xml(from_xml(canonical)) == canonical

(the property the hypothesis suite drives across the tabled and
untabled matcher).  Information outside the canonical form — comments,
doctypes, insignificant attribute quoting — is dropped at ingestion;
element order, text (whitespace included), attributes, and JSON member
order are preserved exactly.

XML and HTML are read and written off explicit stacks, so depth alone
refuses neither; :func:`json.loads` / :func:`json.dumps` recurse in C.
Malformed text, and JSON nested past them, raise :class:`~repro.errors.QueryError`
naming the format (and the parser's line and column, if it gives them).
"""

from __future__ import annotations

import functools
import json
from html import escape as _html_escape
from html.parser import HTMLParser
from typing import Any
from xml.etree import ElementTree
from xml.sax.saxutils import escape as _xml_escape
from xml.sax.saxutils import quoteattr as _xml_quoteattr

from ..core.aqua_tree import AquaTree, TreeNode
from ..core.concat import ConcatPoint
from ..core.identity import Cell
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


def _reported(fmt: str, verb: str) -> Any:
    """Wrap a parser / serializer so each of its failures raises ``QueryError``."""

    def decorate(function: Any) -> Any:
        @functools.wraps(function)
        def wrapped(argument: Any) -> Any:
            try:
                return function(argument)
            except RecursionError:
                raise QueryError(f"cannot {verb} {fmt}: the document nests too deeply") from None
            except (ElementTree.ParseError, json.JSONDecodeError) as exc:
                raise QueryError(f"cannot {verb} {fmt}: {exc}") from None

        return wrapped

    return decorate


def _doc_value(node: TreeNode) -> DocNode:
    item = node.item
    value = item.contents if type(item) is Cell else node.value
    if not isinstance(value, DocNode):
        raise QueryError(
            f"expected a document tree of DocNode payloads, found {value!r}"
        )
    return value


def _element_children(node: TreeNode) -> list[TreeNode]:
    return [child for child in node.children if not isinstance(child.item, ConcatPoint)]


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


@_reported("JSON", "parse")
def from_json(text: str) -> AquaTree:
    """Parse JSON text into a document tree.

    Objects become ``object`` nodes whose children carry the member key
    in ``tag`` (member order preserved); arrays become ``array`` nodes;
    scalars become ``value`` nodes.  Path queries address members by
    key: ``//price`` finds every member named ``price`` at any depth.
    """
    return AquaTree(TreeNode(Cell(document_node()), [_json_node(json.loads(text), None)]))


def _json_node(value: Any, key: str | None) -> TreeNode:
    if isinstance(value, dict):
        return TreeNode(
            Cell(DocNode("object", tag=key)),
            [_json_node(member, name) for name, member in value.items()],
        )
    if isinstance(value, list):
        return TreeNode(
            Cell(DocNode("array", tag=key)), [_json_node(item, None) for item in value]
        )
    return TreeNode(Cell(DocNode("value", tag=key, value=value)))


@_reported("JSON", "serialize")
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


@_reported("XML", "parse")
def from_xml(text: str) -> AquaTree:
    """Parse XML text into a document tree.

    Elements keep tag, attributes (document order), and *all* character
    data — whitespace-only text included, so layout survives the round
    trip.  Comments, processing instructions, and the XML declaration
    are outside the canonical form and dropped.
    """
    return AquaTree(TreeNode(Cell(document_node()), [_xml_node(ElementTree.fromstring(text))]))


def _xml_node(root: ElementTree.Element) -> TreeNode:
    """``root``'s subtree: one node per element (``iter`` walks them in C,
    with no recursion here), then each element's children wired in —
    its leading text, then each child element and that child's tail."""
    nodes = {element: _xml_element(element) for element in root.iter()}
    for element, node in nodes.items():
        for child in element:
            node.children.append(nodes[child])
            if child.tail:
                node.children.append(TreeNode(Cell(DocNode("text", text=child.tail))))
    return nodes[root]


def _xml_element(element: ElementTree.Element) -> TreeNode:
    children = [TreeNode(Cell(DocNode("text", text=element.text)))] if element.text else []
    return TreeNode(Cell(DocNode("element", tag=element.tag, attrs=element.attrib)), children)


@_reported("XML", "serialize")
def to_xml(tree: AquaTree) -> str:
    """Serialize a document tree (or subtree) back to canonical XML."""
    parts: list[str] = []
    _write_xml(_content_root(tree), parts)
    return "".join(parts)


def _write_xml(root: TreeNode, parts: list[str]) -> None:
    """Append ``root``'s canonical XML to ``parts`` off an explicit stack
    of nodes still to write and ``(start index, head, tag)`` elements
    still to close."""
    stack: list[Any] = [root]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            start, head, tag = node
            # The empty-tag form keys off serialized *content*, not child
            # count: children that render to nothing (an empty text node)
            # would otherwise break serialize→parse→serialize idempotence.
            if len(parts) == start + 1:
                parts[start] = f"{head} />"
            else:
                parts.append(f"</{tag}>")
            continue
        payload = _doc_value(node)
        if payload.kind == "text":
            if payload.text:
                parts.append(_xml_escape(payload.text))
            continue
        if payload.kind != "element":
            raise QueryError(f"cannot serialize {payload.kind!r} node as XML")
        attrs = "".join(
            f" {name}={_xml_quoteattr(value)}" for name, value in payload.attrs.items()
        )
        head = f"<{payload.tag}{attrs}"
        stack.append((len(parts), head, payload.tag))
        parts.append(f"{head}>")
        stack.extend(reversed(_element_children(node)))


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
        self._stack: list[tuple[DocNode, list[TreeNode]]] = [
            (document_node(), [])
        ]

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        node = DocNode(
            "element",
            tag=tag,
            attrs={name: value for name, value in attrs},
        )
        if tag in VOID_ELEMENTS:
            self._stack[-1][1].append(TreeNode(Cell(node)))
        else:
            self._stack.append((node, []))

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        # ``<tag/>`` XML-style self-closing — canonicalized as void-like.
        self._stack[-1][1].append(
            TreeNode(Cell(DocNode("element", tag=tag, attrs={n: v for n, v in attrs})))
        )

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_ELEMENTS:
            return  # e.g. a spurious ``</br>``
        open_tags = [payload.tag for payload, _ in self._stack[1:]]
        if tag not in open_tags:
            return  # stray end tag: ignore (browser-style leniency)
        while True:
            payload, children = self._stack.pop()
            self._stack[-1][1].append(TreeNode(Cell(payload), children))
            if payload.tag == tag:
                break

    def handle_data(self, data: str) -> None:
        if data:
            self._stack[-1][1].append(TreeNode(Cell(DocNode("text", text=data))))

    def finish(self) -> AquaTree:
        while len(self._stack) > 1:  # unclosed elements at EOF
            payload, children = self._stack.pop()
            self._stack[-1][1].append(TreeNode(Cell(payload), children))
        wrapper, children = self._stack[0]
        return AquaTree(TreeNode(Cell(wrapper), children))


@_reported("HTML", "parse")
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


@_reported("HTML", "serialize")
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


def _write_html(root: TreeNode, parts: list[str]) -> None:
    """Append ``root``'s canonical HTML to ``parts`` off an explicit stack
    of end tags and (node, inside a raw-text element) pairs still to write."""
    stack: list[Any] = [(root, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, raw = item
        payload = _doc_value(node)
        if payload.kind == "text":
            text = payload.text or ""
            parts.append(text if raw else _html_escape(text, quote=False))
            continue
        if payload.kind != "element":
            raise QueryError(f"cannot serialize {payload.kind!r} node as HTML")
        attrs = "".join(
            f" {name}" if value is None else f' {name}="{_html_escape(value, quote=True)}"'
            for name, value in payload.attrs.items()
        )
        parts.append(f"<{payload.tag}{attrs}>")
        if payload.tag in VOID_ELEMENTS:
            continue
        stack.append(f"</{payload.tag}>")
        raw = payload.tag in _RAWTEXT_ELEMENTS
        stack.extend((child, raw) for child in reversed(_element_children(node)))
