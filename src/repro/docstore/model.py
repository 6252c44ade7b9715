"""The document data model: DocNode payloads inside ordinary AquaTrees.

AQUA's pitch (§1, §7) is that *one* bulk-type algebra serves every
ordered workload — the paper's examples are parse trees and music, but
"structured documents" are called out as the same shape.  The docstore
takes that literally: a JSON / XML / HTML document ingests into a plain
:class:`~repro.core.aqua_tree.AquaTree` whose payloads are
:class:`DocNode` objects, and every existing operator — ``sub_select``,
``split``, ``select``, the optimizer, the node indexes, the matcher's
root first-set scan — applies unchanged.

A :class:`DocNode` is a :class:`~repro.core.identity.DatabaseObject`
(identity equality, like every AQUA payload), with a small fixed schema:

``kind``
    ``"document"`` (the synthetic wrapper root every ingested document
    gets), ``"element"`` (XML/HTML element), ``"text"`` (character
    data), ``"object"`` / ``"array"`` / ``"value"`` (the JSON shapes).
``tag``
    The element tag name — or, for JSON, the member key this node was
    reached by (``None`` for array items and the top-level value).
``text``
    Character data for ``text`` nodes (``None`` elsewhere).
``value``
    The Python scalar for JSON ``value`` nodes (``None`` elsewhere).
``attrs``
    The attribute mapping for elements (empty elsewhere).

Document *attributes* are reachable two ways: ``node.attrs["lang"]``
explicitly, and ``node.lang`` via :meth:`DocNode.__getattr__` — the
fallback makes ``Comparison("lang", "=", "en")`` (and therefore path
predicates like ``[@lang='en']``) work against the same predicate
machinery every other workload uses.  The fixed schema fields shadow
same-named attributes in that fallback; use ``attrs[...]`` for the rare
document that marks up a ``tag`` or ``kind`` attribute.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..core.aqua_tree import AquaTree, TreeNode, subtree_at
from ..core.identity import DatabaseObject

#: The attribute names the tree index is built over by default —
#: ``tag`` anchors path steps, ``kind`` serves wildcard / text() tests.
INDEXED_ATTRIBUTES = ("tag", "kind")


class DocNode(DatabaseObject):
    """One document node: a fixed structural schema plus open attrs."""

    __slots__ = ("kind", "tag", "text", "value", "attrs")

    def __init__(
        self,
        kind: str,
        *,
        tag: str | None = None,
        text: str | None = None,
        value: Any = None,
        attrs: Mapping[str, str] | None = None,
    ) -> None:
        self.kind = kind
        self.tag = tag
        self.text = text
        self.value = value
        self.attrs = dict(attrs) if attrs else {}

    def __getattr__(self, name: str) -> Any:
        # Only consulted when normal lookup fails (i.e. not a slot), so
        # document attributes surface as plain Python attributes for the
        # alphabet-predicate machinery.
        try:
            attrs = object.__getattribute__(self, "attrs")
        except AttributeError:  # during construction
            raise AttributeError(name) from None
        if name in attrs and name != "_oid":  # the identity slot shadows, unread too
            return attrs[name]
        raise AttributeError(name)

    def stored_attributes(self) -> dict[str, Any]:
        stored: dict[str, Any] = dict(self.attrs)
        stored.update(
            kind=self.kind, tag=self.tag, text=self.text, value=self.value
        )
        return stored

    def __repr__(self) -> str:
        parts = [self.kind]
        if self.tag is not None:
            parts.append(f"tag={self.tag!r}")
        if self.text is not None:
            parts.append(f"text={self.text!r}")
        if self.value is not None:
            parts.append(f"value={self.value!r}")
        if self.attrs:
            parts.append(f"attrs={self.attrs!r}")
        return f"DocNode({', '.join(parts)})"


def document_node() -> DocNode:
    """The synthetic wrapper root every ingested document gets.

    Wrapping matters for the path compiler: with a dedicated
    ``document`` root above the content, the first ``//tag`` step of a
    path is a *plain pattern match over the whole tree* (no special
    root case), and a leading child-axis step (``/html``) is "the
    wrapper's children" — both expressible with the stock operators.
    """
    return DocNode("document")


def element_subtrees(tree: AquaTree) -> Iterator[tuple[TreeNode, AquaTree]]:
    """Every (node, subtree-view) pair, document wrapper included."""
    for node in tree.nodes():
        if node.is_concat_point:
            continue
        yield node, subtree_at(node)


def doc_label(payload: Any) -> str:
    """A short human label for shell/EXPLAIN rendering."""
    if isinstance(payload, DocNode):
        if payload.kind == "element":
            return f"<{payload.tag}>"
        if payload.kind == "text":
            text = payload.text or ""
            return f"{text[:12]!r}" if len(text) <= 12 else f"{text[:12]!r}…"
        if payload.kind == "value":
            return repr(payload.value)
        return payload.tag or payload.kind
    return str(payload)
