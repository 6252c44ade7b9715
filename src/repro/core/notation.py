"""The paper's textual notation for lists and trees (§2).

* Lists: elements in sequence surrounded by ``[]`` — ``[abc]``.
* Trees: preorder, a node followed by a parenthesized list of its
  children — ``b(d(fg)e)``.
* Concatenation points (labeled NULLs): ``@`` for the anonymous ``α``,
  ``@1``/``@2``/... for subscripted points (``α1``, ``α2``...).

The tokens are :data:`repro.lexer.NOTATION`'s, which also defines the
paper's two writing styles (:func:`use_word_mode`): *compact*
(``b(d(fg)e)``, ``[abc]`` — every lowercase letter its own symbol) and
*word* (``Mat(Ann Tom)`` — whitespace or a comma anywhere keeps runs
whole).  Quoted symbols (``'two words'`` or ``"x(y)"``) are never split
and may contain structural characters.
"""

from __future__ import annotations

from typing import Any, Callable

from ..lexer import NOTATION, Cursor, compacts, is_word, use_word_mode
from .aqua_list import AquaList
from .aqua_tree import AquaTree, TreeNode
from .concat import ConcatPoint
from .identity import as_cell

__all__ = ["format_list", "format_tree", "parse_list", "parse_tree", "use_word_mode"]


def parse_tree(text: str) -> AquaTree:
    """Parse preorder tree notation like ``b(d(fg)e)`` or ``a(@1 @2)``.

    Symbols become string payloads wrapped in fresh cells; ``@label``
    becomes a concatenation-point leaf.
    """
    cursor = Cursor(NOTATION, text)
    if cursor.at_end:
        return AquaTree.empty()
    node = cursor.parse(_tree_node)
    if not cursor.at_end:
        raise cursor.error("trailing input after tree", cursor.peek().position)
    return AquaTree(node)


def _tree_node(cursor: Cursor) -> TreeNode:
    token = cursor.next()
    if token.kind == "alpha":
        return TreeNode(ConcatPoint(token.text))
    if token.kind != "sym":
        raise cursor.error(f"expected a node symbol, found {token.text!r}", token.position)
    children: list[TreeNode] = []
    if cursor.match("lparen"):
        while not cursor.match("rparen"):
            if cursor.at_end:
                raise cursor.error("unterminated '('", token.position)
            children.append(_tree_node(cursor))
    return TreeNode(as_cell(token.text), children)


def parse_list(text: str) -> AquaList:
    """Parse list notation like ``[abc]``, ``[A B C]`` or ``[ab@1]``."""
    cursor = Cursor(NOTATION, text)
    token = cursor.next()
    if token.kind != "lbracket":
        raise cursor.error(f"expected '[' but found {token.text!r}", token.position)
    entries: list[Any] = []
    while not cursor.match("rbracket"):
        if cursor.at_end:
            raise cursor.error("unterminated '['", 0)
        token = cursor.next()
        if token.kind == "alpha":
            entries.append(ConcatPoint(token.text))
        elif token.kind == "sym":
            entries.append(token.text)
        else:
            raise cursor.error(f"unexpected {token.text!r} inside list", token.position)
    if not cursor.at_end:
        raise cursor.error("trailing input after list", cursor.peek().position)
    return AquaList.from_values(entries)


def _default_label(value: Any) -> str:
    text = str(value)
    return text


def _format_symbol(value: Any, label: Callable[[Any], str]) -> str:
    if isinstance(value, ConcatPoint):
        return str(value)
    text = label(value)
    if not is_word(text):
        return f"'{text}'"
    return text


def format_tree(tree: AquaTree, label: Callable[[Any], str] | None = None) -> str:
    """Render a tree in the paper's preorder notation.

    Multi-character symbols are space-separated so the output re-parses to
    an equal tree (word mode); single-char lowercase symbols render
    compactly, matching the paper's figures.
    """
    label = label or _default_label
    if tree.root is None:
        return "()"

    def render(node: TreeNode) -> str:
        head = _format_symbol(node.value, label)
        if not node.children:
            return head
        inner = " ".join(render(c) for c in node.children)
        return f"{head}({inner})"

    text = render(tree.root)
    return _compact_if_possible(text)


def format_list(aqua_list: AquaList, label: Callable[[Any], str] | None = None) -> str:
    """Render a list in the paper's ``[...]`` notation."""
    label = label or _default_label
    parts = []
    for entry in aqua_list.entries:
        if isinstance(entry, ConcatPoint):
            parts.append(str(entry))
        else:
            parts.append(_format_symbol(entry.contents, label))
    text = "[" + " ".join(parts) + "]"
    return _compact_if_possible(text)


def _compact_if_possible(text: str) -> str:
    """Drop separating spaces when every symbol is a single lowercase char.

    This reproduces the paper's compact style (``b(d(f g)e)`` prints as
    ``b(d(fg)e)`` only when unambiguous, i.e. no multi-char symbols, no
    quotes and no concatenation points).
    """
    return text.replace(" ", "") if compacts(text) else text
