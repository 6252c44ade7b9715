"""Navigation and structural-information operators.

"AQUA also provides a range of other operators for purposes like
navigating, updating, and providing structural information about a tree
instance.  These operators are not discussed in this paper." (§4)

This module supplies that undiscussed-but-assumed layer: positional
access for lists, path navigation and structural measures for trees.
All operators are read-only; the updating family lives in
:mod:`repro.algebra.update`.

Paths are tuples of child indexes from the root: ``()`` is the root,
``(0, 2)`` is the third child of the first child.  Labeled NULLs are
real positions for navigation (they exist in the structure) but are
excluded from element-counting measures, consistent with §3.5.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaSet
from ..core.aqua_tree import AquaTree, TreeNode
from ..core.aqua_tuple import make_tuple
from ..errors import QueryError

Path = tuple[int, ...]


# ---------------------------------------------------------------------------
# List navigation (position-dependent access, cf. MDM [24])
# ---------------------------------------------------------------------------


def head(aqua_list: AquaList) -> Any:
    """The first element value; raises on an empty list."""
    if aqua_list.is_empty:
        raise QueryError("head of an empty list")
    return aqua_list[0]


def last(aqua_list: AquaList) -> Any:
    if aqua_list.is_empty:
        raise QueryError("last of an empty list")
    return aqua_list[-1]


def tail(aqua_list: AquaList) -> AquaList:
    """Everything after the first element (empty list stays empty)."""
    return aqua_list.sublist(1, len(aqua_list)) if len(aqua_list) else AquaList.empty()


def at(aqua_list: AquaList, position: int) -> Any:
    """The element value at ``position`` (0-based; negative allowed)."""
    try:
        return aqua_list[position]
    except IndexError:
        raise QueryError(f"position {position} out of range for length {len(aqua_list)}")


def positions(aqua_list: AquaList, predicate: Callable[[Any], bool]) -> list[int]:
    """Element positions satisfying ``predicate`` — MDM-style queries."""
    return [i for i, value in enumerate(aqua_list) if predicate(value)]


def reverse(aqua_list: AquaList) -> AquaList:
    """A reversed copy (labeled NULLs keep their relative reversal too)."""
    return AquaList(aqua_list.entries[::-1])


def zip_lists(left: AquaList, right: AquaList) -> AquaList:
    """Pairwise zip into a list of 2-tuples (shorter length wins)."""
    return AquaList.from_values(make_tuple(a, b) for a, b in zip(left, right))


def take_while(aqua_list: AquaList, predicate: Callable[[Any], bool]) -> AquaList:
    kept = []
    for value in aqua_list:
        if not predicate(value):
            break
        kept.append(value)
    return AquaList.from_values(kept)


def drop_while(aqua_list: AquaList, predicate: Callable[[Any], bool]) -> AquaList:
    values = aqua_list.value_array
    index = 0
    while index < len(values) and predicate(values[index]):
        index += 1
    return AquaList.from_values(values[index:])


# ---------------------------------------------------------------------------
# Tree navigation
# ---------------------------------------------------------------------------


def node_at(tree: AquaTree, path: Path) -> TreeNode:
    """The node reached by following ``path`` from the root."""
    node = tree.root
    if node is None:
        raise QueryError("cannot navigate an empty tree")
    for step, index in enumerate(path):
        if not 0 <= index < len(node.children):
            raise QueryError(
                f"path {path} invalid at step {step}: node has "
                f"{len(node.children)} children"
            )
        node = node.children[index]
    return node


def value_at(tree: AquaTree, path: Path) -> Any:
    return node_at(tree, path).value


def path_of(tree: AquaTree, target: TreeNode) -> Path:
    """The path from the root to ``target`` (identity comparison)."""

    def search(node: TreeNode, prefix: Path) -> Path | None:
        if node is target:
            return prefix
        for index, child in enumerate(node.children):
            found = search(child, prefix + (index,))
            if found is not None:
                return found
        return None

    if tree.root is None:
        raise QueryError("cannot navigate an empty tree")
    result = search(tree.root, ())
    if result is None:
        raise QueryError("node is not part of this tree")
    return result


def parent_of(tree: AquaTree, target: TreeNode) -> TreeNode | None:
    """The parent node (None for the root)."""
    path = path_of(tree, target)
    if not path:
        return None
    return node_at(tree, path[:-1])


def children_of(node: TreeNode) -> AquaList:
    """The node's children as a list of their element values."""
    return AquaList.from_values([c.value for c in node.children if not c.is_concat_point])


def siblings_of(tree: AquaTree, target: TreeNode) -> list[TreeNode]:
    parent = parent_of(tree, target)
    if parent is None:
        return []
    return [c for c in parent.children if c is not target]


def ancestors_of(tree: AquaTree, target: TreeNode) -> list[TreeNode]:
    """Ancestors from the root down to (excluding) ``target``."""
    path = path_of(tree, target)
    nodes = []
    for length in range(len(path)):
        nodes.append(node_at(tree, path[:length]))
    return nodes


def descendants_of(node: TreeNode) -> Iterator[TreeNode]:
    """Proper descendants in preorder."""
    stack = list(reversed(node.children))
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.children))


# ---------------------------------------------------------------------------
# Structural information
# ---------------------------------------------------------------------------


def degree(node: TreeNode) -> int:
    """Out-degree, labeled NULLs excluded."""
    return sum(1 for c in node.children if not c.is_concat_point)


def depth_of(tree: AquaTree, target: TreeNode) -> int:
    return len(path_of(tree, target))


def arity_profile(tree: AquaTree) -> dict[int, int]:
    """How many element nodes have each out-degree."""
    profile: dict[int, int] = {}
    for node in tree.element_nodes():
        d = degree(node)
        profile[d] = profile.get(d, 0) + 1
    return profile


def is_fixed_arity(tree: AquaTree, expected: int | None = None) -> bool:
    """Is every interior node of the same out-degree (§2's fixed-arity)?"""
    degrees = {degree(n) for n in tree.element_nodes() if degree(n) > 0}
    if not degrees:
        return True
    if expected is not None:
        return degrees == {expected}
    return len(degrees) == 1


def level(tree: AquaTree, depth: int) -> AquaList:
    """Element values at exactly ``depth``, left to right."""
    values: list[Any] = []

    def walk(node: TreeNode, current: int) -> None:
        if node.is_concat_point:
            return
        if current == depth:
            values.append(node.value)
            return
        for child in node.children:
            walk(child, current + 1)

    if tree.root is not None:
        walk(tree.root, 0)
    return AquaList.from_values(values)


def frontier(tree: AquaTree) -> AquaList:
    """Leaf element values in left-to-right order (the tree's yield)."""
    values = [
        node.value
        for node in tree.nodes()
        if node.is_leaf and not node.is_concat_point
    ]
    return AquaList.from_values(values)


def paths_to(tree: AquaTree, predicate: Callable[[Any], bool]) -> AquaSet:
    """The set of paths to nodes whose value satisfies ``predicate``."""
    found: list[Path] = []

    def walk(node: TreeNode, prefix: Path) -> None:
        if not node.is_concat_point and predicate(node.value):
            found.append(prefix)
        for index, child in enumerate(node.children):
            walk(child, prefix + (index,))

    if tree.root is not None:
        walk(tree.root, ())
    return AquaSet(found)
