"""The AQUA ``Tree[T]`` bulk type (paper §2, §3.5).

A tree is a set of nodes ``V`` plus, per node, an *ordered* list of
children (the paper's set-of-lists of directed edges ``E``).  Edges are
directed away from the root and children are ordered left to right.
Variable arity is the norm: nothing constrains out-degree.

Nodes are cells (:class:`~repro.core.identity.Cell`) so that the same
element object may occur at several nodes, or they are *concatenation
points* — labeled NULLs that only the concatenation operator can observe
(§3.5).  Trees are value-like: operations never mutate an input tree; they
return new trees whose nodes may share payload objects with the input.

The preorder text notation of the paper (``b(d(fg)e)``) is implemented in
:mod:`repro.core.notation`; this module only knows how to *format* it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import ConcatenationError
from .concat import NIL, ConcatPoint, Nil, is_concat_point
from .identity import Cell, as_cell, deref


class TreeNode:
    """One node of an :class:`AquaTree`.

    ``item`` is either a :class:`Cell` (a real element) or a
    :class:`ConcatPoint` (a labeled NULL, necessarily a leaf).
    """

    __slots__ = ("item", "children")

    def __init__(self, item: Cell | ConcatPoint, children: Sequence["TreeNode"] = ()) -> None:
        if is_concat_point(item) and children:
            raise ConcatenationError("a concatenation point must be a leaf")
        self.item = item
        self.children = list(children)

    @property
    def is_concat_point(self) -> bool:
        return is_concat_point(self.item)

    @property
    def value(self) -> Any:
        """The dereferenced element (or the :class:`ConcatPoint` itself)."""
        if is_concat_point(self.item):
            return self.item
        return deref(self.item)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeNode({self.value!r}, children={len(self.children)})"


def _node(payload: Any, children: Sequence[TreeNode] = ()) -> TreeNode:
    """Build a node, wrapping payloads in fresh cells as needed."""
    if isinstance(payload, ConcatPoint):
        return TreeNode(payload)
    return TreeNode(as_cell(payload), children)


class TreeLayout:
    """The preorder numbering of one tree: built once, read by everyone.

    ``nodes`` is every node in preorder (concatenation points included,
    so positions match ``enumerate(tree.nodes())``); ``position`` and
    ``children_position`` map ``id(node)`` / ``id(node.children)`` to
    that position; ``parent`` (``-1`` at the root), ``depth`` and ``end``
    are arrays over positions, ``end[p]`` being one past the last
    position in ``p``'s subtree — so ``a`` is an ancestor of ``b`` iff
    ``a < b < end[a]``.  Everything here is read-only to consumers; the
    ``nodes`` tuple keeps every interned id alive.
    """

    __slots__ = (
        "nodes",
        "position",
        "children_position",
        "parent",
        "depth",
        "end",
        "element_count",
    )

    def __init__(self, root: "TreeNode | None") -> None:
        nodes: list[TreeNode] = []
        position: dict[int, int] = {}
        children_position: dict[int, int] = {}
        parent: list[int] = []
        depth: list[int] = []
        points = 0
        stack = [(root, -1, 0)] if root is not None else []
        pop = stack.pop
        while stack:
            node, above, level = pop()
            here = len(nodes)
            nodes.append(node)
            parent.append(above)
            depth.append(level)
            position[id(node)] = here
            children = node.children
            children_position[id(children)] = here
            if children:
                level += 1
                stack.extend([(child, here, level) for child in reversed(children)])
            elif isinstance(node.item, ConcatPoint):
                points += 1
        # Preorder puts a subtree's last node at its largest position, so
        # one reverse sweep pushes every node's end up into its parent.
        end = list(range(1, len(nodes) + 1))
        for here in range(len(nodes) - 1, 0, -1):
            above = parent[here]
            if end[here] > end[above]:
                end[above] = end[here]
        self.nodes = tuple(nodes)
        self.position = position
        self.children_position = children_position
        self.parent = parent
        self.depth = depth
        self.end = end
        self.element_count = len(nodes) - points


class AquaTree:
    """An ordered, variable-arity tree of cells; possibly empty.

    The empty tree (``root is None``) plays the role of NULL when a
    concatenation closes off a point with :data:`~repro.core.concat.NIL`.
    """

    __slots__ = ("root", "_size", "_hash", "_layout")

    def __init__(self, root: TreeNode | None = None) -> None:
        self.root = root
        self._size: int | None = None
        self._hash: int | None = None
        self._layout: TreeLayout | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def build(cls, payload: Any, children: Iterable["AquaTree | TreeNode | Any"] = ()) -> "AquaTree":
        """Build a tree from a payload and child trees/payloads.

        Children may be :class:`AquaTree` instances, bare :class:`TreeNode`
        instances, or raw payloads (which become leaves).  Child trees are
        *not* copied — callers building bottom-up hand over ownership, the
        idiomatic construction pattern throughout the workloads.
        """
        child_nodes: list[TreeNode] = []
        for child in children:
            if isinstance(child, AquaTree):
                if child.root is None:
                    continue
                child_nodes.append(child.root)
            elif isinstance(child, TreeNode):
                child_nodes.append(child)
            else:
                child_nodes.append(_node(child))
        return cls(_node(payload, child_nodes))

    @classmethod
    def leaf(cls, payload: Any) -> "AquaTree":
        return cls(_node(payload))

    @classmethod
    def concat_leaf(cls, point: ConcatPoint) -> "AquaTree":
        """A tree consisting of a single labeled NULL."""
        return cls(TreeNode(point))

    @classmethod
    def empty(cls) -> "AquaTree":
        return cls(None)

    @classmethod
    def from_nested(cls, nested: Any) -> "AquaTree":
        """Build from nested tuples: ``("a", [("b", []), "c"])`` or scalars."""
        if isinstance(nested, tuple) and len(nested) == 2 and isinstance(nested[1], (list, tuple)):
            payload, children = nested
            return cls.build(payload, [cls.from_nested(c) for c in children])
        return cls.leaf(nested)

    # -- inspection --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.root is None

    def nodes(self) -> Iterator[TreeNode]:
        """Preorder traversal over all nodes (concatenation points included)."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def element_nodes(self) -> Iterator[TreeNode]:
        """Preorder traversal skipping labeled NULLs — what queries see."""
        return (n for n in self.nodes() if not n.is_concat_point)

    def edges(self) -> Iterator[tuple[TreeNode, TreeNode]]:
        for node in self.nodes():
            for child in node.children:
                yield (node, child)

    def values(self) -> Iterator[Any]:
        """Preorder element values (cells dereferenced; NULLs skipped)."""
        return (n.value for n in self.element_nodes())

    def size(self) -> int:
        """Number of element nodes (labeled NULLs are not elements).

        Cached after the first walk (or by :meth:`layout`, whichever
        comes first): trees are value-like (operations
        return new trees rather than mutating), so the count is stable
        for any published tree.  Builders that do edit node structures
        in place (the workload generators) must finish before handing
        the tree out — the contract this cache leans on.
        """
        if self._size is None:
            self._size = sum(1 for _ in self.element_nodes())
        return self._size

    def layout(self) -> TreeLayout:
        """The tree's preorder numbering — the only place nodes get one.

        Built iteratively on first use and cached under the same contract
        as :meth:`size` (in-place builders finish before publishing the
        tree).  Two threads racing the first call each build an equal
        layout and one wins the slot: wasted work, never a wrong answer.
        Node indexes, columnar extents and match contexts all read this
        one object, so a tree is traversed once however many of them it
        gets — and whichever database wraps it.
        """
        layout = self._layout
        if layout is None:
            layout = self._layout = TreeLayout(self.root)
            self._size = layout.element_count
        return layout

    def height(self) -> int:
        """Length of the longest root-to-leaf path in edges; empty tree = -1."""
        if self.root is None:
            return -1

        height = -1
        stack: list[tuple[TreeNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            height = max(height, depth)
            stack.extend((child, depth + 1) for child in node.children)
        return height

    def leaves(self) -> Iterator[TreeNode]:
        return (n for n in self.nodes() if n.is_leaf)

    def concat_points(self) -> list[ConcatPoint]:
        """All labeled NULLs present, in preorder."""
        return [n.item for n in self.nodes() if n.is_concat_point]

    def parent_map(self) -> dict[int, TreeNode | None]:
        """Map ``id(node) -> parent node`` (None for the root)."""
        parents: dict[int, TreeNode | None] = {}
        if self.root is None:
            return parents
        parents[id(self.root)] = None
        for node in self.nodes():
            for child in node.children:
                parents[id(child)] = node
        return parents

    def find(self, predicate: Callable[[Any], bool]) -> Iterator[TreeNode]:
        """Element nodes whose dereferenced value satisfies ``predicate``."""
        return (n for n in self.element_nodes() if predicate(n.value))

    # -- copying -----------------------------------------------------------

    def clone(self, fresh_cells: bool = False) -> "AquaTree":
        """Structurally copy the tree.

        With ``fresh_cells=False`` the copy shares cell objects with the
        original (payload identity preserved); with ``fresh_cells=True``
        every element node gets a new cell referencing the same contents —
        required when one subtree is inserted at several concatenation
        points, so node sets stay duplicate-free.
        """
        if self.root is None:
            return AquaTree(None)
        return AquaTree(_clone_node(self.root, fresh_cells))

    # -- concatenation (∘α), paper §3.3/§3.5 -------------------------------

    def concat(self, point: ConcatPoint, other: "AquaTree | Nil") -> "AquaTree":
        """``self ∘α other``: plug ``other`` in at every ``α``-labeled NULL.

        * If ``self`` has no NULL labeled ``α``, the result is ``self``
          (paper: "the result is just the first tree").
        * Concatenating :data:`NIL` (or an empty tree) deletes the labeled
          leaf.
        * When several leaves carry the label, each occurrence receives its
          own fresh-cell copy of ``other``.
        """
        if self.root is None:
            return AquaTree(None)
        if isinstance(other, Nil):
            other_tree: AquaTree = AquaTree(None)
        elif isinstance(other, AquaTree):
            other_tree = other
        else:
            raise ConcatenationError(f"cannot concatenate {type(other).__name__} into a tree")

        inserted = 0

        def rebuild(node: TreeNode) -> TreeNode | None:
            nonlocal inserted
            if node.is_concat_point and node.item == point:
                if other_tree.root is None:
                    return None
                inserted += 1
                # First insertion may share cells; later ones need fresh
                # cells so the result's node set stays a set.
                return _clone_node(other_tree.root, fresh_cells=inserted > 1)
            children = []
            for child in node.children:
                rebuilt = rebuild(child)
                if rebuilt is not None:
                    children.append(rebuilt)
            return TreeNode(node.item, children)

        new_root = rebuild(self.root)
        return AquaTree(new_root)

    def concat_many(self, assignments: Sequence[tuple[ConcatPoint, "AquaTree | Nil"]]) -> "AquaTree":
        """Left-to-right sequence of concatenations: ``t ∘α1 u1 ∘α2 u2 ...``.

        When the assignments are independent — distinct labels, and no
        plugged subtree carries a label a *later* assignment targets —
        all points are filled in one rebuild pass instead of rebuilding
        the growing result once per assignment (split reassembly plugs
        every pruned subtree back, so the sequential form is quadratic
        exactly where it is hottest).  Dependent sequences keep the
        literal left-to-right semantics.
        """
        assignments = list(assignments)
        if len(assignments) <= 1 or self.root is None:
            result = self
            for point, subtree in assignments:
                result = result.concat(point, subtree)
            return result

        labels = [point for point, _ in assignments]
        independent = len(set(labels)) == len(labels)
        if independent:
            for index, (_, subtree) in enumerate(assignments[:-1]):
                if isinstance(subtree, AquaTree) and not subtree.is_empty:
                    later = set(labels[index + 1 :])
                    if any(p in later for p in subtree.concat_points()):
                        independent = False
                        break
        if not independent:
            result = self
            for point, subtree in assignments:
                result = result.concat(point, subtree)
            return result

        plugged: dict[ConcatPoint, AquaTree] = {}
        for point, subtree in assignments:
            if isinstance(subtree, Nil):
                plugged[point] = AquaTree(None)
            elif isinstance(subtree, AquaTree):
                plugged[point] = subtree
            else:
                raise ConcatenationError(
                    f"cannot concatenate {type(subtree).__name__} into a tree"
                )
        inserted: dict[ConcatPoint, int] = {}

        def rebuild(node: TreeNode) -> TreeNode | None:
            if node.is_concat_point and node.item in plugged:
                target = plugged[node.item]
                if target.root is None:
                    return None
                count = inserted.get(node.item, 0) + 1
                inserted[node.item] = count
                # First insertion may share cells; later ones need fresh
                # cells so the result's node set stays a set.
                return _clone_node(target.root, fresh_cells=count > 1)
            children = []
            for child in node.children:
                rebuilt = rebuild(child)
                if rebuilt is not None:
                    children.append(rebuilt)
            return TreeNode(node.item, children)

        return AquaTree(rebuild(self.root))

    def close_points(self, points: Iterable[ConcatPoint] | None = None) -> "AquaTree":
        """Concatenate NULL into the given points (all points if None).

        This is the paper's ``b ∘α1,...,αn []`` shorthand used to define
        ``sub_select`` from ``split``.
        """
        targets = set(points) if points is not None else set(self.concat_points())
        result = self
        for point in targets:
            result = result.concat(point, NIL)
        return result

    # -- equality and display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AquaTree):
            return NotImplemented
        return _nodes_equal(self.root, other.root)

    def __hash__(self) -> int:
        # Cached under the same value-like contract as ``size()``: trees
        # handed to set operations are no longer mutated in place, and
        # hash-based dedup hashes the same subtree many times.
        if self._hash is None:
            self._hash = hash(("AquaTree", _node_key(self.root)))
        return self._hash

    def __repr__(self) -> str:
        from .notation import format_tree

        return f"AquaTree({format_tree(self)})"

    def to_notation(self, label: Callable[[Any], str] | None = None) -> str:
        from .notation import format_tree

        return format_tree(self, label=label)


def _clone_node(node: TreeNode, fresh_cells: bool) -> TreeNode:
    if node.is_concat_point:
        item: Cell | ConcatPoint = node.item
    elif fresh_cells:
        item = Cell(node.item.contents)  # type: ignore[union-attr]
    else:
        item = node.item
    return TreeNode(item, [_clone_node(c, fresh_cells) for c in node.children])


def _values_equal(a: Any, b: Any) -> bool:
    if isinstance(a, ConcatPoint) or isinstance(b, ConcatPoint):
        return a == b
    return bool(a == b)


def _nodes_equal(a: TreeNode | None, b: TreeNode | None) -> bool:
    # Iterative pairwise preorder walk: deep (list-like) trees must not
    # overflow the recursion limit.
    if a is None or b is None:
        return a is None and b is None
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if not _values_equal(x.value, y.value):
            return False
        if len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def _node_key(node: TreeNode | None) -> Any:
    """A flat, hashable preorder serialization: ``(head, arity)`` pairs.

    Flat (rather than nested) so that hashing a deep list-like tree does
    not recurse; two trees are equal iff their serializations are.
    """
    if node is None:
        return None
    # Hot path for set dedup: the item/deref properties are inlined and
    # the loop bound to locals — this runs once per node of every tree a
    # set operation hashes.
    parts: list[Any] = []
    append = parts.append
    stack = [node]
    pop = stack.pop
    extend = stack.extend
    while stack:
        current = pop()
        item = current.item
        children = current.children
        if type(item) is Cell:
            value = item.contents
        elif isinstance(item, ConcatPoint):
            append((("@", item.label), len(children)))
            continue
        else:
            value = deref(item)
        try:
            hash(value)
        except TypeError:
            head: Any = repr(value)
        else:
            head = value
        append((head, len(children)))
        if children:
            extend(reversed(children))
    return tuple(parts)


def subtree_at(node: TreeNode) -> AquaTree:
    """View the subtree rooted at ``node`` as a tree (no copying)."""
    return AquaTree(node)


def tree(payload: Any, *children: "AquaTree | Any") -> AquaTree:
    """The paper's ``tree`` constructor operator (used in the §5 rewrite)."""
    return AquaTree.build(payload, children)
