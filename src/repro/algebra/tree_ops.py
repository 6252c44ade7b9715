"""Tree query operators (paper §4).

Two families:

* common to all bulk types — :func:`select`, :func:`apply_tree`;
* specific to ordered bulk types — :func:`split`, :func:`sub_select`,
  :func:`all_anc`, :func:`all_desc` (all pattern-driven).

``split`` is the primitive: "it allows us to break up a tree and put it
back together later".  For each match it produces

* ``x`` — the input with the match's subtree excised and a fresh ``α``
  marking the attachment point ("all ancestors of the match and their
  descendants (except the match itself)"),
* ``y`` — the match, with ``α1..αn`` where subtrees were pruned,
* ``z`` — the list of pruned subtrees ``[t1..tn]``,

and applies the caller's 3-place function.  The reassembly invariant
``x ∘α (y ∘α1 z1 ... ∘αn zn) = T`` (the formal definition in §4) is
property-tested in the suite and used by :func:`reassemble`.

All operators are **stable**: the relative order/ancestry of surviving
nodes is preserved (paper §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaSet
from ..core.aqua_tree import AquaTree, TreeNode, subtree_at
from ..core.concat import ALPHA, ConcatPoint
from ..core.identity import as_cell
from ..errors import TypeMismatchError
from ..patterns.tree_ast import TreePattern
from ..patterns.tree_match import TreeMatch, find_tree_matches
from ..patterns.tree_parser import SymbolResolver, tree_pattern

PredicateLike = Callable[[Any], bool]
PatternLike = "str | TreePattern"


def select(predicate: PredicateLike, tree: AquaTree) -> AquaSet:
    """Order-preserving select (paper §4).

    Keeps every node satisfying ``predicate``; ancestry among survivors
    is preserved, and an edge ``(n1, n2)`` appears iff no node strictly
    between them survived (edge contraction).  The result is a *set* of
    trees: a single tree when the root survives, otherwise the forest of
    maximal surviving subtrees.
    """
    if tree.root is None:
        return AquaSet()

    # Iterative post-order so list-like trees (out-degree 1, depth = n)
    # do not hit Python's recursion limit.  ``survivors[id(node)]`` holds
    # the roots of the surviving forest for that node's subtree.
    survivors: dict[int, list[TreeNode]] = {}
    stack: list[tuple[TreeNode, bool]] = [(tree.root, False)]
    while stack:
        node, processed = stack.pop()
        if not processed:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
            continue
        # Labeled NULLs are invisible to queries (§3.5) and are leaves,
        # so they simply never survive.
        if node.is_concat_point:
            survivors[id(node)] = []
            continue
        surviving_children: list[TreeNode] = []
        for child in node.children:
            surviving_children.extend(survivors.pop(id(child)))
        if predicate(node.value):
            survivors[id(node)] = [TreeNode(node.item, surviving_children)]
        else:
            survivors[id(node)] = surviving_children

    return AquaSet(AquaTree(root) for root in survivors[id(tree.root)])


def apply_tree(function: Callable[[Any], Any], tree: AquaTree) -> AquaTree:
    """``apply(f)(T)``: isomorphic tree of ``f``-images (paper §4).

    Labeled NULLs pass through untouched; element nodes get fresh cells
    holding the function's result.
    """
    if tree.root is None:
        return AquaTree(None)

    # Iterative post-order (deep list-like trees must not overflow).
    rebuilt: dict[int, TreeNode] = {}
    stack: list[tuple[TreeNode, bool]] = [(tree.root, False)]
    while stack:
        node, processed = stack.pop()
        if not processed:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
            continue
        children = [rebuilt.pop(id(c)) for c in node.children]
        if node.is_concat_point:
            rebuilt[id(node)] = TreeNode(node.item, children)
        else:
            rebuilt[id(node)] = TreeNode(as_cell(function(node.value)), children)

    return AquaTree(rebuilt[id(tree.root)])


@dataclass
class SplitPiece:
    """The three pieces ``split`` produces for one match, plus metadata.

    The context ``x`` is the expensive piece — a full rebuild of the
    input with α at the attachment site — so it is built lazily, on
    first access.
    """

    match: AquaTree            # y — the match, with α1..αn at pruned sites
    descendants: AquaList      # z — the pruned subtrees [t1..tn]
    points: list[ConcatPoint]  # the α1..αn, aligned with ``descendants``
    tree_match: TreeMatch      # the underlying match (kept/pruned data nodes)
    source: AquaTree           # the input T the piece was cut from
    _context: AquaTree | None = None

    @property
    def context(self) -> AquaTree:
        """x — ancestors, with α at the attachment site (built lazily)."""
        if self._context is None:
            self._context = _context_tree(self.source, self.tree_match.root)
        return self._context

    def reassembled(self) -> AquaTree:
        """``x ∘α (y ∘α1 z1 ... ∘αn zn)`` — the reassembly invariant."""
        rebuilt = self.match
        for point, subtree in zip(self.points, self.descendants.values()):
            rebuilt = rebuilt.concat(point, subtree)
        return self.context.concat(ALPHA, rebuilt)


def _context_tree(tree: AquaTree, target: TreeNode) -> AquaTree:
    """The ``x`` piece: the input with ``target``'s subtree replaced by α.

    Fresh structure over shared payloads, built with an explicit stack:
    a list-like input (depth = n) must not hit the recursion limit.
    """
    assert tree.root is not None
    if tree.root is target:
        return AquaTree(TreeNode(ALPHA))
    root = TreeNode(tree.root.item)
    stack = [(tree.root, root)]
    while stack:
        node, copy = stack.pop()
        for child in node.children:
            if child is target:
                copy.children.append(TreeNode(ALPHA))
                continue
            twin = TreeNode(child.item)
            copy.children.append(twin)
            if child.children:
                stack.append((child, twin))
    return AquaTree(root)


def split_pieces(
    pattern: "str | TreePattern",
    tree: AquaTree,
    resolver: SymbolResolver | None = None,
    roots: Sequence[TreeNode] | None = None,
) -> list[SplitPiece]:
    """Enumerate the ``(x, y, z)`` decompositions for every match.

    ``roots`` restricts candidate match roots (the optimizer's index
    hook).  Pieces share payload objects with the input; structure is
    fresh, so callers may reassemble or edit freely.
    """
    tp = tree_pattern(pattern, resolver)
    pieces: list[SplitPiece] = []
    for match in find_tree_matches(tp, tree, roots=roots):
        y, points = match.match_tree()
        z = match.pruned_subtrees()
        pieces.append(
            SplitPiece(
                match=y,
                descendants=AquaList.from_values(z),
                points=points,
                tree_match=match,
                source=tree,
            )
        )
    return pieces


def split_emitter(
    function: Callable[..., Any], tree: AquaTree
) -> Callable[[TreeMatch], Any]:
    """``match ↦ f(x, y, z)`` for the matches of one input ``tree``.

    Every tree-pattern operator — here and in the physical layer — is
    ``dedup(map(split_emitter(f, T), matches))``.  The pieces are
    expensive (``x`` rebuilds the whole input, ``z`` clones every pruned
    subtree), so ``f`` may declare which of them it reads — the idiom
    callables already use for ``plan_fingerprint`` — and this function,
    the only reader of those declarations, resolves them once per scan:

    * ``needs_context = False``: ``f`` never reads ``x``; it receives
      ``None`` there.
    * ``needs_descendants = False``: ``f`` never reads ``z``, so it has
      nothing to reattach: it receives ``None`` there and ``y`` with its
      points closed off (``y ∘α1..αn []``) — the shape §4 gives both
      derived operators that ignore ``z``.
    * ``returns_match_subtree = True``: ``f(x, y, z)`` *is* the identity
      reassembly ``y ∘α1..αn z`` — the full subtree at the match root,
      which ``tree`` already holds — so it is served by structure
      sharing without calling ``f`` at all.
    """
    if getattr(function, "returns_match_subtree", False):
        return lambda match: subtree_at(match.root)
    reads_x = getattr(function, "needs_context", True)
    reads_z = getattr(function, "needs_descendants", True)

    def emit(match: TreeMatch) -> Any:
        y, points = match.match_tree()
        x = _context_tree(tree, match.root) if reads_x else None
        if reads_z:
            return function(x, y, AquaList.from_values(match.pruned_subtrees()))
        return function(x, y.close_points(points), None)

    return emit


def _reads(function: Callable[..., Any], *, x: bool = True, z: bool = True):
    """Stamp ``function`` with the pieces it reads (see :func:`split_emitter`)."""
    function.needs_context, function.needs_descendants = x, z  # type: ignore[attr-defined]
    return function


# The three operators §4 derives from ``split``, as the λ-terms it gives.

#: ``sub_select``: ``λ(a,b,c) b ∘α1..αn []``.
closed_match = _reads(lambda x, y, z: y, x=False, z=False)


def anc_function(f: Callable[[AquaTree, AquaTree], Any]) -> Callable[..., Any]:
    """``all_anc``: ``λ(a,b,c) f(a, b ∘α1..αn [])``."""
    return _reads(lambda x, y, z: f(x, y), z=False)


def desc_function(f: Callable[[AquaTree, AquaList], Any]) -> Callable[..., Any]:
    """``all_desc``: ``λ(a,b,c) f(b, c)``; ``b`` keeps its ``α1..αn`` so
    ``f`` can reattach descendants."""
    return _reads(lambda x, y, z: f(y, z), x=False)


def invoke_split_function(function: Callable[..., Any], piece: SplitPiece) -> Any:
    """Apply a split function ``f(x, y, z)`` to one piece, honouring the
    declarations :func:`split_emitter` documents."""
    return split_emitter(function, piece.source)(piece.tree_match)


def split(
    pattern: "str | TreePattern",
    function: Callable[[AquaTree, AquaTree, AquaList], Any],
    tree: AquaTree,
    resolver: SymbolResolver | None = None,
    roots: Sequence[TreeNode] | None = None,
) -> AquaSet:
    """``split(tp, f)(T)`` (paper §4): apply ``f(x, y, z)`` per match."""
    matches = find_tree_matches(tree_pattern(pattern, resolver), tree, roots=roots)
    return AquaSet(map(split_emitter(function, tree), matches))


def sub_select(
    pattern: "str | TreePattern",
    tree: AquaTree,
    resolver: SymbolResolver | None = None,
    roots: Sequence[TreeNode] | None = None,
) -> AquaSet:
    """``sub_select(tp)(T)``: the set of subgraphs matching ``tp`` (§4) —
    the match piece with its points closed off by NULL."""
    return split(pattern, closed_match, tree, resolver, roots)


def all_anc(
    pattern: "str | TreePattern",
    function: Callable[[AquaTree, AquaTree], Any],
    tree: AquaTree,
    resolver: SymbolResolver | None = None,
) -> AquaSet:
    """``all_anc(tp, f)(T)``: ``f(ancestors, match)`` per match (§4)."""
    return split(pattern, anc_function(function), tree, resolver)


def all_desc(
    pattern: "str | TreePattern",
    function: Callable[[AquaTree, AquaList], Any],
    tree: AquaTree,
    resolver: SymbolResolver | None = None,
) -> AquaSet:
    """``all_desc(tp, f)(T)``: ``f(match, descendants)`` per match (§4)."""
    return split(pattern, desc_function(function), tree, resolver)


def reassemble(match: AquaTree, descendants: "AquaList | Sequence[AquaTree]") -> AquaTree:
    """``y ∘α1,α2...αn z`` — the paper's §5 shorthand.

    Plugs ``z``'s ``i``-th element into the point labeled ``i``.
    """
    if isinstance(descendants, AquaList):
        subtrees = list(descendants.values())
    else:
        subtrees = list(descendants)
    result = match
    for index, subtree in enumerate(subtrees, start=1):
        if not isinstance(subtree, AquaTree):
            raise TypeMismatchError(f"cannot reattach {subtree!r}: not a tree")
        result = result.concat(ConcatPoint(str(index)), subtree)
    return result
