"""Shared hypothesis strategies for the property suite."""

from hypothesis import strategies as st

from repro.core.aqua_list import AquaList
from repro.patterns.list_ast import (
    Atom,
    Concat,
    ListPattern,
    Plus,
    Prune,
    Star,
    Union,
    any_element,
)
from repro.patterns.tree_ast import (
    CHILD_EPSILON,
    ChildPlus,
    ChildSeq,
    ChildStar,
    TreeAtom,
    TreePattern,
    TreePrune,
    TreeUnion,
)
from repro.predicates.alphabet import ANY, SymbolEquals
from repro.workloads.generators import random_labeled_tree

SYMBOLS = ("a", "b", "c", "d")

symbols = st.sampled_from(SYMBOLS)


@st.composite
def sequences(draw, max_size: int = 12):
    return draw(st.lists(symbols, min_size=0, max_size=max_size))


def _leaf_patterns():
    return st.one_of(
        symbols.map(lambda s: Atom(SymbolEquals(s))),
        st.just(any_element()),
    )


def _extend_list_pattern(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(Concat),
        st.lists(children, min_size=2, max_size=3).map(Union),
        children.map(Star),
        children.map(Plus),
    )


@st.composite
def list_pattern_nodes(draw, max_leaves: int = 5):
    return draw(
        st.recursive(_leaf_patterns(), _extend_list_pattern, max_leaves=max_leaves)
    )


@st.composite
def list_patterns(draw, with_anchors: bool = True):
    body = draw(list_pattern_nodes())
    anchor_start = draw(st.booleans()) if with_anchors else False
    anchor_end = draw(st.booleans()) if with_anchors else False
    return ListPattern(body, anchor_start=anchor_start, anchor_end=anchor_end)


@st.composite
def matchable_list_patterns(draw, with_anchors: bool = True):
    """Patterns that consume at least one element and never nest a
    closure inside a closure — built that way, not filtered, so a
    property over them never starves hypothesis of valid examples."""

    def combine(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(Concat),
            st.lists(children, min_size=2, max_size=3).map(Union),
        )

    # No closure at all, hence non-nullable: leaves, concats, unions.
    flat = st.recursive(_leaf_patterns(), combine, max_leaves=3)

    def around_a_solid_part(solid):
        # A concat is non-nullable as soon as one part is; the others
        # may be (single-level) stars.
        others = st.lists(st.one_of(solid, flat.map(Star)), min_size=1, max_size=2)
        return st.tuples(others, solid, st.integers(0, 2)).map(
            lambda drawn: Concat(
                drawn[0][: drawn[2]] + [drawn[1]] + drawn[0][drawn[2] :]
            )
        )

    body = draw(
        st.recursive(
            st.one_of(flat, flat.map(Plus)),
            lambda solid: st.one_of(
                st.lists(solid, min_size=2, max_size=3).map(Union),
                around_a_solid_part(solid),
            ),
            max_leaves=3,
        )
    )
    anchor_start = draw(st.booleans()) if with_anchors else False
    anchor_end = draw(st.booleans()) if with_anchors else False
    return ListPattern(body, anchor_start=anchor_start, anchor_end=anchor_end)


def nested_closure(node) -> bool:
    """True when a closure (Star/Plus) occurs inside another closure —
    the shape that makes derivation enumeration (and Python's ``re``)
    blow up; the fixed-case suites cover it, the random suites skip it."""
    def depth(n, inside):
        if isinstance(n, (Star, Plus)):
            if inside:
                return True
            return depth(n.inner, True)
        if isinstance(n, Concat):
            return any(depth(p, inside) for p in n.parts)
        if isinstance(n, Union):
            return any(depth(a, inside) for a in n.alternatives)
        if isinstance(n, Prune):
            return depth(n.inner, inside)
        return False

    return depth(node, False)


def _simple_parts():
    """Pattern fragments with at most one closure level — cheap to
    enumerate derivations for, which the prune/split properties need."""
    atoms = _leaf_patterns()
    return st.one_of(
        atoms,
        atoms.map(Star),
        atoms.map(Plus),
        st.lists(atoms, min_size=2, max_size=3).map(Union),
        st.lists(atoms, min_size=2, max_size=3).map(Concat),
    )


@st.composite
def list_patterns_with_prunes(draw):
    """A concat where some non-nested parts carry prune markers."""
    parts = draw(st.lists(_simple_parts(), min_size=1, max_size=4))
    pruned = [
        Prune(part) if draw(st.booleans()) and not part.contains_prune() else part
        for part in parts
    ]
    return ListPattern(Concat(pruned))


@st.composite
def aqua_lists(draw, max_size: int = 12):
    return AquaList.from_values(draw(sequences(max_size=max_size)))


@st.composite
def labeled_trees(draw, max_size: int = 16):
    size = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_labeled_tree(size, SYMBOLS, seed=seed, max_arity=3)


@st.composite
def wide_labeled_trees(draw, min_children: int = 20, max_children: int = 40):
    """A root over 20–40 children, each a leaf or a one-level subtree:
    child lists on the far side of the memo engine's fan-out gate
    (``WIDE_CHILD_LIST``), which ``labeled_trees`` (arity ≤ 3) never
    reaches.  Children draw from two symbols so sibling runs recur."""
    from repro.core.aqua_tree import AquaTree

    children = draw(
        st.lists(
            st.tuples(st.sampled_from(SYMBOLS[:2]), st.lists(symbols, max_size=2)),
            min_size=min_children,
            max_size=max_children,
        )
    )
    return AquaTree.build(
        draw(symbols),
        [
            AquaTree.build(label, [AquaTree.leaf(g) for g in grandchildren])
            for label, grandchildren in children
        ],
    )


@st.composite
def identity_trees(draw, max_size: int = 16):
    """Trees whose payloads are identity-bearing objects with a ``label``
    attribute — the OODB setting, where set results never collapse
    structurally-equal members (payloads compare by identity)."""
    from repro.core.aqua_tree import AquaTree, TreeNode
    from repro.core.identity import Cell, Record
    from repro.workloads.generators import rng_from

    size = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = rng_from(seed)
    root = TreeNode(Cell(Record(label=rng.choice(SYMBOLS))))
    open_nodes = [root]
    for _ in range(size - 1):
        parent = rng.choice(open_nodes)
        child = TreeNode(Cell(Record(label=rng.choice(SYMBOLS))))
        parent.children.append(child)
        if len(parent.children) >= 3:
            open_nodes.remove(parent)
        open_nodes.append(child)
    return AquaTree(root)


def _tree_leaves():
    return st.one_of(
        symbols.map(lambda s: TreeAtom(SymbolEquals(s), None)),
        st.just(TreeAtom(ANY, None)),
        symbols.map(lambda s: TreeAtom(SymbolEquals(s), CHILD_EPSILON)),
    )


def _extend_tree_pattern(children):
    def with_children(parts):
        head, *rest = parts
        predicate = head.predicate if isinstance(head, TreeAtom) else ANY
        if not rest:
            return TreeAtom(predicate, CHILD_EPSILON)
        return TreeAtom(predicate, ChildSeq(list(rest)))

    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(with_children),
        st.lists(children, min_size=2, max_size=2).map(TreeUnion),
        children.map(ChildStar).map(lambda c: TreeAtom(ANY, c)),
        children.map(ChildPlus).map(lambda c: TreeAtom(ANY, c)),
    )


@st.composite
def tree_patterns(draw, max_leaves: int = 4):
    body = draw(st.recursive(_tree_leaves(), _extend_tree_pattern, max_leaves=max_leaves))
    return TreePattern(body)


@st.composite
def tree_patterns_with_prunes(draw):
    """Patterns like ``sym(!?* sym ?*)`` — prunes at child positions."""
    root = draw(symbols)
    child = draw(symbols)
    shape = draw(st.integers(min_value=0, max_value=3))
    inner = TreeAtom(SymbolEquals(child), None)
    if shape == 0:
        children = ChildSeq([ChildStar(TreePrune(TreeAtom(ANY, None))), inner])
    elif shape == 1:
        children = ChildSeq(
            [
                ChildStar(TreePrune(TreeAtom(ANY, None))),
                inner,
                ChildStar(TreePrune(TreeAtom(ANY, None))),
            ]
        )
    elif shape == 2:
        children = ChildSeq([TreePrune(TreeAtom(ANY, None)), inner])
    else:
        children = ChildSeq([inner, ChildStar(TreeAtom(ANY, None))])
    return TreePattern(TreeAtom(SymbolEquals(root), children))
