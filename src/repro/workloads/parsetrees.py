"""Parse-tree workloads (paper §5).

Two kinds of parse trees back the §5 examples:

* **algebra parse trees** — each node is an operator
  (``Parse-tree-node`` supporting ``OpName``); the optimization
  ``select(R, and(p1,p2)) ≡ select(select(R,p1),p2)`` is performed
  *with the AQUA tree algebra itself* via ``split`` plus a rebuild
  function (:func:`repro.examples`-level code lives in
  ``examples/parse_tree_optimizer.py``; the data and the rebuild
  function live here so tests and benchmarks share them);
* **C program parse trees** — variable-arity ``printf`` calls that may
  reference a ``LargeData`` structure, for the query
  ``sub_select(printf(?* LargeData ?* LargeData ?*))(T)``.
"""

from __future__ import annotations

import random

from ..core.aqua_list import AquaList
from ..core.aqua_tree import AquaTree, TreeNode
from ..core.concat import ALPHA
from ..core.identity import Cell, Record
from ..predicates.alphabet import AlphabetPredicate, Comparison
from .generators import rng_from


def op(name: str) -> Record:
    """A ``Parse-tree-node``: supports ``OpName`` (stored attribute)."""
    return Record(OpName=name)


def by_op_name(symbol: str) -> AlphabetPredicate:
    """Resolver for §5's shorthand: "select" ≡ λ(pn) pn.OpName="select"."""
    return Comparison("OpName", "=", symbol)


def figure5_parse_tree() -> AquaTree:
    """A parse tree containing the §5 redex ``select(R, and(p1, p2))``.

    Figure 5's exact drawing is an image; this reconstruction embeds the
    redex under a join, which is all the worked rewrite requires.
    """
    redex = AquaTree.build(
        op("select"),
        [
            AquaTree.leaf(op("R")),
            AquaTree.build(op("and"), [AquaTree.leaf(op("p1")), AquaTree.leaf(op("p2"))]),
        ],
    )
    return AquaTree.build(
        op("join"),
        [redex, AquaTree.build(op("scan"), [AquaTree.leaf(op("S"))])],
    )


def random_algebra_tree(
    size: int,
    seed: "int | random.Random" = 0,
    planted_redexes: int = 1,
) -> AquaTree:
    """A random operator tree with ``planted_redexes`` §5 redex sites.

    Interior nodes are joins/unions (binary) and projects (unary);
    leaves are relation scans.  Each planted redex replaces a random
    leaf with ``select(R, and(p, p))``, so the rewrite's result
    cardinality is exactly the plant count.
    """
    rng = rng_from(seed)

    def grow(budget: int) -> AquaTree:
        if budget <= 1:
            return AquaTree.leaf(op(f"R{rng.randrange(100)}"))
        shape = rng.random()
        if shape < 0.55 and budget >= 3:
            left_budget = rng.randint(1, budget - 2)
            return AquaTree.build(
                op(rng.choice(["join", "union"])),
                [grow(left_budget), grow(budget - 1 - left_budget)],
            )
        return AquaTree.build(op("project"), [grow(budget - 1)])

    tree = grow(max(1, size - 5 * planted_redexes))

    def leaves(t: AquaTree) -> list[TreeNode]:
        return [n for n in t.element_nodes() if not n.children]

    for index in range(planted_redexes):
        target = rng.choice(leaves(tree))
        # Rebuild the leaf in place as the redex root.
        target.item = Cell(op("select"))
        target.children = [
            TreeNode(Cell(op(f"Rx{index}"))),
            TreeNode(
                Cell(op("and")),
                [TreeNode(Cell(op("p1"))), TreeNode(Cell(op("p2")))],
            ),
        ]
    return tree


def section5_rebuild(x: AquaTree, y: AquaTree, z: AquaList) -> AquaTree:
    """The §5 update function ``f(x, y, z)``.

    With the pattern ``select(!? and)``, the match piece is
    ``y ≗ A(B C(D E))`` where ``A`` = the select node, ``C`` = the and
    node, ``B`` = the point ``α1`` left by the pruned relation ``R``,
    and ``D``/``E`` = the points ``α2``/``α3`` left where ``and``'s
    predicate subtrees were pruned as descendants of the match;
    ``z = [R, p1, p2]``.  The rebuilt redex is ``A(A(B D) E)`` =
    ``select(select(α1 α2) α3)``; plugging ``z`` back into the points
    and the redex into the ancestors at ``α`` yields the rewritten
    parse tree for ``select(select(R, p1), p2)``.

    Expected usage: ``split("select(!? and)", section5_rebuild)(T)``
    with the :func:`by_op_name` resolver.
    """
    assert y.root is not None
    select_node = y.root
    point_b, point_d, point_e = y.concat_points()  # α1, α2, α3 in preorder

    rebuilt = AquaTree.build(
        select_node.value,
        [
            AquaTree.build(
                select_node.value,
                [AquaTree.concat_leaf(point_b), AquaTree.concat_leaf(point_d)],
            ),
            AquaTree.concat_leaf(point_e),
        ],
    )
    for point, subtree in zip((point_b, point_d, point_e), z.values()):
        rebuilt = rebuilt.concat(point, subtree)
    return x.concat(ALPHA, rebuilt)


# ---------------------------------------------------------------------------
# C program parse trees (variable arity printf)
# ---------------------------------------------------------------------------


def c_token(kind: str) -> Record:
    return Record(OpName=kind)


def random_c_program(
    size: int,
    seed: "int | random.Random" = 0,
    printf_count: int = 10,
    double_ref_count: int = 2,
    max_arity: int = 8,
) -> AquaTree:
    """A synthetic C parse tree with variable-arity ``printf`` calls.

    ``printf_count`` calls are planted; ``double_ref_count`` of them
    reference ``LargeData`` at least twice (the §5 query's targets),
    the rest at most once.
    """
    rng = rng_from(seed)

    def grow(budget: int) -> AquaTree:
        if budget <= 1:
            return AquaTree.leaf(c_token(rng.choice(["var", "const", "call"])))
        arity = rng.randint(1, 3)
        children = []
        remaining = budget - 1
        for slot in range(arity):
            share = max(1, remaining // (arity - slot))
            children.append(grow(share))
            remaining -= share
            if remaining <= 0:
                break
        return AquaTree.build(c_token(rng.choice(["block", "if", "while", "expr"])), children)

    tree = grow(max(1, size))
    nodes = list(tree.element_nodes())

    def make_printf(double_ref: bool) -> TreeNode:
        arity = rng.randint(2, max_arity)
        args = [TreeNode(Cell(c_token("arg"))) for _ in range(arity)]
        ref_count = 2 if double_ref else rng.randint(0, 1)
        slots = rng.sample(range(arity), min(ref_count, arity))
        for slot in slots:
            args[slot] = TreeNode(Cell(c_token("LargeData")))
        return TreeNode(Cell(c_token("printf")), args)

    for index in range(printf_count):
        host = rng.choice(nodes)
        host.children.append(make_printf(index < double_ref_count))
    return tree
