"""Rewrite rules (paper §4 "Why Split?", §5, and [31]).

Each rule is a local *algebraic* transformation on one expression node:
it reshapes logical plans (select fusion / cascade) but never commits to
an access path.  Access-path choice — index anchors for tree and list
patterns, the relational-style conjunct decomposition for extent
selects — lives in the lowering pass (:mod:`repro.physical.lower` with
``choose_access_paths``, backed by :mod:`repro.optimizer.anchors`).

A rule returns the rewritten node or ``None`` when it does not apply;
the engine (:mod:`repro.optimizer.engine`) handles traversal, cost
gating and tracing.
"""

from __future__ import annotations

from ..algebra.tree_ops import reassemble, sub_select as run_sub_select
from ..patterns.tree_ast import TreeAtom, TreePattern
from ..plan import expr as E
from ..predicates.alphabet import And
from ..storage.database import Database


class Rule:
    """Base class: a named local rewrite."""

    name = "rule"

    def apply(self, node: E.Expr, db: Database) -> E.Expr | None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.name}>"


class SetSelectFusionRule(Rule):
    """``select(p1)(select(p2)(S))`` → ``select(p2 ∧ p1)(S)``.

    The inverse of decomposition; applied before access-path selection
    so the decomposition rule sees the whole conjunction at once.
    """

    name = "set-select-fusion"

    def apply(self, node: E.Expr, db: Database) -> E.Expr | None:
        del db
        if not isinstance(node, E.SetSelect):
            return None
        if not isinstance(node.input, E.SetSelect):
            return None
        fused = And(node.input.predicate, node.predicate)
        return E.SetSelect(node.input.input, predicate=fused)


def paper_split_rewrite(node: E.SubSelect) -> E.Expr | None:
    """§4's rewrite, verbatim (for demonstration and equivalence tests):

    ``sub_select(tp)(T)`` ⇒
    ``apply(sub_select(⊤tp))(split(anchor, λ(x,y,z) y ∘α1..αn z)(T))``
    flattened into one result set.

    The production path keeps the logical ``sub_select`` and lets the
    lowering pass fuse the same shape into an ``index_anchor_scan`` —
    the split's reassembly and the per-piece sub_select collapsed into
    an index probe plus a roots-restricted match.  ``None`` when the
    pattern exposes no usable single root predicate.
    """
    anchors = node.pattern.root_predicates()
    if len(anchors) != 1 or anchors[0].opaque:
        return None
    anchor_pattern = TreePattern(TreeAtom(anchors[0], None))
    anchored = node.pattern.anchored()

    def rebuild(x, y, z):
        del x
        return reassemble(y, z)

    def per_subtree(subtree):
        return run_sub_select(anchored, subtree)

    split_node = E.Split(node.input, pattern=anchor_pattern, function=rebuild)
    applied = E.SetApply(split_node, function=per_subtree)
    return E.SetFlatten(applied)


#: The default rule pipeline, in the order the engine's regions run them.
DEFAULT_RULES: list[Rule] = [
    SetSelectFusionRule(),
]
