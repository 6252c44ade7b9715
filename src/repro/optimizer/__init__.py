"""EPOQ-flavored rewrite optimizer: rules, cost model, engine.

The logical→physical lowering pass (:func:`repro.physical.lower`) reads
the anchor analysis in :mod:`repro.optimizer.anchors` that the rewrite
rules share; it lives one layer up, in :mod:`repro.physical`.
"""

from .anchors import extent_conjunct_split, list_anchor_choice, tree_split_anchors
from .cost import CostModel, list_pattern_cost, tree_pattern_cost
from .engine import Optimizer, Region, Trace, default_regions, optimize
from .rules import (
    DEFAULT_RULES,
    Rule,
    SetSelectFusionRule,
    paper_split_rewrite,
)

__all__ = [
    "CostModel",
    "DEFAULT_RULES",
    "Optimizer",
    "Region",
    "Rule",
    "SetSelectFusionRule",
    "Trace",
    "default_regions",
    "extent_conjunct_split",
    "list_anchor_choice",
    "list_pattern_cost",
    "optimize",
    "paper_split_rewrite",
    "tree_pattern_cost",
    "tree_split_anchors",
]
