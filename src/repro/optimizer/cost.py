"""A simple cost model for AQUA plans.

The companion optimization paper [31] promises a full cost model; this
reproduction implements the minimum the §4–§5 rewrites need to be
*decisions* rather than blind rewrites:

* structure sizes, resolved exactly for ``Root``/``Literal`` sources
  (the common case in an OODB where queries start at named roots) and
  estimated otherwise;
* anchor selectivity, taken from the per-structure node index when one
  exists, with a default guess otherwise;
* pattern evaluation cost, scaled by the number of atoms and penalized
  exponentially per closure (the paper's footnote 3: closure queries
  can be exponential).

Costs are abstract work units (≈ predicate evaluations); the benchmark
suite confirms the model's *ordering* matches measured time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..core.aqua_list import AquaList
from ..core.aqua_tree import AquaTree
from ..patterns.list_ast import ListPattern, Star as ListStar, Plus as ListPlus
from ..patterns.tree_ast import TreePattern, TreeStar, TreePlus, ChildStar, ChildPlus, TreeAtom
from ..plan import expr as E
from ..plan.metrics import PlanMetrics, cardinality
from ..predicates.alphabet import AlphabetPredicate
from ..storage.columnar import COLUMNAR_MIN_LENGTH
from ..storage.database import Database
from .anchors import list_columnar_choice

#: Fallback size when a source cannot be resolved at planning time.
DEFAULT_SIZE = 1000.0

#: Fallback selectivity for an anchor predicate without index statistics.
DEFAULT_SELECTIVITY = 0.1

#: Cost of one index probe, in predicate-evaluation units.
PROBE_COST = 5.0

#: Per-position cost of the columnar list start source's shift-AND, in
#: predicate-evaluation units.  A warm list serves its predicate columns
#: from cache; even a cold one evaluates each atom in one batch pass —
#: either way a start test is a bit probe, not a Python predicate
#: dispatch.
COLUMN_SCAN_COST = 0.05

#: Per-closure blowup of the tree matcher.  It tables every vertical
#: closure, and a sibling closure as soon as the child list is wide
#: enough for its re-derivations to matter, so re-explored expansions
#: are table replays and a closure costs far less than the doubling a
#: plain backtracker pays — calibrated against the CLAIM-MEMO
#: workloads (``tests/patterns/test_tree_memo.py``), where matcher steps
#: grow mildly with closure count instead of exponentially.
#: Split-rewrite decisions weigh per-candidate matching cost against
#: probe cost; overestimating closures would keep choosing probe-heavy
#: plans the tables make pointless.
CLOSURE_BASE = 1.25


def anchor_scan_profitable(
    db: Database,
    input_node: E.Expr,
    anchors: tuple[AlphabetPredicate, ...],
    pattern: TreePattern,
) -> bool:
    """Is probing ``anchors`` priced no worse than the full tree scan?

    The lowering's cost gate for the §4 split/index choice.  The probe
    pays :data:`PROBE_COST` per anchor plus per-candidate matching on
    the survivors; the scan matches every node.  An unselective anchor
    (every node is ``d``) prices out and keeps the scan — the decision
    the optimizer's rule-level cost gate used to make when the choice
    was a plan rewrite.
    """
    model = CostModel(db)
    size = model.input_size(input_node)
    per_candidate = tree_pattern_cost(pattern)
    selectivity = min(
        1.0, sum(model.anchor_selectivity(input_node, anchor) for anchor in anchors)
    )
    probed = PROBE_COST * len(anchors) + selectivity * size * per_candidate
    return probed <= size * per_candidate


def tree_pattern_cost(pattern: TreePattern) -> float:
    """Per-candidate matching cost: atoms, with closures penalized."""
    atoms = 0
    closures = 0
    for node in pattern.body.walk():
        if isinstance(node, TreeAtom):
            atoms += 1
        if isinstance(node, (TreeStar, TreePlus, ChildStar, ChildPlus)):
            closures += 1
    return max(1.0, float(atoms)) * (CLOSURE_BASE ** closures)


def list_pattern_cost(pattern: ListPattern) -> float:
    atoms = sum(1 for _ in pattern.body.atoms())
    closures = sum(
        1 for node in pattern.body.walk() if isinstance(node, (ListStar, ListPlus))
    )
    return max(1.0, float(atoms)) * (2.0 ** closures)


class CostModel:
    """Estimates plan cost against a concrete database."""

    def __init__(self, db: Database) -> None:
        self.db = db

    # -- source sizing -----------------------------------------------------

    def source_value(self, node: E.Expr) -> Any | None:
        """Resolve a source expression to its value when statically known."""
        if isinstance(node, E.Literal):
            return node.value
        if isinstance(node, E.Root):
            try:
                return self.db.root(node.name)
            except Exception:
                return None
        return None

    def input_size(self, node: E.Expr) -> float:
        value = self.source_value(node)
        if isinstance(value, AquaTree):
            return float(value.size())
        if isinstance(value, AquaList):
            return float(len(value))
        if isinstance(node, E.Extent):
            return float(self.db.extent_size(node.name)) or DEFAULT_SIZE
        if isinstance(node, E._Unary):
            return self.input_size(node.input)
        return DEFAULT_SIZE

    # -- selectivities -----------------------------------------------------

    def anchor_selectivity(self, node: E.Expr, anchor: AlphabetPredicate) -> float:
        """Fraction of nodes/elements an anchor's index probe returns."""
        value = self.source_value(node)
        if isinstance(value, AquaTree):
            index = self.db.tree_index(value, anchor.attributes())
            terms = index.servable_terms(anchor)
            if terms:
                attribute, _, constant = terms[0]
                return index.selectivity(attribute, constant)
        if isinstance(value, AquaList):
            index = self.db.list_index(value, anchor.attributes())
            positions, used = index.positions_for(anchor)
            if used:
                return len(positions) / max(1, len(value))
        return DEFAULT_SELECTIVITY

    def extent_term_selectivity(
        self, extent: str, predicate: AlphabetPredicate
    ) -> float:
        total = max(1, self.db.extent_size(extent))
        for attribute, op, constant in predicate.indexable_terms():
            if op == "=":
                index = self.db.index_for(extent, attribute)
                if index is not None and hasattr(index, "count"):
                    return index.count(constant) / total  # type: ignore[union-attr]
            histogram = self.db.histogram(extent, attribute)
            if histogram is not None:
                return histogram.selectivity(op, constant)
        return DEFAULT_SELECTIVITY

    # -- plan costing --------------------------------------------------------

    def cost(self, node: E.Expr) -> float:
        """Total estimated work for evaluating ``node``."""
        children_cost = sum(self.cost(c) for c in node.children())
        return children_cost + self._local_cost(node)

    def local_cost(self, node: E.Expr) -> float:
        """Estimated work for ``node`` itself, children excluded."""
        return self._local_cost(node)

    # -- cardinality estimation (EXPLAIN ANALYZE's "est rows" column) -------

    def estimated_rows(self, node: E.Expr) -> float:
        """Estimated output cardinality, in the same units the metrics
        layer reports (tree → node count, list/set → member count)."""
        if isinstance(node, (E.Root, E.Literal)):
            value = self.source_value(node)
            if value is not None:
                return float(cardinality(value))
            return DEFAULT_SIZE
        if isinstance(node, E.Extent):
            return float(self.db.extent_size(node.name)) or DEFAULT_SIZE
        size = self.input_size(node)
        if isinstance(node, (E.TreeSelect, E.ListSelect, E.SetSelect)):
            return size * DEFAULT_SELECTIVITY
        if isinstance(node, (E._SplitShaped, E.ListSubSelect, E.ListSplit)):
            return size * DEFAULT_SELECTIVITY
        if isinstance(node, (E.SetUnion,)):
            return self.estimated_rows(node.left) + self.estimated_rows(node.right)
        if isinstance(node, E.SetIntersection):
            return min(self.estimated_rows(node.left), self.estimated_rows(node.right))
        if isinstance(node, E.SetDifference):
            return self.estimated_rows(node.left)
        # apply/flatten and anything cardinality-preserving by default.
        return size

    # -- calibration against runtime metrics --------------------------------

    def calibrate(self, expr: E.Expr, metrics: PlanMetrics) -> list["CalibrationRecord"]:
        """Compare this model's estimates against a plan's actual metrics.

        Walks ``expr`` and, for every operator the instrumented executor
        collected, reports estimated vs. actual rows and cost units.
        This is what makes rewrites like the §4 split-index auditable:
        after an ``EXPLAIN ANALYZE`` run the per-rule error shows
        whether the model's pricing matched the work that happened.
        """
        records: list[CalibrationRecord] = []

        def walk(node: E.Expr, path: tuple[int, ...]) -> None:
            op = metrics.get(path)
            if op is not None:
                records.append(
                    CalibrationRecord(
                        path=path,
                        operator=node.head(),
                        rule=None,
                        estimated_rows=self.estimated_rows(node),
                        actual_rows=op.rows_out,
                        estimated_cost=self.local_cost(node),
                        actual_units=actual_cost_units(op.counters),
                    )
                )
            for index, child in enumerate(node.children()):
                walk(child, (*path, index))

        walk(expr, ())
        return records

    def _local_cost(self, node: E.Expr) -> float:
        if isinstance(node, (E.Root, E.Extent, E.Literal)):
            return 1.0
        size = self.input_size(node)
        if isinstance(node, E._SplitShaped):
            # One scan serves all four (see ``_lower_tree_scan``); all but
            # ``sub_select`` additionally build pieces per match.
            factor = 1.0 if isinstance(node, E.SubSelect) else 2.0
            return size * tree_pattern_cost(node.pattern) * factor
        if isinstance(node, (E.ListSubSelect, E.ListSplit)):
            # One access-path ladder serves both (see ``_lower_list_scan``);
            # split additionally builds the three pieces per match.
            factor = 2.0 if isinstance(node, E.ListSplit) else 1.0
            columnar = self._columnar_list_cost(size, node.pattern, factor)
            if columnar is not None:
                return columnar
            return size * list_pattern_cost(node.pattern) * factor
        if isinstance(node, (E.SetUnion, E.SetIntersection, E.SetDifference)):
            return self.input_size(node.left) + self.input_size(node.right)
        # select / apply / flatten: one unit per member.
        return size

    def _columnar_list_cost(
        self, size: float, pattern: ListPattern, factor: float = 1.0
    ) -> float | None:
        """Columnar shift-AND estimate for a list scan, or ``None``."""
        if size < COLUMNAR_MIN_LENGTH:
            return None
        choices = list_columnar_choice(pattern)
        if choices is None:
            return None
        starts = min(size, size * DEFAULT_SELECTIVITY)
        return (
            size * COLUMN_SCAN_COST * len(choices)
            + starts * list_pattern_cost(pattern) * factor
        )


def actual_cost_units(counters: Mapping[str, int]) -> float:
    """Collapse runtime counters into the model's abstract work units.

    The model prices plans in ≈ predicate evaluations with a fixed
    surcharge per index probe; the same weighting applied to the actual
    counters makes the two columns of ``EXPLAIN ANALYZE`` comparable.
    """
    return (
        counters.get("predicate_evals", 0)
        + counters.get("nodes_scanned", 0)
        + counters.get("positions_scanned", 0)
        + counters.get("objects_scanned", 0)
        + PROBE_COST * counters.get("index_probes", 0)
    )


@dataclass(frozen=True)
class CalibrationRecord:
    """Estimated vs. actual for one operator of an analyzed plan."""

    path: tuple[int, ...]
    operator: str
    rule: str | None
    estimated_rows: float
    actual_rows: int | None
    estimated_cost: float
    actual_units: float

    def row_error(self) -> float | None:
        """Estimate/actual ratio, symmetric (≥ 1; None when unknowable)."""
        if self.actual_rows is None:
            return None
        return _symmetric_ratio(self.estimated_rows, float(self.actual_rows))

    def cost_error(self) -> float:
        return _symmetric_ratio(self.estimated_cost, self.actual_units)


def _symmetric_ratio(estimated: float, actual: float) -> float:
    low, high = sorted((max(estimated, 1.0), max(actual, 1.0)))
    return high / low


def calibration_report(records: list[CalibrationRecord]) -> str:
    """Human-readable per-rule estimate-error summary."""
    lines = ["calibration (estimate vs. actual):"]
    for record in records:
        rule = f" [{record.rule}]" if record.rule else ""
        row_error = record.row_error()
        rows = "?" if row_error is None else f"{row_error:.1f}×"
        lines.append(
            f"  {record.operator}{rule}: rows est≈{record.estimated_rows:.0f}"
            f" act={record.actual_rows} (err {rows});"
            f" cost est≈{record.estimated_cost:.0f}"
            f" act≈{record.actual_units:.0f} (err {record.cost_error():.1f}×)"
        )
    return "\n".join(lines)
