"""The rewrite engine, EPOQ-flavored (paper §8, [22]).

AQUA feeds the EPOQ extensible optimizer, whose signature idea is
*regions*: groups of rules with their own control strategy, run in
sequence.  The reproduction keeps that architecture at laptop scale:

* a :class:`Region` owns a rule list and a strategy — ``"fixpoint"``
  (re-run until nothing changes) or ``"once"`` (single bottom-up pass);
* the :class:`Optimizer` runs its regions in order, *cost-gating* each
  rewrite with the :class:`~repro.optimizer.cost.CostModel` (a rewrite
  that the model prices worse than the original is rejected), and
  records a trace of applied rules for inspection and testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..context import emit
from ..errors import AquaError, OptimizerError
from ..faults import fault_point
from ..plan import expr as E
from ..storage.database import Database
from .cost import CostModel
from .rules import DEFAULT_RULES, Rule


@dataclass
class Region:
    """A named group of rules with a control strategy."""

    name: str
    rules: list[Rule]
    strategy: str = "fixpoint"
    max_passes: int = 8

    def __post_init__(self) -> None:
        if self.strategy not in ("fixpoint", "once"):
            raise OptimizerError(f"unknown region strategy {self.strategy!r}")


@dataclass
class Trace:
    """Which rules fired where, plus the cost story."""

    steps: list[str] = field(default_factory=list)
    initial_cost: float = 0.0
    final_cost: float = 0.0

    def record(self, region: Region, rule: Rule, before: E.Expr, after: E.Expr) -> None:
        emit("optimizer_rewrites")
        self.steps.append(
            f"[{region.name}] {rule.name}: {before.describe()} => {after.describe()}"
        )

    def __repr__(self) -> str:
        lines = "\n".join(self.steps) or "(no rewrites)"
        return f"Trace(cost {self.initial_cost:.0f} -> {self.final_cost:.0f})\n{lines}"


def default_regions() -> list[Region]:
    """The standard pipeline: one algebraic fixpoint region.

    Access-path choice is no longer a rewrite region — it happens in the
    lowering pass (:mod:`repro.physical.lower` with
    ``choose_access_paths``), where index anchors, conjunct
    decomposition and the columnar list scan are picked per plan node.
    """
    return [Region("algebraic", list(DEFAULT_RULES), strategy="fixpoint")]


class Optimizer:
    """Rewrites logical plans into cheaper (often physical) plans."""

    def __init__(
        self,
        db: Database,
        regions: list[Region] | None = None,
        cost_gate: bool = True,
    ) -> None:
        self.db = db
        self.regions = regions if regions is not None else default_regions()
        self.cost_model = CostModel(db)
        self.cost_gate = cost_gate

    def optimize(self, expr: E.Expr) -> tuple[E.Expr, Trace]:
        """Optimize ``expr``; never raises for engine-internal failures.

        A rewrite probe that fails (an injected fault, a tripped budget
        during cost estimation, a buggy rule) must not take the query
        down: the failing *rule* is skipped, and if the pipeline itself
        fails, the original un-decomposed plan is returned — it is
        always a safe (if slower) execution strategy.
        """
        trace = Trace()
        try:
            return self._optimize(expr, trace)
        except AquaError as exc:
            trace.steps.append(
                f"[fallback] optimizer aborted ({exc}); keeping the logical plan"
            )
            trace.final_cost = trace.initial_cost
            return expr, trace

    def _optimize(self, expr: E.Expr, trace: Trace) -> tuple[E.Expr, Trace]:
        trace.initial_cost = self.cost_model.cost(expr)
        current = expr
        for region in self.regions:
            passes = 0
            while True:
                rewritten, changed = self._pass(current, region, trace)
                current = rewritten
                passes += 1
                if (
                    not changed
                    or region.strategy == "once"
                    or passes >= region.max_passes
                ):
                    break
        trace.final_cost = self.cost_model.cost(current)
        return current, trace

    def _pass(self, node: E.Expr, region: Region, trace: Trace) -> tuple[E.Expr, bool]:
        """One bottom-up rewrite pass over the expression tree."""
        changed = False
        new_children = []
        for child in node.children():
            rewritten, child_changed = self._pass(child, region, trace)
            new_children.append(rewritten)
            changed = changed or child_changed
        if changed:
            node = node.with_children(tuple(new_children))
        for rule in region.rules:
            try:
                fault_point("optimizer_rewrite")
                candidate = rule.apply(node, self.db)
                if candidate is None:
                    continue
                if self.cost_gate:
                    before_cost = self.cost_model.cost(node)
                    after_cost = self.cost_model.cost(candidate)
                    if after_cost > before_cost:
                        continue
            except AquaError as exc:
                # A failed rewrite probe is not a failed query: skip the
                # rule and keep the (safe) un-rewritten node.
                trace.steps.append(f"[{region.name}] {rule.name}: skipped ({exc})")
                continue
            trace.record(region, rule, node, candidate)
            return candidate, True
        return node, changed


def optimize(expr: E.Expr, db: Database) -> E.Expr:
    """One-call convenience: optimize with the default regions."""
    optimized, _ = Optimizer(db).optimize(expr)
    return optimized
