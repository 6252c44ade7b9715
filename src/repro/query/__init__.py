"""Sessions, prepared queries with a plan cache, the evaluator,
EXPLAIN / EXPLAIN ANALYZE, and the AQL and path text front ends.

The logical plan they build and read lives one layer down, in
:mod:`repro.plan`; ``expr`` and the metrics types are re-exported here.
"""

from ..plan import expr
from ..plan.metrics import OperatorMetrics, PlanMetrics
from .aql import parse_aql, run_aql
from .builder import Q
from .explain import (
    explain,
    explain_analyze,
    explain_optimization,
    explain_physical,
    render_analysis,
    render_planning,
)
from .interpreter import evaluate, evaluate_with_metrics
from .plan_cache import DEFAULT_CACHE, PlanCache, plan_fingerprint
from .prepare import PreparedQuery, prepare

__all__ = [
    "DEFAULT_CACHE",
    "OperatorMetrics",
    "PlanCache",
    "PlanMetrics",
    "PreparedQuery",
    "Q",
    "evaluate",
    "evaluate_with_metrics",
    "explain",
    "explain_analyze",
    "explain_optimization",
    "explain_physical",
    "expr",
    "parse_aql",
    "plan_fingerprint",
    "prepare",
    "render_analysis",
    "render_planning",
    "run_aql",
]
