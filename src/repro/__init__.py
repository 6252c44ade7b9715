"""repro — a reproduction of the AQUA list/tree query algebra (ICDE 1995).

The public API re-exports the pieces a downstream user needs most:

* the bulk types (:class:`AquaList`, :class:`AquaTree`, :class:`AquaSet`,
  :class:`AquaMultiset`, :class:`AquaTuple`, :class:`AquaGraph`) and the
  notation parsers,
* the predicate DSL (:func:`attr`, :func:`sym`, :data:`ANY`),
* the pattern parsers (:func:`list_pattern`, :func:`tree_pattern`),
* the algebra operators (``select``, ``apply_tree``, ``sub_select``,
  ``all_anc``, ``all_desc``, ``split`` for trees; ``*_list`` for lists),
* the storage substrate (:class:`Database`), the optimizer entry point
  (:func:`optimize`), the evaluator (:func:`evaluate`), the fluent
  builder (:class:`Q`) and the AQL text language (:func:`run_aql`),
* the session API (:class:`Session`): resolved execution knobs, prepared
  queries (:func:`prepare`, :class:`PreparedQuery`), the plan cache
  (:class:`PlanCache`) and ``$name`` parameters (:class:`Param`),
* the fault-tolerant serving layer (:class:`SessionPool` plus
  :class:`RetryPolicy`, :class:`BreakerBoard` and :class:`PoolStats`
  from :mod:`repro.serving`),
* the document store (:class:`Document`, :class:`DocNode`,
  ``from_json/xml/html`` ingestion, ``to_json/xml/html`` round-trip
  serialization, and the ``//a[@x='v']//b`` path-query frontend that
  compiles to the stock algebra).

``__all__`` below is the canonical public surface, grouped to mirror
the README's "Public API" table; ``tests/test_public_api.py`` asserts
the two stay in sync.

See README.md for a guided tour and DESIGN.md for the paper-to-module map.
"""

from .algebra import (
    all_anc,
    all_anc_list,
    all_desc,
    all_desc_list,
    apply_list,
    apply_tree,
    select,
    select_list,
    split,
    split_list,
    split_pieces,
    sub_select,
    sub_select_approx,
    sub_select_list,
    tree_edit_distance,
)
from .core import (
    ALPHA,
    NIL,
    AquaGraph,
    AquaList,
    AquaMultiset,
    AquaSet,
    AquaTree,
    AquaTuple,
    Cell,
    ConcatPoint,
    Record,
    alpha,
    deref,
    format_list,
    format_tree,
    make_tuple,
    parse_list,
    parse_tree,
    tree,
)
from .api import Session, SessionPool, default_session
from .optimizer import Optimizer, optimize
from .serving import (
    AdmissionController,
    BreakerBoard,
    CircuitBreaker,
    PoolStats,
    RetryPolicy,
)
from .params import Param
from .patterns import list_pattern, tree_pattern
from .predicates import ANY, attr, parse_predicate, pred, sym
from .query import (
    PlanCache,
    PreparedQuery,
    Q,
    evaluate,
    explain,
    explain_optimization,
    parse_aql,
    prepare,
    run_aql,
)
from .storage import Database
from .docstore import (
    DocNode,
    Document,
    compile_path,
    from_html,
    from_json,
    from_xml,
    load_document,
    parse_path,
    to_html,
    to_json,
    to_xml,
)

__version__ = "1.0.0"

#: The canonical public surface, grouped to mirror the README's
#: "Public API" table (tests/test_public_api.py keeps them in sync).
__all__ = [
    # -- bulk types & notation --
    "ALPHA",
    "AquaGraph",
    "AquaList",
    "AquaMultiset",
    "AquaSet",
    "AquaTree",
    "AquaTuple",
    "Cell",
    "ConcatPoint",
    "NIL",
    "Record",
    "alpha",
    "deref",
    "format_list",
    "format_tree",
    "make_tuple",
    "parse_list",
    "parse_tree",
    "tree",
    # -- predicates & patterns --
    "ANY",
    "attr",
    "list_pattern",
    "parse_predicate",
    "pred",
    "sym",
    "tree_pattern",
    # -- algebra operators --
    "all_anc",
    "all_anc_list",
    "all_desc",
    "all_desc_list",
    "apply_list",
    "apply_tree",
    "select",
    "select_list",
    "split",
    "split_list",
    "split_pieces",
    "sub_select",
    "sub_select_approx",
    "sub_select_list",
    "tree_edit_distance",
    # -- storage, optimizer & query layer --
    "Database",
    "Optimizer",
    "Q",
    "evaluate",
    "explain",
    "explain_optimization",
    "optimize",
    "parse_aql",
    "run_aql",
    # -- sessions, prepared queries & serving --
    "AdmissionController",
    "BreakerBoard",
    "CircuitBreaker",
    "Param",
    "PlanCache",
    "PoolStats",
    "PreparedQuery",
    "RetryPolicy",
    "Session",
    "SessionPool",
    "default_session",
    "prepare",
    # -- document store --
    "DocNode",
    "Document",
    "compile_path",
    "from_html",
    "from_json",
    "from_xml",
    "load_document",
    "parse_path",
    "to_html",
    "to_json",
    "to_xml",
    # -- meta --
    "__version__",
]
