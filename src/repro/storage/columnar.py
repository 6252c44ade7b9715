"""Columnar tree kernel: structure-of-arrays extents + predicate columns.

The paper's alphabet predicates (§3.1) are constant-time unary
functions — ideal for batch evaluation over whole extents — yet every
consumer historically walked linked :class:`~repro.core.aqua_tree.TreeNode`
objects one Python dispatch at a time.  This module re-encodes a stored
tree (or list) as structure-of-arrays:

* :class:`ColumnarExtent` — one per stored tree: the pre-order node and
  label arrays, parent / first-child / next-sibling / depth /
  subtree-size vectors, lazily extracted attribute columns, and cached
  **predicate columns**: each alphabet predicate evaluated once over the
  whole extent as a bitset (a Python int, one bit per pre-order
  position, or a numpy bool array when the ``[columnar]`` extra is
  installed).
* :class:`ColumnarList` — the positional analogue for lists, whose
  predicate columns feed a batch shift-AND pass (the list-pattern DFA's
  required-symbol profile run over the whole label array at once).

Predicate columns generalize the per-query
:class:`~repro.patterns.tree_memo.PredicateBitmap` (PR 4): a bitmap
caches outcomes *as individual nodes are tested*, per query; a column is
computed for the whole extent once and then shared by every consumer of
every query — index fallback scans, anchor analysis, the tree matcher's
``TreeAtom`` fast-fail (its bitmap consults columns through the
``source`` hook) and the batch physical operators.

Gating: the kernel engages only when ``AQUA_COLUMNAR=on`` (the default)
and the structure has at least ``AQUA_COLUMNAR_THRESHOLD`` elements —
small structures pay more in column builds than they save, and their
work counters are pinned by golden tests.  ``AQUA_COLUMNAR_BACKEND``
picks ``numpy`` or pure-``python`` columns (``auto`` prefers numpy when
installed).  Column evaluation is semantics-preserving by construction:
the numpy fast paths only fire for homogeneous native dtypes where the
vectorized comparison agrees with :class:`Comparison`'s per-object
semantics, and everything else evaluates the real predicate per element.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .. import config
from ..core.aqua_list import AquaList
from ..core.aqua_tree import AquaTree, TreeNode
from ..params import Param
from ..predicates.alphabet import (
    AlphabetPredicate,
    And,
    Comparison,
    Not,
    Or,
    SymbolEquals,
    TruePredicate,
    _MISSING,
    _OPERATORS,
    _read_attribute,
)
from . import stats as stats_mod

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy


def _import_numpy():
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on CI's no-numpy leg
        return None
    return numpy


def numpy_available() -> bool:
    """Is the optional ``[columnar]`` extra (numpy) importable?"""
    return _import_numpy() is not None


def resolve_backend(backend: str | None = None) -> str:
    """Resolve ``AQUA_COLUMNAR_BACKEND`` to a concrete backend name.

    ``auto`` prefers numpy and silently falls back to the pure-Python
    bitsets; pinning ``numpy`` without the ``[columnar]`` extra raises
    the standard one-line knob error instead of an import crash.
    """
    chosen = config.validated_columnar_backend(backend)
    if chosen == "python":
        return "python"
    if chosen == "numpy":
        if not numpy_available():
            raise config.invalid_knob(
                config.COLUMNAR_BACKEND_ENV,
                chosen,
                "auto | python (numpy is not installed — "
                "pip install 'repro[columnar]')",
            )
        return "numpy"
    return "numpy" if numpy_available() else "python"


def column_servable(predicate: AlphabetPredicate) -> bool:
    """Can ``predicate`` be evaluated once-per-extent as a column?

    Servable means the predicate is built from the paper's restricted
    grammar (comparisons, symbol equality, ``?``, AND/OR/NOT) with no
    ``$param`` constants — a parameterized predicate's outcome varies
    per binding, and columns are cached per extent, not per query.
    Opaque :class:`RawPredicate` callables are refused (they may close
    over mutable state, so eager whole-extent evaluation is unsound).
    """
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, Comparison):
        return not isinstance(predicate.constant, Param)
    if isinstance(predicate, SymbolEquals):
        return not isinstance(predicate.symbol, Param)
    if isinstance(predicate, (And, Or)):
        return all(column_servable(term) for term in predicate.terms)
    if isinstance(predicate, Not):
        return column_servable(predicate.term)
    return False


class _ColumnStore:
    """Shared machinery: values → predicate bitset columns, per backend.

    Subclasses provide the positional ``values`` sequence and a
    ``present`` test; this class owns the per-predicate column cache,
    the build loop (or vectorized numpy path) and the boolean-algebra
    combinators over whole columns.
    """

    def __init__(self, values: Sequence[Any], present: Sequence[bool], backend: str) -> None:
        self._values = values
        self._present = present
        self._count = len(values)
        self.backend = backend
        self._np = _import_numpy() if backend == "numpy" else None
        self._lock = threading.RLock()
        self._pred_columns: dict[AlphabetPredicate, Any] = {}
        self._attr_columns: dict[str, list[Any]] = {}
        #: Cumulative build telemetry (also emitted to the active stats
        #: sinks as ``column_builds`` / ``column_rows`` at build time).
        self.column_builds = 0
        self.column_rows = 0
        if self._np is not None:
            self._present_mask = self._np.asarray(present, dtype=bool)
        else:
            mask = 0
            for position, flag in enumerate(present):
                if flag:
                    mask |= 1 << position
            self._present_mask = mask

    # -- column access ---------------------------------------------------------

    @property
    def position_count(self) -> int:
        return self._count

    def has_column(self, predicate: AlphabetPredicate) -> bool:
        with self._lock:
            return predicate in self._pred_columns

    def predicate_column(self, predicate: AlphabetPredicate):
        """The predicate's bitset column, built (and cached) on demand."""
        with self._lock:
            column = self._pred_columns.get(predicate)
            if column is None:
                column = self._build_column(predicate)
                self._pred_columns[predicate] = column
                self.column_builds += 1
                self.column_rows += self._count
                stats_mod.emit("column_builds")
                stats_mod.emit("column_rows", self._count)
            return column

    def column_value(self, predicate: AlphabetPredicate, position: int) -> bool | None:
        """Serve one cell from an **already built** column, else ``None``.

        Deliberately never builds: callers probing a handful of nodes
        (index anchor re-checks) must not trigger a whole-extent
        evaluation — only the batch consumers build columns.
        """
        if position >= self._count or not self._present[position]:
            return None
        with self._lock:
            column = self._pred_columns.get(predicate)
        if column is None:
            return None
        stats_mod.emit("column_hits")
        if self._np is not None:
            return bool(column[position])
        return bool(column >> position & 1)

    def positions(self, column) -> list[int]:
        """Set-bit positions of ``column``, ascending."""
        if self._np is not None:
            return [int(i) for i in self._np.flatnonzero(column)]
        result = []
        position = 0
        while column:
            chunk = column & 0xFFFFFFFFFFFFFFFF
            while chunk:
                low = chunk & -chunk
                result.append(position + low.bit_length() - 1)
                chunk ^= low
            column >>= 64
            position += 64
        return result

    def union(self, columns: Iterable[Any]):
        columns = list(columns)
        if self._np is not None:
            out = self._np.zeros(self._count, dtype=bool)
            for column in columns:
                out |= column
            return out
        out = 0
        for column in columns:
            out |= column
        return out

    # -- column construction ---------------------------------------------------

    def _build_column(self, predicate: AlphabetPredicate):
        if isinstance(predicate, And):
            parts = [self._build_column(term) for term in predicate.terms]
            out = parts[0]
            for part in parts[1:]:
                out = out & part
            return out
        if isinstance(predicate, Or):
            parts = [self._build_column(term) for term in predicate.terms]
            out = parts[0]
            for part in parts[1:]:
                out = out | part
            return out
        if isinstance(predicate, Not):
            inner = self._build_column(predicate.term)
            # NOT is relative to the present positions: absent slots
            # (concatenation points) stay outside every column.
            if self._np is not None:
                return self._present_mask & ~inner
            return self._present_mask & ~inner
        if isinstance(predicate, TruePredicate):
            if self._np is not None:
                return self._present_mask.copy()
            return self._present_mask
        return self._leaf_column(predicate)

    def _leaf_column(self, predicate: AlphabetPredicate):
        if self._np is not None:
            vectorized = self._vectorized_leaf(predicate)
            if vectorized is not None:
                return vectorized
        return self._loop_column(predicate)

    def _loop_column(self, predicate: AlphabetPredicate):
        """The semantics oracle: the real predicate, once per element."""
        predicate = predicate.compile() or predicate  # servable ⇒ param-free
        values = self._values
        present = self._present
        if self._np is not None:
            out = self._np.zeros(self._count, dtype=bool)
            for position in range(self._count):
                if present[position] and predicate(values[position]):
                    out[position] = True
            return out
        out = 0
        for position in range(self._count):
            if present[position] and predicate(values[position]):
                out |= 1 << position
        return out

    def attribute_column(self, attribute: str) -> list[Any]:
        """Raw stored-attribute column (``_MISSING`` at absent slots)."""
        with self._lock:
            column = self._attr_columns.get(attribute)
            if column is None:
                column = [
                    _read_attribute(value, attribute) if flag else _MISSING
                    for value, flag in zip(self._values, self._present)
                ]
                self._attr_columns[attribute] = column
            return column

    def _vectorized_leaf(self, predicate: AlphabetPredicate):
        """A numpy fast path, or ``None`` when per-object semantics could
        diverge (mixed dtypes, missing attributes, exotic constants)."""
        np = self._np
        if isinstance(predicate, SymbolEquals):
            raw, constant, op = list(self._values), predicate.symbol, "="
            if not all(self._present):
                return None
        elif isinstance(predicate, Comparison):
            raw, constant, op = (
                self.attribute_column(predicate.attribute),
                predicate.constant,
                predicate.op,
            )
            if any(cell is _MISSING for cell in raw):
                # A missing attribute is False under *every* operator
                # (including ``!=``) — keep that via the eval loop.
                return None
        else:
            return None
        if isinstance(constant, bool):
            kinds = "b"
        elif isinstance(constant, (int, float)):
            kinds = "if"
        elif isinstance(constant, str):
            kinds = "U"
        else:
            return None
        try:
            array = np.asarray(raw)
        except Exception:
            return None
        if array.ndim != 1 or array.dtype.kind not in kinds:
            return None
        try:
            mask = _OPERATORS[op](array, constant)
        except Exception:
            return None
        if not isinstance(mask, np.ndarray) or mask.shape != (self._count,):
            return None
        return mask.astype(bool)


class ColumnarExtent(_ColumnStore):
    """Structure-of-arrays encoding of one stored tree.

    Positions are the tree's own
    :meth:`~repro.core.aqua_tree.AquaTree.layout` — the extent numbers
    nothing itself, so its columns line up with the matcher's bitmap
    planes and memo keys by construction — with concatenation
    points present as positions but absent from every predicate column.
    Built once per tree object and cached by
    :meth:`repro.storage.database.Database.columnar_extent`; a rebound
    root is a new tree object, so the identity-keyed cache plus the
    per-resource version counters give pinned snapshots a consistent
    columnar cut for free (trees are immutable).
    """

    def __init__(self, tree: AquaTree, backend: str | None = None) -> None:
        self.tree = tree
        self.layout = tree.layout()
        self.nodes = self.layout.nodes
        present = [not node.is_concat_point for node in self.nodes]
        values = [
            node.value if flag else None for node, flag in zip(self.nodes, present)
        ]
        super().__init__(values, present, backend or resolve_backend())
        self.size = self.layout.element_count
        self._structure: dict[str, Any] | None = None
        self._root_lists: dict[tuple, list[TreeNode]] = {}

    # -- structure vectors -----------------------------------------------------

    def structure(self) -> dict[str, Any]:
        """The parent/first-child/next-sibling/depth/subtree-size vectors.

        Indexed by pre-order position; ``-1`` marks "none".  Subtree
        sizes count every node (concatenation points included) so
        ``subtree_size[root] == len(nodes)``.  Derived lazily from the
        layout's parent and subtree-end arrays in one loop over positions
        and cached — the navigational complement of the label array for
        batch consumers that walk positions instead of node objects.
        """
        with self._lock:
            if self._structure is None:
                parent = self.layout.parent
                end = self.layout.end
                count = len(parent)
                first_child = [-1] * count
                next_sibling = [-1] * count
                subtree_size = [0] * count
                for position, after in enumerate(end):
                    subtree_size[position] = after - position
                    if after > position + 1:
                        first_child[position] = position + 1
                    # The node right after this subtree is its next
                    # sibling exactly when the two share a parent.
                    if after < count and parent[after] == parent[position]:
                        next_sibling[position] = after
                vectors = {
                    "parent": parent,
                    "depth": self.layout.depth,
                    "first_child": first_child,
                    "next_sibling": next_sibling,
                    "subtree_size": subtree_size,
                }
                if self._np is not None:
                    vectors = {
                        name: self._np.asarray(column, dtype=self._np.int64)
                        for name, column in vectors.items()
                    }
                self._structure = vectors
            return self._structure

    # -- consumers -------------------------------------------------------------

    def servable(self, predicate: AlphabetPredicate) -> bool:
        return column_servable(predicate)

    def position_of(self, node: TreeNode) -> int | None:
        return self.layout.position.get(id(node))

    def outcome_for(self, predicate: AlphabetPredicate, node: TreeNode) -> bool | None:
        """Bitmap ``source`` hook: serve an already built column cell.

        ``None`` means "not served" (unknown node, concat point, or no
        column built yet) — the caller falls back to evaluating the
        predicate itself.  Never triggers a column build.
        """
        position = self.layout.position.get(id(node))
        if position is None:
            return None
        return self.column_value(predicate, position)

    def matching_nodes(self, predicate: AlphabetPredicate) -> list[TreeNode]:
        """Pre-order nodes whose column bit is set (builds the column)."""
        return self.candidate_roots((predicate,))

    def candidate_roots(
        self, anchors: Sequence[AlphabetPredicate]
    ) -> list[TreeNode]:
        """Pre-order nodes satisfying **any** anchor — the complete
        candidate-root set for a pattern with these root predicates.

        Cached per anchor set: repeated queries over a warm extent skip
        both the predicate pass and the bit-extraction loop.
        """
        key = tuple(sorted(anchor.describe() for anchor in anchors))
        with self._lock:
            cached = self._root_lists.get(key)
            if cached is None:
                mask = self.union(
                    self.predicate_column(anchor) for anchor in anchors
                )
                nodes = self.nodes
                cached = [nodes[position] for position in self.positions(mask)]
                self._root_lists[key] = cached
            return cached


class ColumnarList(_ColumnStore):
    """Positional predicate columns for one stored list.

    The batch analogue of :class:`~repro.storage.tree_index.ListIndex`:
    instead of hashing equality keys to positions, each atom predicate
    becomes a bitset over positions, and :meth:`candidate_starts` runs
    the list pattern's required-symbol profile over those columns in one
    shift-AND pass — a start survives only if every required atom has a
    satisfying element at one of its feasible offsets.
    """

    def __init__(self, aqua_list: AquaList, backend: str | None = None) -> None:
        self.aqua_list = aqua_list
        values = aqua_list.value_array
        super().__init__(values, [True] * len(values), backend or resolve_backend())
        self.size = len(values)

    def candidate_starts(
        self,
        choices: Sequence[tuple[AlphabetPredicate, Sequence[int]]],
    ) -> list[int]:
        """Start positions surviving the shift-AND over required atoms.

        ``choices`` pairs each required atom predicate with its feasible
        offsets from the match start (see
        :func:`repro.optimizer.anchors.anchor_offsets`); the result is
        ascending and a superset of all real match starts.
        """
        count = self._count
        if self._np is not None:
            np = self._np
            mask = np.ones(count + 1, dtype=bool)
            for predicate, offsets in choices:
                column = self.predicate_column(predicate)
                shifted = np.zeros(count + 1, dtype=bool)
                for offset in offsets:
                    if offset <= count:
                        shifted[: count - offset] |= column[offset:]
                mask &= shifted
            return [int(i) for i in np.flatnonzero(mask)]
        mask = (1 << (count + 1)) - 1
        for predicate, offsets in choices:
            column = self.predicate_column(predicate)
            shifted = 0
            for offset in offsets:
                shifted |= column >> offset
            mask &= shifted
        return self.positions(mask)


# -- gated access ----------------------------------------------------------------


def columnar_source_for(db: Any, tree: AquaTree) -> ColumnarExtent | None:
    """The tree's columnar extent, when the kernel should engage.

    Centralizes the gating every consumer (the match-root filter, the
    bitmap source, the batch operators) must agree on: the
    ``AQUA_COLUMNAR`` switch, the size threshold, and a storage object
    that actually exposes extents (snapshots delegate to their base, so
    a pinned snapshot sees the same consistent columnar cut).
    """
    if not config.columnar_enabled():
        return None
    provider = getattr(db, "columnar_extent", None)
    if provider is None:
        return None
    return provider(tree, min_size=config.validated_columnar_threshold())


def columnar_list_for(db: Any, aqua_list: AquaList) -> ColumnarList | None:
    """The list analogue of :func:`columnar_source_for`."""
    if not config.columnar_enabled():
        return None
    provider = getattr(db, "columnar_list", None)
    if provider is None:
        return None
    return provider(aqua_list, min_size=config.validated_columnar_threshold())


def columnar_candidate_roots(
    db: Any,
    anchors: Sequence[AlphabetPredicate],
    tree: AquaTree,
) -> list[TreeNode] | None:
    """Candidate match roots via predicate columns, or ``None`` (no gain).

    The engine-level hook behind the match-root filter: given a
    pattern's (column-servable, non-trivial) root predicates, return the
    pre-order nodes any match could root at.  ``None`` leaves the caller
    on the full pre-order scan.
    """
    extent = columnar_source_for(db, tree)
    if extent is None:
        return None
    roots = extent.candidate_roots(anchors)
    stats_mod.emit_many(
        {
            "columnar_roots": len(roots),
            "columnar_pruned": extent.position_count - len(roots),
        }
    )
    return roots
