"""Columnar list start source: predicate columns + one shift-AND pass.

The paper's alphabet predicates (§3.1) are constant-time unary
functions — ideal for batch evaluation over a whole list.
:class:`ColumnarList` evaluates each column-servable atom of a list
pattern once over the list's value array as a bitset (a numpy bool
array when numpy — the ``[columnar]`` extra — imports, else a Python
int, one bit per position), and :meth:`ColumnarList.candidate_starts`
runs the pattern's required-atom profile over those columns in one
shift-AND pass: the start positions any match could begin at.

It is the list scan's start source beside the position index
(:class:`~repro.storage.tree_index.ListIndex`): the index probes one
equality anchor, the columns conjoin every servable atom.  Tree scans
have no columnar counterpart — the matcher's root first-set scan
(:func:`repro.patterns.tree_match._candidate_roots`) narrows their
candidate roots.

Columns engage on lists of at least :data:`COLUMNAR_MIN_LENGTH`
elements (shorter ones pay more in column builds than they save) and
are cached on the list itself (:func:`columnar_list_for`), so they die
with it.  Column evaluation is semantics-preserving by construction:
the numpy fast paths only fire for homogeneous native dtypes where the
vectorized comparison agrees with :class:`Comparison`'s per-object
semantics, and everything else evaluates the real predicate per element.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from ..context import emit
from ..core.aqua_list import AquaList
from ..errors import QueryError
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
from .database import STRUCTURE_LOCK

#: Minimum element count before a list's predicate columns are built:
#: below it the shift-AND saves less than the column builds cost, and the
#: list scan walks every start instead (bit-identical answers).
COLUMNAR_MIN_LENGTH = 512


def _import_numpy():
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on CI's no-numpy leg
        return None
    return numpy


def numpy_available() -> bool:
    """Is the optional ``[columnar]`` extra (numpy) importable?"""
    return _import_numpy() is not None


def resolve_backend() -> str:
    """The column backend this process uses: ``numpy`` when it imports,
    else ``python`` (int bitsets).  Answers are identical either way."""
    return "numpy" if numpy_available() else "python"


def column_servable(predicate: AlphabetPredicate) -> bool:
    """Can ``predicate`` be evaluated once-per-list as a column?

    Servable means the predicate is built from the paper's restricted
    grammar (comparisons, symbol equality, ``?``, AND/OR/NOT) with no
    ``$param`` constants — a parameterized predicate's outcome varies
    per binding, and columns are cached per list, not per query.
    Opaque :class:`RawPredicate` callables are refused (they may close
    over mutable state, so eager whole-list evaluation is unsound).
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


class ColumnarList:
    """Positional predicate columns for one stored list.

    The batch analogue of :class:`~repro.storage.tree_index.ListIndex`:
    instead of hashing equality keys to positions, each atom predicate
    becomes a bitset over positions, and :meth:`candidate_starts` runs
    the list pattern's required-symbol profile over those columns in one
    shift-AND pass — a start survives only if every required atom has a
    satisfying element at one of its feasible offsets.

    ``backend`` pins ``numpy`` or ``python`` columns (tests run both);
    by default it is :func:`resolve_backend`'s.
    """

    def __init__(self, aqua_list: AquaList, backend: str | None = None) -> None:
        backend = backend or resolve_backend()
        if backend not in ("numpy", "python"):
            raise QueryError(f"unknown column backend {backend!r} (numpy | python)")
        self._np = _import_numpy() if backend == "numpy" else None
        if backend == "numpy" and self._np is None:
            raise QueryError(
                "numpy columns need numpy (pip install 'repro[columnar]')"
            )
        self.backend = backend
        # The values, not the list: cached on the list, the columns must
        # not point back at it (a cycle only the cyclic collector frees).
        self.values = aqua_list.value_array
        self.size = len(self.values)
        self._lock = threading.RLock()
        self._pred_columns: dict[AlphabetPredicate, Any] = {}
        self._attr_columns: dict[str, list[Any]] = {}
        #: Cumulative build telemetry (also emitted to the active stats
        #: sinks as ``column_builds`` / ``column_rows`` at build time).
        self.column_builds = 0
        self.column_rows = 0

    # -- column access ---------------------------------------------------------

    def predicate_column(self, predicate: AlphabetPredicate):
        """The predicate's bitset column, built (and cached) on demand."""
        with self._lock:
            column = self._pred_columns.get(predicate)
            if column is None:
                column = self._build_column(predicate)
                self._pred_columns[predicate] = column
                self.column_builds += 1
                self.column_rows += self.size
                emit("column_builds")
                emit("column_rows", self.size)
            return column

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

    # -- column construction ---------------------------------------------------

    def _all(self):
        """The column every position is in."""
        if self._np is not None:
            return self._np.ones(self.size, dtype=bool)
        return (1 << self.size) - 1

    def _build_column(self, predicate: AlphabetPredicate):
        if isinstance(predicate, (And, Or)):
            parts = [self._build_column(term) for term in predicate.terms]
            out = parts[0]
            for part in parts[1:]:
                out = out & part if isinstance(predicate, And) else out | part
            return out
        if isinstance(predicate, Not):
            return self._all() ^ self._build_column(predicate.term)
        if isinstance(predicate, TruePredicate):
            return self._all()
        if self._np is not None:
            vectorized = self._vectorized_leaf(predicate)
            if vectorized is not None:
                return vectorized
        return self._loop_column(predicate)

    def _loop_column(self, predicate: AlphabetPredicate):
        """The semantics oracle: the real predicate, once per element."""
        predicate = predicate.compile() or predicate  # servable ⇒ param-free
        if self._np is not None:
            out = self._np.zeros(self.size, dtype=bool)
            for position, value in enumerate(self.values):
                if predicate(value):
                    out[position] = True
            return out
        out = 0
        for position, value in enumerate(self.values):
            if predicate(value):
                out |= 1 << position
        return out

    def attribute_column(self, attribute: str) -> list[Any]:
        """Raw stored-attribute column (``_MISSING`` where absent)."""
        with self._lock:
            column = self._attr_columns.get(attribute)
            if column is None:
                column = [_read_attribute(value, attribute) for value in self.values]
                self._attr_columns[attribute] = column
            return column

    def _vectorized_leaf(self, predicate: AlphabetPredicate):
        """A numpy fast path, or ``None`` when per-object semantics could
        diverge (mixed dtypes, missing attributes, exotic constants)."""
        np = self._np
        if isinstance(predicate, SymbolEquals):
            raw, constant, op = list(self.values), predicate.symbol, "="
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
        if not isinstance(mask, np.ndarray) or mask.shape != (self.size,):
            return None
        return mask.astype(bool)

    # -- the start source --------------------------------------------------------

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
        count = self.size
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


def columnar_list_for(aqua_list: AquaList) -> ColumnarList | None:
    """The list's predicate columns, or ``None`` when it is shorter than
    :data:`COLUMNAR_MIN_LENGTH` (the caller scans every start instead).

    Built on first use and cached on the list, like its layout-free
    value array: lists are immutable, a rebound root is a new list with
    its own columns, and a pinned snapshot keeps reading the list it
    captured — so every reader sees a consistent cut, and the columns
    are collected with the list.
    """
    if len(aqua_list) < COLUMNAR_MIN_LENGTH:
        return None
    columns = aqua_list._columns
    if columns is None:
        with STRUCTURE_LOCK:
            columns = aqua_list._columns
            if columns is None:
                columns = aqua_list._columns = ColumnarList(aqua_list)
    return columns
