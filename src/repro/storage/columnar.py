"""Columnar list start source: predicate columns + one shift-AND pass.

The paper's alphabet predicates (§3.1) are constant-time unary
functions — ideal for batch evaluation over a whole list.
:class:`ColumnarList` evaluates each column-servable atom of a list
pattern once over the list's value array as a bitset — a Python int,
bit ``p`` set when the element at position ``p`` satisfies it — and
:meth:`ColumnarList.candidate_starts` runs the pattern's required-atom
profile over those columns in one shift-AND pass: the start positions
any match could begin at.

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
every leaf column evaluates the real (compiled) predicate once per
element, and ``AND`` / ``OR`` / ``NOT`` combine whole columns.  Both
kernels between elements and bits are linear: a column is parsed from
one base-2 digit string and read back from one ``bin()`` string
(base-2 conversions are exempt from the int↔str digit limit).
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..context import emit
from ..core.aqua_list import AquaList
from ..params import Param, try_resolve
from ..predicates.alphabet import (
    AlphabetPredicate,
    And,
    Comparison,
    Not,
    Or,
    SymbolEquals,
    TruePredicate,
)
from .database import STRUCTURE_LOCK

#: Minimum element count before a list's predicate columns are built:
#: below it the shift-AND saves less than the column builds cost, and the
#: list scan walks every start instead (bit-identical answers).
COLUMNAR_MIN_LENGTH = 512


def column_servable(predicate: AlphabetPredicate) -> bool:
    """Can ``predicate`` be evaluated once-per-list as a column?

    Servable means the predicate is built from the paper's restricted
    grammar (comparisons, symbol equality, ``?``, AND/OR/NOT) and every
    ``$param`` constant it reads is bound now — an AQL text's lifted
    constants always are.  Columns are cached per list under the
    predicate with the run's bindings substituted
    (:meth:`ColumnarList.predicate_column`), so each binding gets its
    own column and an unbound slot is refused.  Opaque
    :class:`RawPredicate` callables are refused (they may close over
    mutable state, so eager whole-list evaluation is unsound).
    """
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, Comparison):
        return _bound(predicate.constant)
    if isinstance(predicate, SymbolEquals):
        return _bound(predicate.symbol)
    if isinstance(predicate, (And, Or)):
        return all(column_servable(term) for term in predicate.terms)
    if isinstance(predicate, Not):
        return column_servable(predicate.term)
    return False


def _bound(constant: object) -> bool:
    return not isinstance(constant, Param) or try_resolve(constant)[1]


class ColumnarList:
    """Positional predicate columns for one stored list.

    The batch analogue of :class:`~repro.storage.tree_index.ListIndex`:
    instead of hashing equality keys to positions, each atom predicate
    becomes a bitset over positions, and :meth:`candidate_starts` runs
    the list pattern's required-symbol profile over those columns in one
    shift-AND pass — a start survives only if every required atom has a
    satisfying element at one of its feasible offsets.  A column is a
    Python int over positions ``0 .. size-1``.
    """

    def __init__(self, aqua_list: AquaList) -> None:
        # The values, not the list: cached on the list, the columns must
        # not point back at it (a cycle only the cyclic collector frees).
        self.values = aqua_list.value_array
        self.size = len(self.values)
        self._lock = threading.RLock()
        self._pred_columns: dict[AlphabetPredicate, int] = {}
        #: Cumulative build telemetry (also emitted to the active stats
        #: sinks as ``column_builds`` / ``column_rows`` at build time).
        self.column_builds = 0
        self.column_rows = 0

    # -- column access ---------------------------------------------------------

    def predicate_column(self, predicate: AlphabetPredicate) -> int:
        """The predicate's bitset column, built (and cached) on demand,
        keyed by the predicate with the run's ``$param`` bindings
        substituted."""
        predicate = predicate.bound()
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

    def positions(self, column: int) -> list[int]:
        """Set-bit positions of ``column``, ascending: one pass over its
        binary digits, lowest first."""
        digits = bin(column)[:1:-1]
        result = []
        position = digits.find("1")
        while position >= 0:
            result.append(position)
            position = digits.find("1", position + 1)
        return result

    # -- column construction ---------------------------------------------------

    def _all(self) -> int:
        """The column every position is in."""
        return (1 << self.size) - 1

    def _build_column(self, predicate: AlphabetPredicate) -> int:
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
        return self._loop_column(predicate)

    def _loop_column(self, predicate: AlphabetPredicate) -> int:
        """The real predicate, once per element, into one base-2 digit
        string (position ``p`` is digit ``size-1-p``) parsed once."""
        predicate = predicate.compile() or predicate  # bound ⇒ param-free
        if not self.size:
            return 0
        top = self.size - 1
        digits = bytearray(b"0") * self.size
        for position, value in enumerate(self.values):
            if predicate(value):
                digits[top - position] = 49  # ord("1")
        return int(digits, 2)

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
