"""The AQUA ``List[T]`` bulk type (paper §2, §6).

A list is the ordered bulk type with out-degree at most one: the paper
defines list semantics by viewing a list as a *list-like tree* (each node
has at most one child) and reusing the tree operators.  This module gives
lists a native, efficient representation — a sequence of cells — plus the
labeled-NULL machinery (§3.5) and the conversion to/from list-like trees
that the equivalence properties and the §6 translation rely on.

Entries are either :class:`~repro.core.identity.Cell` (elements) or
:class:`~repro.core.concat.ConcatPoint` (labeled NULLs, visible only to
concatenation).

A list is immutable once built (mutators return new lists), so its
element sequence is position-addressable once, not per query:
:attr:`AquaList.cell_array` is fixed by the constructor and
:attr:`AquaList.value_array` is derived on first use; the position
index, the columnar start source, the list scan operators and ``split``
all read those two tuples instead of re-deriving them.  The position
index and the predicate columns built over them are cached on the list
too (``_index`` / ``_columns``, set by :mod:`repro.storage`), so they
live exactly as long as the list does.  So is its structural hash
(``_hash``), under :class:`~repro.core.aqua_tree.AquaTree`'s contract: a
list handed to set operations is not edited in place.  Copies and
pickles carry the entries alone and derive every cache afresh.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import ConcatenationError, TypeMismatchError
from .aqua_tree import AquaTree, TreeNode
from .concat import NIL, ConcatPoint, Nil, is_concat_point
from .equality import payload_key
from .identity import Cell, as_cell, deref


class AquaList:
    """An ordered sequence of cells, possibly containing labeled NULLs."""

    __slots__ = ("_entries", "_cells", "_values", "_index", "_columns", "_hash")

    def __init__(self, entries: Iterable[Cell | ConcatPoint] = ()) -> None:
        self._entries: tuple[Cell | ConcatPoint, ...] = tuple(entries)
        # Validation visits every entry anyway, so it also fixes the
        # element-cell array: the entries themselves unless labeled NULLs
        # are interleaved.
        cells = [e for e in self._entries if isinstance(e, Cell)]
        if len(cells) == len(self._entries):
            self._cells: tuple[Cell, ...] = self._entries
        else:
            for entry in self._entries:
                if not isinstance(entry, (Cell, ConcatPoint)):
                    raise TypeMismatchError(
                        f"list entries must be cells or concatenation points, got {entry!r};"
                        " use AquaList.of(...) to wrap raw payloads"
                    )
            self._cells = tuple(cells)
        self._values: tuple[Any, ...] | None = None
        self._index = None
        self._columns = None
        self._hash: int | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def of(cls, *payloads: Any) -> "AquaList":
        """Build a list from raw payloads (each wrapped in a fresh cell).

        ``ConcatPoint`` arguments pass through as labeled NULLs.
        """
        return cls.from_values(payloads)

    @classmethod
    def from_values(cls, payloads: Iterable[Any]) -> "AquaList":
        entries: list[Cell | ConcatPoint] = []
        for payload in payloads:
            if isinstance(payload, ConcatPoint):
                entries.append(payload)
            else:
                entries.append(as_cell(payload))
        return cls(entries)

    @classmethod
    def empty(cls) -> "AquaList":
        return cls(())

    @classmethod
    def _adopt(
        cls, entries: tuple[Cell | ConcatPoint, ...], cells: tuple[Cell, ...]
    ) -> "AquaList":
        """Wrap arrays cut from already-validated lists, unchecked.

        ``cells`` must be ``entries`` minus its labeled NULLs (the same
        tuple when there are none).  No per-entry pass, so what a slice
        or a ``split`` piece costs does not depend on whether, or where,
        it carries a labeled NULL.
        """
        adopted = cls.__new__(cls)
        adopted._entries = entries
        adopted._cells = cells
        adopted._values = None
        adopted._index = None
        adopted._columns = None
        adopted._hash = None
        return adopted

    # -- inspection --------------------------------------------------------

    @property
    def entries(self) -> Sequence[Cell | ConcatPoint]:
        """Raw entries, labeled NULLs included (read-only view)."""
        return self._entries

    @property
    def cell_array(self) -> tuple[Cell, ...]:
        """Element cells by position — shared, fixed at construction."""
        return self._cells

    @property
    def value_array(self) -> tuple[Any, ...]:
        """Dereferenced element values by position — shared, derived once.

        Racing first readers compute equal tuples and one wins, so no
        lock is needed.
        """
        values = self._values
        if values is None:
            values = self._values = tuple([cell.contents for cell in self._cells])
        return values

    def cells(self) -> Iterator[Cell]:
        """Element cells only — what the query operators see."""
        return iter(self._cells)

    def values(self) -> list[Any]:
        """Dereferenced element values in order (NULLs skipped).

        A fresh list the caller may mutate; readers that only index or
        iterate use :attr:`value_array`.
        """
        return list(self.value_array)

    def concat_points(self) -> list[ConcatPoint]:
        if self._cells is self._entries:
            return []
        return [e for e in self._entries if is_concat_point(e)]

    def __len__(self) -> int:
        """Number of *elements* (labeled NULLs are not elements)."""
        return len(self._cells)

    def __iter__(self) -> Iterator[Any]:
        """Iterate over dereferenced element values."""
        return iter(self.value_array)

    def __getitem__(self, index: int | slice) -> Any:
        """Index/slice over *element values*; slices return lists of values."""
        if isinstance(index, slice):
            return list(self.value_array[index])
        return self.value_array[index]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    # -- construction of derived lists --------------------------------------

    def sublist(self, start: int, stop: int) -> "AquaList":
        """Contiguous sublist of element positions ``[start, stop)``.

        Positions count elements only; embedded labeled NULLs within the
        window are preserved.
        """
        if self._cells is self._entries:
            start = max(start, 0)
            window = self._entries[start : max(stop, start)]
            return AquaList._adopt(window, window)
        result: list[Cell | ConcatPoint] = []
        position = 0
        for entry in self._entries:
            if position >= stop:
                break
            if isinstance(entry, Cell):
                if start <= position:
                    result.append(entry)
                position += 1
            elif start <= position:
                result.append(entry)
        return AquaList(result)

    def appended(self, payload: Any) -> "AquaList":
        entry = payload if isinstance(payload, ConcatPoint) else as_cell(payload)
        return AquaList([*self._entries, entry])

    # -- concatenation (∘ / ∘α), paper §3.5, §6 ------------------------------

    def concat(self, other: "AquaList") -> "AquaList":
        """Plain list concatenation ``∘`` (append)."""
        return AquaList([*self._entries, *other._entries])

    def concat_at(self, point: ConcatPoint, other: "AquaList | Nil") -> "AquaList":
        """``self ∘α other``: splice ``other`` in at each ``α``-labeled NULL.

        Mirrors tree concatenation: a missing label leaves the list
        unchanged, and :data:`NIL` deletes the labeled NULL.  When the
        label occurs several times, occurrences after the first receive
        fresh cells (node sets are sets).
        """
        if isinstance(other, Nil):
            other_entries: Sequence[Cell | ConcatPoint] = ()
        elif isinstance(other, AquaList):
            other_entries = other._entries
        else:
            raise ConcatenationError(f"cannot concatenate {type(other).__name__} into a list")

        result: list[Cell | ConcatPoint] = []
        occurrences = 0
        for entry in self._entries:
            if is_concat_point(entry) and entry == point:
                occurrences += 1
                if occurrences == 1:
                    result.extend(other_entries)
                else:
                    result.extend(
                        Cell(e.contents) if isinstance(e, Cell) else e for e in other_entries
                    )
            else:
                result.append(entry)
        return AquaList(result)

    def concat_many(self, assignments: Sequence[tuple[ConcatPoint, "AquaList | Nil"]]) -> "AquaList":
        result = self
        for point, sub in assignments:
            result = result.concat_at(point, sub)
        return result

    def close_points(self, points: Iterable[ConcatPoint] | None = None) -> "AquaList":
        """Concatenate NULL into the given points (all points if None)."""
        targets = set(points) if points is not None else set(self.concat_points())
        return AquaList(
            e for e in self._entries if not (is_concat_point(e) and e in targets)
        )

    # -- the list-like-tree view (paper §6) ----------------------------------

    def to_list_like_tree(self) -> AquaTree:
        """Encode as a tree where each node has at most one child.

        ``[abc]`` becomes ``a(b(c))``.  A trailing labeled NULL becomes a
        concatenation-point leaf.  Labeled NULLs are only representable in
        tail position in the tree view (a concatenation point must be a
        leaf), so interior NULLs raise.
        """
        node: TreeNode | None = None
        for index, entry in enumerate(reversed(self._entries)):
            if is_concat_point(entry):
                if index != 0:
                    raise ConcatenationError(
                        "list-like trees only support a concatenation point in tail position"
                    )
                node = TreeNode(entry)
            else:
                node = TreeNode(entry, [node] if node is not None else [])
        return AquaTree(node)

    @classmethod
    def from_list_like_tree(cls, tree: AquaTree) -> "AquaList":
        """Decode a list-like tree back into a list.

        Raises if any node has more than one child.
        """
        entries: list[Cell | ConcatPoint] = []
        node = tree.root
        while node is not None:
            entries.append(node.item)
            if len(node.children) > 1:
                raise TypeMismatchError("tree is not list-like (a node has out-degree > 1)")
            node = node.children[0] if node.children else None
        return cls(entries)

    # -- equality and display -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AquaList):
            return NotImplemented
        if len(self._entries) != len(other._entries):
            return False
        for a, b in zip(self._entries, other._entries):
            if is_concat_point(a) or is_concat_point(b):
                if a != b:
                    return False
            elif not (deref(a) == deref(b)):
                return False
        return True

    def __hash__(self) -> int:
        # Every set stage a result row passes (dedup, the result set)
        # hashes it again: compute once, then read the slot.
        if self._hash is None:
            self._hash = _structural_hash(self._entries)
        return self._hash

    def __reduce__(self):
        return (AquaList, (self._entries,))

    def __repr__(self) -> str:
        from .notation import format_list

        return f"AquaList({format_list(self)})"

    def to_notation(self, label: Callable[[Any], str] | None = None) -> str:
        from .notation import format_list

        return format_list(self, label=label)


def _structural_hash(entries: Sequence[Cell | ConcatPoint]) -> int:
    """Hash a list by value: payloads (unhashable ones by their
    :func:`~repro.core.equality.payload_key`) and labeled NULLs' labels."""
    parts = []
    for entry in entries:
        if is_concat_point(entry):
            parts.append(("@", entry.label))
        else:
            value = deref(entry)
            try:
                hash(value)
            except TypeError:
                value = payload_key(value)
            parts.append(("v", value))
    return hash(("AquaList", tuple(parts)))
