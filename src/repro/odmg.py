"""ODMG-93 collection interfaces mapped onto the AQUA algebra (paper §8).

"As part of our research on AQUA, we have developed a mapping for the
ODMG set and bag algebra to the AQUA set and multiset algebra.  The
array type in the ODMG specification is similar to our notion of list,
and we believe that we will have little difficulty simulating the ODMG
arrays with AQUA lists."

This module carries out that program: the ODMG-93 (Release 1.1 [5])
collection operations expressed over the AQUA bulk types.

* :class:`OdmgSet` / :class:`OdmgBag` — thin views over
  :class:`~repro.core.aqua_set.AquaSet` / ``AquaMultiset`` with the
  ODMG operation names (``union_of``, ``insert_element`` ...).
* :class:`OdmgArray` — the ODMG array simulated with an AQUA list:
  positional access, in-place-style updates (persistent underneath),
  and ``resize`` semantics.  AQUA's pattern operators remain available
  through :meth:`OdmgArray.as_aqua_list` — which is the paper's point:
  the ODMG interface costs nothing, the richer predicates come free.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .core.aqua_list import AquaList
from .core.aqua_set import AquaMultiset, AquaSet
from .core.equality import DEFAULT, Equality
from .errors import QueryError


class OdmgSet:
    """ODMG ``Set<T>`` over an AQUA set."""

    def __init__(self, items: Iterable[Any] = (), equality: Equality = DEFAULT) -> None:
        self._set = AquaSet(items, equality)

    # -- ODMG collection protocol ------------------------------------------

    def cardinality(self) -> int:
        return len(self._set)

    def is_empty(self) -> bool:
        return not self._set

    def contains_element(self, element: Any) -> bool:
        return element in self._set

    def insert_element(self, element: Any) -> None:
        self._set.add(element)

    def remove_element(self, element: Any) -> None:
        if element not in self._set:
            raise QueryError("remove_element: element not present")
        self._set = self._set.difference(AquaSet([element], self._set.equality))

    # -- ODMG set algebra -----------------------------------------------------

    def union_of(self, other: "OdmgSet") -> "OdmgSet":
        return OdmgSet(self._set.union(other._set))

    def intersection_of(self, other: "OdmgSet") -> "OdmgSet":
        return OdmgSet(self._set.intersection(other._set))

    def difference_of(self, other: "OdmgSet") -> "OdmgSet":
        return OdmgSet(self._set.difference(other._set))

    def select(self, predicate: Callable[[Any], bool]) -> "OdmgSet":
        return OdmgSet(self._set.select(predicate))

    def is_subset_of(self, other: "OdmgSet") -> bool:
        return all(element in other._set for element in self._set)

    def is_proper_subset_of(self, other: "OdmgSet") -> bool:
        return self.is_subset_of(other) and self.cardinality() < other.cardinality()

    # -- bridges -----------------------------------------------------------------

    def as_aqua_set(self) -> AquaSet:
        return self._set

    def __iter__(self) -> Iterator[Any]:
        return iter(self._set)

    def __repr__(self) -> str:
        return f"OdmgSet({sorted(map(repr, self._set))})"


class OdmgBag:
    """ODMG ``Bag<T>`` over an AQUA multiset."""

    def __init__(self, items: Iterable[Any] = (), equality: Equality = DEFAULT) -> None:
        self._bag = AquaMultiset(items, equality)

    def cardinality(self) -> int:
        return len(self._bag)

    def is_empty(self) -> bool:
        return len(self._bag) == 0

    def contains_element(self, element: Any) -> bool:
        return element in self._bag

    def occurrences_of(self, element: Any) -> int:
        return self._bag.count(element)

    def insert_element(self, element: Any) -> None:
        self._bag.add(element)

    def remove_element(self, element: Any) -> None:
        if element not in self._bag:
            raise QueryError("remove_element: element not present")
        self._bag = self._bag.difference(AquaMultiset([element], self._bag.equality))

    def union_of(self, other: "OdmgBag") -> "OdmgBag":
        result = OdmgBag()
        result._bag = self._bag.union(other._bag)
        return result

    def intersection_of(self, other: "OdmgBag") -> "OdmgBag":
        result = OdmgBag()
        result._bag = self._bag.intersection(other._bag)
        return result

    def difference_of(self, other: "OdmgBag") -> "OdmgBag":
        result = OdmgBag()
        result._bag = self._bag.difference(other._bag)
        return result

    def distinct(self) -> OdmgSet:
        return OdmgSet(self._bag.dup_elim())

    def as_aqua_multiset(self) -> AquaMultiset:
        return self._bag

    def __iter__(self) -> Iterator[Any]:
        return iter(self._bag)


class OdmgArray:
    """ODMG ``Array<T>`` simulated with an AQUA list (§8).

    The ODMG interface mutates; underneath every operation rebuilds the
    persistent AQUA list, so snapshots taken via :meth:`as_aqua_list`
    are never disturbed — and all of §6's pattern machinery applies to
    them unchanged.
    """

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._list = AquaList.from_values(items)

    # -- ODMG array protocol ---------------------------------------------------

    def cardinality(self) -> int:
        return len(self._list)

    upper_bound = cardinality

    def retrieve_element_at(self, index: int) -> Any:
        self._check(index)
        return self._list[index]

    def replace_element_at(self, element: Any, index: int) -> None:
        self._check(index)
        values = self._list.values()
        values[index] = element
        self._list = AquaList.from_values(values)

    def insert_element_at(self, element: Any, index: int) -> None:
        if not 0 <= index <= len(self._list):
            raise QueryError(f"array index {index} out of bounds")
        values = self._list.values()
        values.insert(index, element)
        self._list = AquaList.from_values(values)

    def remove_element_at(self, index: int) -> Any:
        self._check(index)
        values = self._list.values()
        removed = values.pop(index)
        self._list = AquaList.from_values(values)
        return removed

    def resize(self, new_size: int, filler: Any = None) -> None:
        """Grow with ``filler`` or truncate to ``new_size`` (ODMG resize)."""
        if new_size < 0:
            raise QueryError("array size cannot be negative")
        values = self._list.values()
        if new_size <= len(values):
            values = values[:new_size]
        else:
            values = values + [filler] * (new_size - len(values))
        self._list = AquaList.from_values(values)

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self._list):
            raise QueryError(f"array index {index} out of bounds")

    # -- the AQUA bridge ----------------------------------------------------------

    def as_aqua_list(self) -> AquaList:
        """A snapshot usable with every §6 list operator and pattern."""
        return self._list

    def sub_select(self, pattern: Any, resolver=None) -> AquaSet:
        """AQUA's pattern predicates, "significantly more powerful" than
        the ODMG view of collections (§8) — one call away."""
        from .algebra.list_ops import sub_select_list

        return sub_select_list(pattern, self._list, resolver=resolver)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._list)

    def __len__(self) -> int:
        return len(self._list)

    def __repr__(self) -> str:
        return f"OdmgArray({self._list.values()!r})"
