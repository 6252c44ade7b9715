"""AQUA sets and multisets (paper §2; operators from the DBPL'93 algebra).

The ICDE'95 list/tree operators were designed to *generalize* the existing
set and multiset operators, and the paper leans on that correspondence: a
tree or list with an empty edge set behaves exactly like a set under the
shared operators.  This module implements the unordered substrate the
paper assumes: ``select``, ``apply``, ``fold``, ``union``, ``intersection``
and ``difference`` (all parameterizable by an :class:`~repro.core.equality.
Equality` notion), plus duplicate elimination and cartesian product.

Both collections preserve *insertion order of representatives* internally.
That is an implementation convenience (it makes results deterministic and
testable); semantically they remain unordered, and ``__eq__`` ignores
order.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Hashable, Iterable, Iterator

from ..errors import TypeMismatchError
from .aqua_tuple import AquaTuple
from .equality import DEFAULT, Equality


class AquaSet:
    """An AQUA set: no duplicates under the set's equality notion.

    The equality notion is fixed at construction (it determines membership)
    but binary operators accept an override, mirroring the paper's
    "equality as a parameter to some of its operators".
    """

    __slots__ = ("_items", "_keys", "equality")

    def __init__(self, items: Iterable[Any] = (), equality: Equality = DEFAULT) -> None:
        self.equality = equality
        self._items: list[Any] = []
        #: Member keys in member order (a dict, so it stays aligned with
        #: ``_items``), or ``None`` until first needed.
        self._keys: dict[Hashable, None] | None = {}
        for item in items:
            self.add(item)

    @classmethod
    def distinct(cls, items: list[Any], equality: Equality = DEFAULT) -> "AquaSet":
        """The set of ``items`` (owned from now on), no two equal under
        ``equality``: keyed on the first ``add``, ``in``, ``==`` or ``hash``,
        so a deduplicated stream's rows, only iterated, are keyed once."""
        result = cls.__new__(cls)
        result.equality, result._items, result._keys = equality, items, None
        return result

    def _key_set(self) -> dict[Hashable, None]:
        keys = self._keys
        if keys is None:
            keys = self._keys = dict.fromkeys(map(self.equality.key, self._items))
        return keys

    def keyed(self, equality: Equality) -> Iterator[tuple[Any, Hashable]]:
        """``(member, key under equality)`` in member order — the set's
        own keys, made at most once, when ``equality`` is its notion."""
        if equality is self.equality:
            return zip(self._items, self._key_set())
        return ((item, equality.key(item)) for item in self._items)

    # -- basic protocol ---------------------------------------------------

    def add(self, item: Any) -> bool:
        """Insert ``item``; return True if it was new under this equality."""
        key = self.equality.key(item)
        keys = self._keys if self._keys is not None else self._key_set()
        if key in keys:
            return False
        keys[key] = None
        self._items.append(item)
        return True

    def __contains__(self, item: Any) -> bool:
        return self.equality.key(item) in self._key_set()

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AquaSet):
            return self._key_set() == other._key_set()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._key_set()))

    def __repr__(self) -> str:
        inner = ", ".join(repr(i) for i in self._items)
        return f"AquaSet{{{inner}}}"

    # -- query operators --------------------------------------------------

    def select(self, predicate: Callable[[Any], bool]) -> "AquaSet":
        """All members satisfying ``predicate`` (a unary boolean function)."""
        return AquaSet((i for i in self._items if predicate(i)), self.equality)

    def apply(self, function: Callable[[Any], Any]) -> "AquaSet":
        """Apply ``function`` to every member (the set functor/map)."""
        return AquaSet((function(i) for i in self._items), self.equality)

    def fold(self, function: Callable[[Any, Any], Any], initial: Any) -> Any:
        """Structural reduction: ``fold(f, z)`` combines members into ``z``.

        AQUA's ``fold`` is the set-structure catamorphism; ``split`` is its
        order-preserving, pattern-driven analog for trees (paper §4).
        """
        accumulator = initial
        for item in self._items:
            accumulator = function(accumulator, item)
        return accumulator

    def union(self, other: "AquaSet", equality: Equality | None = None) -> "AquaSet":
        eq = equality or self.equality
        result = AquaSet(self._items, eq)
        for item in other:
            result.add(item)
        return result

    def intersection(self, other: "AquaSet", equality: Equality | None = None) -> "AquaSet":
        eq = equality or self.equality
        other_keys = {eq.key(i) for i in other}
        return AquaSet((i for i in self._items if eq.key(i) in other_keys), eq)

    def difference(self, other: "AquaSet", equality: Equality | None = None) -> "AquaSet":
        eq = equality or self.equality
        other_keys = {eq.key(i) for i in other}
        return AquaSet((i for i in self._items if eq.key(i) not in other_keys), eq)

    def product(self, other: "AquaSet") -> "AquaSet":
        """Cartesian product; pairs are :class:`AquaTuple` of arity 2."""
        return AquaSet(
            (AquaTuple(a, b) for a in self._items for b in other),
            self.equality,
        )

    def exists(self, predicate: Callable[[Any], bool]) -> bool:
        return any(predicate(i) for i in self._items)

    def for_all(self, predicate: Callable[[Any], bool]) -> bool:
        return all(predicate(i) for i in self._items)


class AquaMultiset:
    """An AQUA multiset (bag): membership with multiplicity.

    Multiplicities follow the conventional bag algebra: ``union`` adds
    them, ``intersection`` takes the minimum and ``difference`` subtracts
    (floored at zero).
    """

    __slots__ = ("_counts", "_representatives", "equality")

    def __init__(self, items: Iterable[Any] = (), equality: Equality = DEFAULT) -> None:
        self.equality = equality
        self._counts: Counter = Counter()
        self._representatives: dict[Hashable, Any] = {}
        for item in items:
            self.add(item)

    def add(self, item: Any, count: int = 1) -> None:
        if count < 0:
            raise TypeMismatchError("multiset multiplicities cannot be negative")
        key = self.equality.key(item)
        self._counts[key] += count
        self._representatives.setdefault(key, item)

    def count(self, item: Any) -> int:
        return self._counts[self.equality.key(item)]

    def __contains__(self, item: Any) -> bool:
        return self.count(item) > 0

    def __iter__(self) -> Iterator[Any]:
        for key, count in self._counts.items():
            representative = self._representatives[key]
            for _ in range(count):
                yield representative

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AquaMultiset):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        inner = ", ".join(repr(i) for i in self)
        return f"AquaMultiset{{{inner}}}"

    # -- query operators --------------------------------------------------

    def select(self, predicate: Callable[[Any], bool]) -> "AquaMultiset":
        result = AquaMultiset((), self.equality)
        for key, count in self._counts.items():
            representative = self._representatives[key]
            if predicate(representative):
                result.add(representative, count)
        return result

    def apply(self, function: Callable[[Any], Any]) -> "AquaMultiset":
        result = AquaMultiset((), self.equality)
        for key, count in self._counts.items():
            result.add(function(self._representatives[key]), count)
        return result

    def fold(self, function: Callable[[Any, Any], Any], initial: Any) -> Any:
        accumulator = initial
        for item in self:
            accumulator = function(accumulator, item)
        return accumulator

    def union(self, other: "AquaMultiset") -> "AquaMultiset":
        result = AquaMultiset((), self.equality)
        for key, count in self._counts.items():
            result.add(self._representatives[key], count)
        for item in other:
            result.add(item)
        return result

    def intersection(self, other: "AquaMultiset") -> "AquaMultiset":
        result = AquaMultiset((), self.equality)
        for key, count in self._counts.items():
            representative = self._representatives[key]
            other_count = other.count(representative)
            if other_count:
                result.add(representative, min(count, other_count))
        return result

    def difference(self, other: "AquaMultiset") -> "AquaMultiset":
        result = AquaMultiset((), self.equality)
        for key, count in self._counts.items():
            representative = self._representatives[key]
            remaining = count - other.count(representative)
            if remaining > 0:
                result.add(representative, remaining)
        return result

    def dup_elim(self) -> AquaSet:
        """Collapse to an :class:`AquaSet` of representatives."""
        return AquaSet(self._representatives.values(), self.equality)
