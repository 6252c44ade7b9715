"""The AQUA ``Tuple`` type constructor (paper §2).

AQUA tuples are positional records written ``⟨x, y, z⟩`` in the paper; the
``split`` examples build them with the tuple-formation function
``λ(x, y, z)⟨x, y, z⟩`` and project them with the functions ``1``, ``2``,
``3`` (e.g. ``f(1(a), 2(a))`` in the ``all_anc`` definition).  We mirror
that with 1-based :meth:`AquaTuple.project` plus Python-native 0-based
indexing.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..errors import TypeMismatchError


class AquaTuple:
    """An immutable positional tuple with 1-based paper-style projection."""

    __slots__ = ("_items",)

    def __init__(self, *items: Any) -> None:
        self._items = tuple(items)

    @property
    def arity(self) -> int:
        return len(self._items)

    def project(self, position: int) -> Any:
        """Paper-style projection: ``project(1)`` is the first component."""
        if not 1 <= position <= len(self._items):
            raise TypeMismatchError(
                f"projection {position} out of range for arity {len(self._items)}"
            )
        return self._items[position - 1]

    def __getitem__(self, index: int) -> Any:
        return self._items[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AquaTuple):
            return self._items == other._items
        if isinstance(other, tuple):
            return self._items == other
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to the plain tuple of its items, so hashed as that tuple.
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(repr(i) for i in self._items)
        return f"⟨{inner}⟩"


def make_tuple(*items: Any) -> AquaTuple:
    """Tuple formation, the ``⟨...⟩`` of the paper."""
    return AquaTuple(*items)
