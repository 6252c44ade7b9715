"""Parameterized equality, per §2 of the paper.

Because every AQUA entity has identity, "are these equal?" has several
legitimate answers.  AQUA therefore lets queries pass an equality notion as
a parameter (e.g. to set ``union``).  This module provides the standard
notions as first-class strategy objects:

* :data:`IDENTITY` — same object (same OID).
* :data:`SHALLOW` — same stored attribute values, compared with ``==``
  (one level deep; attribute values that are themselves objects are
  compared by identity).
* :data:`DEEP` — structural equality that recursively descends into
  database objects, cells, tuples, lists and dicts.

Each strategy is both an equivalence predicate and a key function, so the
set/multiset algebra can use hash-based implementations.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from .identity import Cell, DatabaseObject


class Equality:
    """An equality notion usable by algebra operators.

    ``eq(a, b)`` decides equivalence and ``key(a)`` produces a hashable
    canonical key such that ``eq(a, b)`` iff ``key(a) == key(b)``.  The
    ``key`` contract is what allows linear-time duplicate elimination.
    """

    def __init__(
        self,
        name: str,
        eq: Callable[[Any, Any], bool],
        key: Callable[[Any], Hashable],
    ) -> None:
        self.name = name
        self._eq = eq
        self._key = key

    def eq(self, a: Any, b: Any) -> bool:
        return self._eq(a, b)

    def key(self, value: Any) -> Hashable:
        return self._key(value)

    def __call__(self, a: Any, b: Any) -> bool:
        return self.eq(a, b)

    def __repr__(self) -> str:
        return f"Equality({self.name})"


def _identity_key(value: Any) -> Hashable:
    if isinstance(value, DatabaseObject):
        return ("oid", value.oid)
    return ("val", _hashable(value))


def _hashable(value: Any) -> Hashable:
    """Coerce arbitrary values into something hashable for keying."""
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, set):
        return frozenset(_hashable(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def payload_key(value: Any) -> Hashable:
    """What a structural hash files an unhashable payload under.

    The canonical form :func:`_hashable` builds (dict items sorted, lists
    as tuples, sets as frozensets), so payloads that compare equal key
    equal whatever their dict order; ``repr`` only when that form itself
    fails (dict keys that do not sort).
    """
    try:
        return _hashable(value)
    except TypeError:
        return repr(value)


def _shallow_key(value: Any) -> Hashable:
    if isinstance(value, Cell):
        return _shallow_key(value.contents)
    if isinstance(value, DatabaseObject):
        attrs = value.stored_attributes()
        return (
            type(value).__name__,
            tuple(sorted((k, _identity_key(v)) for k, v in attrs.items())),
        )
    return ("val", _hashable(value))


def _deep_key(value: Any, _depth: int = 0) -> Hashable:
    if _depth > 64:
        raise RecursionError("deep equality exceeded recursion budget")
    if isinstance(value, Cell):
        return _deep_key(value.contents, _depth + 1)
    if isinstance(value, DatabaseObject):
        attrs = value.stored_attributes()
        return (
            type(value).__name__,
            tuple(sorted((k, _deep_key(v, _depth + 1)) for k, v in attrs.items())),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_deep_key(v, _depth + 1) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _deep_key(v, _depth + 1)) for k, v in value.items()))
    return ("val", _hashable(value))


IDENTITY = Equality("identity", lambda a, b: _identity_key(a) == _identity_key(b), _identity_key)
SHALLOW = Equality("shallow", lambda a, b: _shallow_key(a) == _shallow_key(b), _shallow_key)
DEEP = Equality("deep", lambda a, b: _deep_key(a) == _deep_key(b), _deep_key)

#: The default equality used by operators when none is supplied.
DEFAULT = IDENTITY
