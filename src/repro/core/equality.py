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
    ``key`` contract is what allows linear-time duplicate elimination;
    both are the plain functions given, so a dedup loop calling
    ``equality.key`` makes one call per row.  The module's notions
    pickle and copy by name, so a loaded set's notion *is*
    :data:`IDENTITY` (or :data:`SHALLOW`, :data:`DEEP`) again.
    """

    def __init__(
        self,
        name: str,
        eq: Callable[[Any, Any], bool],
        key: Callable[[Any], Hashable],
    ) -> None:
        self.name = name
        self.eq = eq
        self.key = key

    def __call__(self, a: Any, b: Any) -> bool:
        return self.eq(a, b)

    def __reduce__(self):
        constant = self.name.upper()
        if globals().get(constant) is self:
            return constant
        return (Equality, (self.name, self.eq, self.key))

    def __repr__(self) -> str:
        return f"Equality({self.name})"


def _identity_key(value: Any) -> Hashable:
    if isinstance(value, DatabaseObject):
        try:  # the slot itself: a drawn OID costs no property call
            return ("oid", value._oid)
        except AttributeError:
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


def _identity_eq(a: Any, b: Any) -> bool:
    return _identity_key(a) == _identity_key(b)


def _shallow_eq(a: Any, b: Any) -> bool:
    return _shallow_key(a) == _shallow_key(b)


def _deep_eq(a: Any, b: Any) -> bool:
    return _deep_key(a) == _deep_key(b)


IDENTITY = Equality("identity", _identity_eq, _identity_key)
SHALLOW = Equality("shallow", _shallow_eq, _shallow_key)
DEEP = Equality("deep", _deep_eq, _deep_key)

#: The default equality used by operators when none is supplied.
DEFAULT = IDENTITY
