"""Object identity: OIDs, database objects, and cells.

The AQUA data model (paper §2) is object-oriented: *every* entity has
identity.  Lists and trees additionally require their node sets to be real
sets (no duplicate members), yet users want the same conceptual object to
appear several times in one list or tree.  The paper resolves this with the
``Cell[T]`` type: a node of a list or tree is a cell whose only job is to
hold the identity of the element object.  Two cells are always distinct
objects even when they reference the same contents, so duplicates are
representable while node sets remain sets.

Query operators "implicitly dereference the contents of the cell" (§2);
in this library that dereferencing is performed by the algebra layer via
:func:`deref`.

Identity needs no number: an object's OID is drawn on its first read,
and a copy or a pickle carries its original's.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Iterator

#: Module-level monotonically increasing OID source.  A plain counter is
#: sufficient for a single-process, in-memory OODB substrate.
_OID_COUNTER: Iterator[int] = itertools.count(1)
#: Taken on a first ``oid`` read only: racing first reads see one number.
_OID_LOCK = threading.Lock()


def fresh_oid() -> int:
    """Return a process-unique object identifier."""
    return next(_OID_COUNTER)


class DatabaseObject:
    """Base class for objects with AQUA identity.

    Equality and hashing are ``object``'s: *identity* equality (the
    strictest of the equality notions in §2); value-based equality is
    provided separately by :mod:`repro.core.equality` so operators can be
    parameterized by it.  Identity needs no number to compare by, so
    construction draws none: the ``oid`` is drawn on first read, and a
    copy or a pickle carries its original's.
    """

    __slots__ = ("_oid",)

    @property
    def oid(self) -> int:
        try:
            return self._oid
        except AttributeError:
            with _OID_LOCK:
                try:
                    return self._oid
                except AttributeError:
                    self._oid = oid = fresh_oid()
                    return oid

    def __reduce_ex__(self, protocol: Any) -> Any:
        self.oid  # drawn before the state is taken, so the copy carries it
        return super().__reduce_ex__(protocol)

    def stored_attributes(self) -> dict[str, Any]:
        """Return the stored (non-computed) attributes of this object.

        Alphabet-predicates may only consult stored attributes (§3.1); the
        optimizer uses this hook to verify that constraint.  The default
        implementation exposes everything in ``__dict__`` plus declared
        ``__slots__`` values.
        """
        attrs: dict[str, Any] = {}
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if name != "_oid" and hasattr(self, name):
                    attrs[name] = getattr(self, name)
        attrs.update(getattr(self, "__dict__", {}))
        return attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} oid={self.oid}>"


class Record(DatabaseObject):
    """A generic database object with keyword-supplied stored attributes.

    ``Record(name="Mat", citizen="Brazil")`` is the idiomatic way for the
    examples and workloads to build typed-ish payload objects without
    declaring a class per experiment.
    """

    def __init__(self, **attributes: Any) -> None:
        for name, value in attributes.items():
            setattr(self, name, value)

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.__dict__.items()))
        return f"Record({attrs})"


class Cell(DatabaseObject):
    """A node-holder: a unique object referencing the actual list/tree element.

    ``List[T]`` is shorthand for ``List[Cell[T]]`` (§2).  Cells compare by
    identity; the *contents* may be shared between many cells.
    """

    __slots__ = ("contents",)

    def __init__(self, contents: Any) -> None:
        self.contents = contents

    def __repr__(self) -> str:
        return f"Cell(oid={self.oid}, contents={self.contents!r})"


def as_cell(value: Any) -> Cell:
    """Wrap ``value`` in a fresh :class:`Cell` unless it already is one."""
    if isinstance(value, Cell):
        return value
    return Cell(value)


def deref(value: Any) -> Any:
    """Implicitly dereference a cell, per §2 of the paper.

    Non-cell values pass through unchanged, which lets the algebra layer be
    agnostic about whether a caller handed it raw payloads or cells.
    """
    if isinstance(value, Cell):
        return value.contents
    return value
