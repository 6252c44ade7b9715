"""Query parameters: named slots bound at execution time.

A :class:`Param` is a placeholder for a value supplied when the query
*runs*, not when it is built — the piece that makes a cached plan
reusable across invocations (see :mod:`repro.query.prepare`).  Params
appear in three notations that all converge on the same object:

* ``E.Param("name")`` — an expression node evaluating to the binding;
* ``Q.param("name")`` — the builder's placeholder, usable wherever a
  predicate constant is (``attr("age") > Q.param("limit")``);
* ``$name`` inside an AQL ``{...}`` predicate.

AQL text also gets *hidden* slots: :class:`Literals` lifts a text's
constants into ``$0``, ``$1``, …, so texts that differ only in their
constants share one cached plan.  A user slot name
starts with a letter or ``_`` — as the AQL lexer spells ``$name`` — so
no user slot can ever collide with a lifted one.

Bindings are *dynamically scoped*: a run arms its mapping in the
thread's :class:`~repro.context.QueryContext` (nested bindings merge
over the outer ones), and :func:`resolve` reads it.  The execution
drivers arm it, so user code only ever supplies a plain
``params={...}`` dict.

The module deliberately imports nothing but :mod:`repro.errors`,
:mod:`repro.context` and :mod:`repro.lexer`, so every layer (predicates, patterns, storage,
query) can depend on it without cycles.
"""

from __future__ import annotations

from typing import Any

from . import context
from .errors import QueryError
from .lexer import is_word


class Param:
    """A named parameter slot, bound when a query runs.

    Two params with the same name are the same slot (equality and hash
    follow the name), which is what lets a plan fingerprint treat
    ``$name`` as a stable structural feature while the bound value
    varies call to call.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not is_word(name) or not (name[0].isalpha() or name[0] == "_"):
            raise QueryError(
                f"invalid parameter name {name!r}"
                " (letters, digits and '_', not starting with a digit)"
            )
        self.name = name

    @property
    def lifted(self) -> bool:
        """Is this a hidden slot holding an AQL text's own constant?"""
        return self.name[0].isdigit()

    def describe(self) -> str:
        return f"${self.name}"

    def __repr__(self) -> str:
        return f"${self.name}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Param):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Param", self.name))


class Literals:
    """The constants one AQL text lifts into hidden slots, in text order.

    :meth:`slot` hands out ``$0``, ``$1``, … — one per occurrence — and
    records each slot's value in :attr:`values`, the bindings every run
    of the text arms.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: dict[str, Any] = {}

    def slot(self, value: Any) -> Param:
        # Built past the name check, which keeps users from spelling one.
        slot = object.__new__(Param)
        slot.name = str(len(self.values))
        self.values[slot.name] = value
        return slot


def _bindings() -> Any:
    """The bindings armed on this thread, or ``None``."""
    ctx = context.current()
    return None if ctx is None else ctx.bindings


def resolve(value: Any) -> Any:
    """``value`` itself, or the binding when it is a :class:`Param`.

    Raises a :class:`~repro.errors.QueryError` naming the missing slot
    when no binding is armed — the error a caller sees when running a
    parameterized query without ``params={...}``.
    """
    if isinstance(value, Param):
        bindings = _bindings()
        if bindings is None or value.name not in bindings:
            raise QueryError(
                f"unbound query parameter ${value.name}"
                f" (pass params={{'{value.name}': ...}})"
            )
        return bindings[value.name]
    return value


def try_resolve(value: Any) -> tuple[Any, bool]:
    """``(resolved, ok)`` — like :func:`resolve` but never raises.

    ``ok`` is ``False`` when ``value`` is an unbound :class:`Param`;
    plan-time analyses use this to keep working without bindings.
    """
    if isinstance(value, Param):
        bindings = _bindings()
        if bindings is None or value.name not in bindings:
            return None, False
        return bindings[value.name], True
    return value, True


def is_bindable(value: Any) -> bool:
    """Can ``value`` serve as an index-probe key? (Hashable check.)

    The re-plan guard of :class:`~repro.query.prepare.PreparedQuery`
    uses this: an anchor chosen at prepare time assumed an equality
    probe, which a binding with an unhashable value invalidates.
    """
    try:
        hash(value)
    except TypeError:
        return False
    return True
