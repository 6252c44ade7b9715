"""Alphabet-predicates (paper §3.1).

An *alphabet-predicate* is a unary boolean function applied to one object;
the alphabet of every list/tree pattern is a set of such predicates.  To
keep queries tractable the paper restricts them to **stored attributes,
constants, comparisons and AND/OR/NOT**, which guarantees constant-time
evaluation and — crucially for the optimizer — makes the predicate an
inspectable AST rather than an opaque closure:

* the optimizer can pull out indexable conjuncts (``attr = constant``),
* the storage layer can enumerate the finite set of satisfying objects
  (the paper's ``P → P'`` alphabet translation in §3.4),
* patterns print readably.

The DSL mirrors the paper's lambda notation: ``attr("age") > 25`` builds
``(λ(Person) Person.age > 25)``.  Escape hatch: :class:`RawPredicate`
wraps any callable but is flagged opaque, so the optimizer will not try
to decompose or index it.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable

from ..errors import PredicateError
from ..params import Param, resolve as _resolve_param, try_resolve as _try_resolve_param

_MISSING = object()

_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _read_attribute(obj: Any, name: str) -> Any:
    """Fetch a stored attribute from an object or mapping."""
    if isinstance(obj, dict):
        return obj.get(name, _MISSING)
    return getattr(obj, name, _MISSING)


class AlphabetPredicate:
    """Base class: a unary boolean function over one database object.

    Supports the boolean combinators with Python operators:
    ``p & q``, ``p | q``, ``~p``.
    """

    #: Opaque predicates cannot be decomposed or index-matched.
    opaque = False

    def __call__(self, obj: Any) -> bool:
        raise NotImplementedError

    def compile(self) -> "Callable[[Any], bool] | None":
        """A plain closure with this predicate's outcomes, or ``None``.

        For loops that test one predicate against many objects (a
        candidate-root scan, a column build): attribute name and
        operator are bound and ``$param`` constants read once, here, not
        once per object — so a closure serves one query execution and is
        not to be kept.  ``None`` means "call the predicate itself": an
        opaque callable (it keeps its at-most-once-per-node promise), a
        parameter with no binding armed (the error stays where
        evaluation raises it), or a subclass that does not say how.
        """
        return None

    def __and__(self, other: "AlphabetPredicate") -> "AlphabetPredicate":
        return And(self, _coerce(other))

    def __or__(self, other: "AlphabetPredicate") -> "AlphabetPredicate":
        return Or(self, _coerce(other))

    def __invert__(self) -> "AlphabetPredicate":
        return Not(self)

    # -- optimizer hooks ---------------------------------------------------

    def attributes(self) -> set[str]:
        """Stored attribute names this predicate consults."""
        return set()

    def conjuncts(self) -> list["AlphabetPredicate"]:
        """Top-level AND-decomposition (a single conjunct by default)."""
        return [self]

    def indexable_terms(self) -> list[tuple[str, str, Any]]:
        """``(attribute, op, constant)`` terms an index could serve."""
        return []

    def describe(self) -> str:
        raise NotImplementedError

    def embed_text(self) -> str:
        """A rendering parseable by :func:`parse_predicate` — used when a
        pattern embeds the predicate as ``{...}`` so that pattern
        ``describe()`` output round-trips.  Opaque predicates have no
        parseable form and fall back to :meth:`describe`."""
        return self.describe()

    def __repr__(self) -> str:
        return f"⟨λ(x) {self.describe()}⟩"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AlphabetPredicate):
            return self.describe() == other.describe()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.describe()))


def _coerce(value: Any) -> AlphabetPredicate:
    if isinstance(value, AlphabetPredicate):
        return value
    if callable(value):
        return RawPredicate(value)
    raise PredicateError(f"cannot interpret {value!r} as an alphabet-predicate")


def _compile_terms(
    terms: Iterable[AlphabetPredicate],
) -> "tuple[Callable[[Any], bool], ...] | None":
    """Every term's closure, or ``None`` as soon as one term refuses."""
    tests = tuple(term.compile() for term in terms)
    return None if None in tests else tests


class TruePredicate(AlphabetPredicate):
    """The metacharacter ``?`` — satisfied by every object (§3.2)."""

    def __call__(self, obj: Any) -> bool:
        return True

    def compile(self) -> Callable[[Any], bool]:
        return lambda obj: True

    def describe(self) -> str:
        return "?"


#: The shared ``?`` instance.
ANY = TruePredicate()


class Comparison(AlphabetPredicate):
    """``x.attr OP constant`` — the paper's primitive comparison term."""

    def __init__(self, attribute: str, op: str, constant: Any) -> None:
        if op not in _OPERATORS:
            raise PredicateError(f"unknown comparison operator {op!r}")
        self.attribute = attribute
        self.op = op
        self.constant = constant

    def __call__(self, obj: Any) -> bool:
        value = _read_attribute(obj, self.attribute)
        if value is _MISSING:
            return False
        # A ``$param`` constant reads its binding at evaluation time, so
        # one predicate object (and the plan that holds it) serves every
        # binding — see :mod:`repro.params`.
        constant = _resolve_param(self.constant)
        try:
            return bool(_OPERATORS[self.op](value, constant))
        except TypeError:
            return False

    def compile(self) -> "Callable[[Any], bool] | None":
        constant, bound = _try_resolve_param(self.constant)
        if not bound:
            return None
        attribute = self.attribute
        compare = _OPERATORS[self.op]

        def test(obj: Any) -> bool:
            # ``_read_attribute``, inlined: this runs once per scanned node.
            if isinstance(obj, dict):
                value = obj.get(attribute, _MISSING)
            else:
                value = getattr(obj, attribute, _MISSING)
            if value is _MISSING:
                return False
            try:
                return bool(compare(value, constant))
            except TypeError:
                return False

        return test

    def attributes(self) -> set[str]:
        return {self.attribute}

    def indexable_terms(self) -> list[tuple[str, str, Any]]:
        return [(self.attribute, self.op, self.constant)]

    def describe(self) -> str:
        return f"x.{self.attribute} {self.op} {self.constant!r}"

    def embed_text(self) -> str:
        if isinstance(self.constant, Param):
            literal = self.constant.describe()
        elif isinstance(self.constant, str):
            literal = '"' + self.constant.replace('"', "") + '"'
        elif self.constant is True:
            literal = "true"
        elif self.constant is False:
            literal = "false"
        else:
            literal = repr(self.constant)
        return f"{self.attribute} {self.op} {literal}"


class SymbolEquals(AlphabetPredicate):
    """``x = symbol`` — matches payloads that *are* the symbol.

    This is the default resolution of a bare symbol in pattern notation
    (the figures' single-letter trees carry string payloads).
    """

    def __init__(self, symbol: Any) -> None:
        self.symbol = symbol

    def __call__(self, obj: Any) -> bool:
        return bool(obj == _resolve_param(self.symbol))

    def compile(self) -> "Callable[[Any], bool] | None":
        symbol, bound = _try_resolve_param(self.symbol)
        if not bound:
            return None
        return lambda obj: bool(obj == symbol)

    def indexable_terms(self) -> list[tuple[str, str, Any]]:
        # The payload itself acts as the "value" pseudo-attribute.
        return [("__value__", "=", self.symbol)]

    def describe(self) -> str:
        return f"x = {self.symbol!r}"


class And(AlphabetPredicate):
    def __init__(self, *terms: AlphabetPredicate) -> None:
        if not terms:
            raise PredicateError("AND requires at least one term")
        self.terms = tuple(terms)

    def __call__(self, obj: Any) -> bool:
        return all(term(obj) for term in self.terms)

    def compile(self) -> "Callable[[Any], bool] | None":
        tests = _compile_terms(self.terms)
        if tests is None:
            return None

        def test(obj: Any) -> bool:
            for term in tests:
                if not term(obj):
                    return False
            return True

        return test

    def attributes(self) -> set[str]:
        return set().union(*(t.attributes() for t in self.terms))

    def conjuncts(self) -> list[AlphabetPredicate]:
        result: list[AlphabetPredicate] = []
        for term in self.terms:
            result.extend(term.conjuncts())
        return result

    def indexable_terms(self) -> list[tuple[str, str, Any]]:
        result: list[tuple[str, str, Any]] = []
        for term in self.terms:
            result.extend(term.indexable_terms())
        return result

    def describe(self) -> str:
        return "(" + " AND ".join(t.describe() for t in self.terms) + ")"

    def embed_text(self) -> str:
        return "(" + " and ".join(t.embed_text() for t in self.terms) + ")"

    @property
    def opaque(self) -> bool:  # type: ignore[override]
        return any(t.opaque for t in self.terms)


class Or(AlphabetPredicate):
    def __init__(self, *terms: AlphabetPredicate) -> None:
        if not terms:
            raise PredicateError("OR requires at least one term")
        self.terms = tuple(terms)

    def __call__(self, obj: Any) -> bool:
        return any(term(obj) for term in self.terms)

    def compile(self) -> "Callable[[Any], bool] | None":
        tests = _compile_terms(self.terms)
        if tests is None:
            return None
        if len(tests) == 1:  # a one-predicate first-set: no wrapper per node
            return tests[0]

        def test(obj: Any) -> bool:
            for term in tests:
                if term(obj):
                    return True
            return False

        return test

    def attributes(self) -> set[str]:
        return set().union(*(t.attributes() for t in self.terms))

    def describe(self) -> str:
        return "(" + " OR ".join(t.describe() for t in self.terms) + ")"

    def embed_text(self) -> str:
        return "(" + " or ".join(t.embed_text() for t in self.terms) + ")"

    @property
    def opaque(self) -> bool:  # type: ignore[override]
        return any(t.opaque for t in self.terms)


class Not(AlphabetPredicate):
    def __init__(self, term: AlphabetPredicate) -> None:
        self.term = term

    def __call__(self, obj: Any) -> bool:
        return not self.term(obj)

    def compile(self) -> "Callable[[Any], bool] | None":
        test = self.term.compile()
        if test is None:
            return None
        return lambda obj: not test(obj)

    def attributes(self) -> set[str]:
        return self.term.attributes()

    def describe(self) -> str:
        return f"(NOT {self.term.describe()})"

    def embed_text(self) -> str:
        return f"not ({self.term.embed_text()})"

    @property
    def opaque(self) -> bool:  # type: ignore[override]
        return self.term.opaque


class RawPredicate(AlphabetPredicate):
    """Escape hatch wrapping an arbitrary callable.

    Violates the paper's stored-attributes-only restriction, so it is
    flagged ``opaque`` — the optimizer treats it as unindexable and
    indivisible, and the ``P → P'`` alphabet translation refuses it.
    """

    opaque = True

    def __init__(self, function: Callable[[Any], bool], description: str | None = None) -> None:
        self.function = function
        self.description = description or getattr(function, "__name__", "<callable>")

    def __call__(self, obj: Any) -> bool:
        return bool(self.function(obj))

    def describe(self) -> str:
        return self.description


class AttrRef:
    """DSL handle: ``attr("age") > 25`` builds a :class:`Comparison`."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, constant: Any) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "=", constant)

    def __ne__(self, constant: Any) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "!=", constant)

    def __lt__(self, constant: Any) -> Comparison:
        return Comparison(self.name, "<", constant)

    def __le__(self, constant: Any) -> Comparison:
        return Comparison(self.name, "<=", constant)

    def __gt__(self, constant: Any) -> Comparison:
        return Comparison(self.name, ">", constant)

    def __ge__(self, constant: Any) -> Comparison:
        return Comparison(self.name, ">=", constant)

    def is_in(self, constants: Iterable[Any]) -> AlphabetPredicate:
        """Membership as a disjunction of equalities (stays decomposable)."""
        terms = [Comparison(self.name, "=", c) for c in constants]
        if not terms:
            return Not(ANY)
        if len(terms) == 1:
            return terms[0]
        return Or(*terms)

    def __hash__(self) -> int:  # __eq__ is hijacked by the DSL
        return hash(("AttrRef", self.name))

    def __repr__(self) -> str:
        return f"attr({self.name!r})"


def attr(name: str) -> AttrRef:
    """Reference a stored attribute inside a predicate expression."""
    return AttrRef(name)


def sym(symbol: Any) -> SymbolEquals:
    """Predicate matching the bare payload ``symbol`` (figure-style trees)."""
    return SymbolEquals(symbol)


def pred(function: Callable[[Any], bool], description: str | None = None) -> RawPredicate:
    """Wrap an arbitrary callable as an (opaque) alphabet-predicate."""
    return RawPredicate(function, description)
