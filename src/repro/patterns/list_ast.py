"""List pattern AST (paper §3.2).

List patterns are regular expressions whose alphabet is
*alphabet-predicates* (§3.1).  The constructors mirror the paper's
grammar::

    lp  ::= [ilp] | [[lp]]
    ilp ::= alphabet-predicate | ? | ilp+ | ilp* | [[ilp]] | lp ∘ lp
          | lp | lp            -- disjunction
          | ^lp | lp$          -- anchors

plus the ``!`` prune prefix from §3.4 ("the largest subtree rooted at the
node matching P's root [is] pruned from the result"; for lists the pruned
piece is a run of elements).

Every node knows how to report:

* ``nullable()`` — can it match the empty sequence,
* ``atoms()`` — the alphabet-predicates it mentions,
* ``required_atoms()`` — predicates that *every* match must satisfy
  somewhere (the optimizer's anchor-extraction hook),
* ``min_length()`` / ``max_length()`` — match-length bounds (``None`` for
  unbounded), used by the optimizer's cost model.

Nodes are immutable value objects; ``describe()`` round-trips through the
pattern parser for all constructs it can express.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import PatternError
from ..lexer import reads_bare
from ..predicates.alphabet import ANY, AlphabetPredicate, SymbolEquals, TruePredicate


def atom_text(predicate: AlphabetPredicate) -> str:
    """Render a predicate atom in pattern syntax (round-trips through the
    pattern parsers): ``?`` for the true predicate, a bare/quoted symbol
    for :class:`SymbolEquals`, ``{...}`` for everything else."""
    if isinstance(predicate, TruePredicate):
        return "?"
    if isinstance(predicate, SymbolEquals) and isinstance(predicate.symbol, str):
        symbol = predicate.symbol
        if reads_bare(symbol):
            return symbol
        return f"'{symbol}'"
    return "{" + predicate.embed_text() + "}"


class ListPatternNode:
    """Base class for list-pattern AST nodes."""

    def nullable(self) -> bool:
        raise NotImplementedError

    def atoms(self) -> Iterator[AlphabetPredicate]:
        raise NotImplementedError

    def required_atoms(self) -> frozenset[AlphabetPredicate]:
        raise NotImplementedError

    def min_length(self) -> int:
        raise NotImplementedError

    def max_length(self) -> int | None:
        raise NotImplementedError

    def contains_prune(self) -> bool:
        return any(isinstance(n, Prune) for n in self.walk())

    def walk(self) -> Iterator["ListPatternNode"]:
        """Preorder traversal of the AST."""
        yield self

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"ListPattern<{self.describe()}>"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ListPatternNode):
            return self.describe() == other.describe()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.describe()))

    # -- combinators --------------------------------------------------------

    def then(self, other: "ListPatternNode") -> "Concat":
        """Concatenation ``self ∘ other``."""
        return Concat([self, other])

    def alt(self, other: "ListPatternNode") -> "Union":
        """Disjunction ``self | other``."""
        return Union([self, other])

    def star(self) -> "Star":
        return Star(self)

    def plus(self) -> "Plus":
        return Plus(self)

    def prune(self) -> "Prune":
        return Prune(self)


class Epsilon(ListPatternNode):
    """Matches the empty sequence.  Not in the surface grammar but needed
    as the identity of concatenation (e.g. as a star's zero case)."""

    def nullable(self) -> bool:
        return True

    def atoms(self) -> Iterator[AlphabetPredicate]:
        return iter(())

    def required_atoms(self) -> frozenset[AlphabetPredicate]:
        return frozenset()

    def min_length(self) -> int:
        return 0

    def max_length(self) -> int | None:
        return 0

    def describe(self) -> str:
        return "ε"


#: Shared empty-pattern instance.
EPSILON = Epsilon()


class Atom(ListPatternNode):
    """A single alphabet-predicate: matches exactly one element."""

    def __init__(self, predicate: AlphabetPredicate) -> None:
        self.predicate = predicate

    def nullable(self) -> bool:
        return False

    def atoms(self) -> Iterator[AlphabetPredicate]:
        yield self.predicate

    def required_atoms(self) -> frozenset[AlphabetPredicate]:
        return frozenset([self.predicate])

    def min_length(self) -> int:
        return 1

    def max_length(self) -> int | None:
        return 1

    def describe(self) -> str:
        return atom_text(self.predicate)


def any_element() -> Atom:
    """The metacharacter ``?`` (always TRUE)."""
    return Atom(ANY)


class Concat(ListPatternNode):
    """Concatenation ``lp1 ∘ lp2 ∘ ...`` (flattened)."""

    def __init__(self, parts: list[ListPatternNode]) -> None:
        flattened: list[ListPatternNode] = []
        for part in parts:
            if isinstance(part, Concat):
                flattened.extend(part.parts)
            elif isinstance(part, Epsilon):
                continue
            else:
                flattened.append(part)
        self.parts = tuple(flattened)

    def nullable(self) -> bool:
        return all(p.nullable() for p in self.parts)

    def atoms(self) -> Iterator[AlphabetPredicate]:
        for part in self.parts:
            yield from part.atoms()

    def required_atoms(self) -> frozenset[AlphabetPredicate]:
        result: frozenset[AlphabetPredicate] = frozenset()
        for part in self.parts:
            result |= part.required_atoms()
        return result

    def min_length(self) -> int:
        return sum(p.min_length() for p in self.parts)

    def max_length(self) -> int | None:
        total = 0
        for part in self.parts:
            part_max = part.max_length()
            if part_max is None:
                return None
            total += part_max
        return total

    def walk(self) -> Iterator[ListPatternNode]:
        yield self
        for part in self.parts:
            yield from part.walk()

    def describe(self) -> str:
        if not self.parts:
            return "ε"
        return " ".join(
            f"[[{p.describe()}]]" if isinstance(p, Union) else p.describe()
            for p in self.parts
        )


class Union(ListPatternNode):
    """Disjunction ``lp1 | lp2 | ...`` (flattened)."""

    def __init__(self, alternatives: list[ListPatternNode]) -> None:
        if not alternatives:
            raise PatternError("a union needs at least one alternative")
        flattened: list[ListPatternNode] = []
        for alternative in alternatives:
            if isinstance(alternative, Union):
                flattened.extend(alternative.alternatives)
            else:
                flattened.append(alternative)
        self.alternatives = tuple(flattened)

    def nullable(self) -> bool:
        return any(a.nullable() for a in self.alternatives)

    def atoms(self) -> Iterator[AlphabetPredicate]:
        for alternative in self.alternatives:
            yield from alternative.atoms()

    def required_atoms(self) -> frozenset[AlphabetPredicate]:
        # Only predicates required by *every* branch are required overall.
        sets = [a.required_atoms() for a in self.alternatives]
        result = sets[0]
        for s in sets[1:]:
            result &= s
        return result

    def min_length(self) -> int:
        return min(a.min_length() for a in self.alternatives)

    def max_length(self) -> int | None:
        total = 0
        for alternative in self.alternatives:
            alt_max = alternative.max_length()
            if alt_max is None:
                return None
            total = max(total, alt_max)
        return total

    def walk(self) -> Iterator[ListPatternNode]:
        yield self
        for alternative in self.alternatives:
            yield from alternative.walk()

    def describe(self) -> str:
        return " | ".join(a.describe() for a in self.alternatives)


class Star(ListPatternNode):
    """Kleene closure ``lp*`` — zero or more self-concatenations."""

    def __init__(self, inner: ListPatternNode) -> None:
        self.inner = inner

    def nullable(self) -> bool:
        return True

    def atoms(self) -> Iterator[AlphabetPredicate]:
        return self.inner.atoms()

    def required_atoms(self) -> frozenset[AlphabetPredicate]:
        return frozenset()  # zero iterations are allowed

    def min_length(self) -> int:
        return 0

    def max_length(self) -> int | None:
        if self.inner.max_length() == 0:
            return 0
        return None

    def walk(self) -> Iterator[ListPatternNode]:
        yield self
        yield from self.inner.walk()

    def describe(self) -> str:
        return f"[[{self.inner.describe()}]]*"


class Plus(ListPatternNode):
    """``lp+`` — one or more self-concatenations."""

    def __init__(self, inner: ListPatternNode) -> None:
        self.inner = inner

    def nullable(self) -> bool:
        return self.inner.nullable()

    def atoms(self) -> Iterator[AlphabetPredicate]:
        return self.inner.atoms()

    def required_atoms(self) -> frozenset[AlphabetPredicate]:
        return self.inner.required_atoms()

    def min_length(self) -> int:
        return self.inner.min_length()

    def max_length(self) -> int | None:
        if self.inner.max_length() == 0:
            return 0
        return None

    def walk(self) -> Iterator[ListPatternNode]:
        yield self
        yield from self.inner.walk()

    def describe(self) -> str:
        return f"[[{self.inner.describe()}]]+"

    def desugar(self) -> Concat:
        """``lp+`` = ``lp ∘ lp*``."""
        return Concat([self.inner, Star(self.inner)])


class Prune(ListPatternNode):
    """``!lp`` — matched but pruned from the returned result (§3.4).

    The pruned run is replaced by a fresh concatenation point ``αi`` in
    the match piece and handed to ``split``'s third component.
    """

    def __init__(self, inner: ListPatternNode) -> None:
        if inner.contains_prune():
            raise PatternError("prune markers cannot nest")
        self.inner = inner

    def nullable(self) -> bool:
        return self.inner.nullable()

    def atoms(self) -> Iterator[AlphabetPredicate]:
        return self.inner.atoms()

    def required_atoms(self) -> frozenset[AlphabetPredicate]:
        return self.inner.required_atoms()

    def min_length(self) -> int:
        return self.inner.min_length()

    def max_length(self) -> int | None:
        return self.inner.max_length()

    def walk(self) -> Iterator[ListPatternNode]:
        yield self
        yield from self.inner.walk()

    def describe(self) -> str:
        return f"![[{self.inner.describe()}]]"


class ListPattern:
    """A complete list pattern: body plus the ``^`` / ``$`` anchors.

    A bare body is floating (may match any sublist); ``^`` pins the match
    to the start of the list and ``$`` to the end (§3.2).
    """

    __slots__ = ("body", "anchor_start", "anchor_end")

    def __init__(
        self,
        body: ListPatternNode,
        anchor_start: bool = False,
        anchor_end: bool = False,
    ) -> None:
        self.body = body
        self.anchor_start = anchor_start
        self.anchor_end = anchor_end

    def describe(self) -> str:
        text = f"[{self.body.describe()}]"
        if self.anchor_start:
            text = "^" + text
        if self.anchor_end:
            text = text + "$"
        return text

    def __repr__(self) -> str:
        return f"ListPattern<{self.describe()}>"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ListPattern):
            return self.describe() == other.describe()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ListPattern", self.describe()))

    def contains_prune(self) -> bool:
        return self.body.contains_prune()

    def required_atoms(self) -> frozenset[AlphabetPredicate]:
        return self.body.required_atoms()

    def min_length(self) -> int:
        return self.body.min_length()

    def max_length(self) -> int | None:
        return self.body.max_length()


def atom(predicate: AlphabetPredicate) -> Atom:
    return Atom(predicate)


def seq(*parts: ListPatternNode) -> ListPatternNode:
    """Concatenate parts (``seq()`` is ε)."""
    if not parts:
        return EPSILON
    if len(parts) == 1:
        return parts[0]
    return Concat(list(parts))


def union(*alternatives: ListPatternNode) -> ListPatternNode:
    if len(alternatives) == 1:
        return alternatives[0]
    return Union(list(alternatives))
