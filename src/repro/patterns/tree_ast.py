"""Tree pattern AST (paper §3.3).

Tree patterns generalize regular expressions to trees.  The paper's
grammar (adapted)::

    tp  ::= alphabet-predicate | ? | α            -- single-node patterns
          | ap ( tlp )                             -- root + children
          | tp | tp                                -- disjunction
          | tp ∘α tp                               -- concatenation at α
          | tp *α | tp +α                          -- iterative self-concat
          | ⊤tp | tp⊥                              -- root / leaf anchors
          | ! tp                                   -- prune (§3.4)

    tlp ::= tp | tlp tlp | tlp '|' tlp | tlp* | tlp+ | ε

Two different closures coexist and must not be confused:

* **tree closure** ``tp*α`` (subscripted by a concatenation point):
  vertical pumping — ``L(tp*α) = {NULL} ∪ L(tp ∘α tp*α)``;
* **child-list closure** ``tlp*`` (unsubscripted, only inside a
  children list): horizontal sibling repetition, ordinary list Kleene
  closure whose alphabet is tree patterns (this is the ``?*`` in the
  paper's ``printf(?* LargeData ?* LargeData ?*)`` query).

Concatenation is kept lazy (a :class:`TreeConcat` node) rather than
substituted eagerly, because a concatenation point inside a closure is
the recursion hook — the matcher threads an environment mapping points
to continuation patterns.

The children list of a :class:`TreeAtom` is significant even when empty:

* ``children=None`` (bare ``a``) — matches a node and implicitly prunes
  all its actual children as *descendants of the match* (this is why
  ``split(d, ...)`` reattaches via ``y ∘α1,α2 z`` in §4);
* ``children=CHILD_EPSILON`` (written ``a()``) — requires the node to
  have no children at all.

Child list patterns are matched against the node's **entire** child
sequence (extra children are absorbed only by explicit ``?*``), per the
``printf`` example.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, NamedTuple

from ..core.concat import ConcatPoint
from ..errors import PatternError
from ..predicates.alphabet import AlphabetPredicate, Or, TruePredicate


from .list_ast import atom_text as _pred_text


# ---------------------------------------------------------------------------
# Child-list pattern nodes (the tlp language)
# ---------------------------------------------------------------------------


class ChildPatternNode:
    """Base class for child-list (tlp) pattern nodes."""

    def describe(self) -> str:
        raise NotImplementedError

    def walk(self) -> Iterator["ChildPatternNode | TreePatternNode"]:
        yield self

    def __repr__(self) -> str:
        return f"ChildPattern<{self.describe()}>"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ChildPatternNode):
            return self.describe() == other.describe()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.describe()))


class ChildEpsilon(ChildPatternNode):
    """Matches an empty child sequence."""

    def describe(self) -> str:
        return "ε"


#: Shared empty-children pattern (the explicit ``a()``).
CHILD_EPSILON = ChildEpsilon()


class ChildSeq(ChildPatternNode):
    """Horizontal concatenation of child patterns."""

    def __init__(self, parts: list["ChildPatternNode | TreePatternNode"]) -> None:
        flattened: list[ChildPatternNode | TreePatternNode] = []
        for part in parts:
            if isinstance(part, ChildSeq):
                flattened.extend(part.parts)
            elif isinstance(part, ChildEpsilon):
                continue
            else:
                flattened.append(part)
        self.parts = tuple(flattened)

    def describe(self) -> str:
        if not self.parts:
            return "ε"
        return " ".join(
            f"[[{p.describe()}]]" if isinstance(p, (ChildAlt, TreeUnion)) else p.describe()
            for p in self.parts
        )

    def walk(self) -> Iterator["ChildPatternNode | TreePatternNode"]:
        yield self
        for part in self.parts:
            yield from part.walk()


class ChildAlt(ChildPatternNode):
    """Disjunction of child-sequence patterns."""

    def __init__(self, alternatives: list["ChildPatternNode | TreePatternNode"]) -> None:
        if not alternatives:
            raise PatternError("child alternation needs at least one branch")
        self.alternatives = tuple(alternatives)

    def describe(self) -> str:
        return " | ".join(a.describe() for a in self.alternatives)

    def walk(self) -> Iterator["ChildPatternNode | TreePatternNode"]:
        yield self
        for alternative in self.alternatives:
            yield from alternative.walk()


class ChildStar(ChildPatternNode):
    """Sibling repetition ``tlp*`` (zero or more)."""

    def __init__(self, inner: "ChildPatternNode | TreePatternNode") -> None:
        self.inner = inner

    def describe(self) -> str:
        inner = self.inner.describe()
        if isinstance(self.inner, (ChildSeq, ChildAlt, TreeUnion)):
            inner = f"[[{inner}]]"
        return f"{inner}*"

    def walk(self) -> Iterator["ChildPatternNode | TreePatternNode"]:
        yield self
        yield from self.inner.walk()


class ChildPlus(ChildPatternNode):
    """Sibling repetition ``tlp+`` (one or more)."""

    def __init__(self, inner: "ChildPatternNode | TreePatternNode") -> None:
        self.inner = inner

    def describe(self) -> str:
        inner = self.inner.describe()
        if isinstance(self.inner, (ChildSeq, ChildAlt, TreeUnion)):
            inner = f"[[{inner}]]"
        return f"{inner}+"

    def walk(self) -> Iterator["ChildPatternNode | TreePatternNode"]:
        yield self
        yield from self.inner.walk()


# ---------------------------------------------------------------------------
# Tree pattern nodes (the tp language)
# ---------------------------------------------------------------------------


class TreePatternNode:
    """Base class for tree-pattern AST nodes."""

    def describe(self) -> str:
        raise NotImplementedError

    def walk(self) -> Iterator["ChildPatternNode | TreePatternNode"]:
        yield self

    def __repr__(self) -> str:
        return f"TreePattern<{self.describe()}>"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TreePatternNode):
            return self.describe() == other.describe()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.describe()))

    # -- combinators --------------------------------------------------------

    def concat(self, point: ConcatPoint, other: "TreePatternNode") -> "TreeConcat":
        return TreeConcat(self, point, other)

    def star(self, point: ConcatPoint) -> "TreeStar":
        return TreeStar(self, point)

    def plus(self, point: ConcatPoint) -> "TreePlus":
        return TreePlus(self, point)

    def alt(self, other: "TreePatternNode") -> "TreeUnion":
        return TreeUnion([self, other])

    def prune(self) -> "TreePrune":
        return TreePrune(self)


class TreeAtom(TreePatternNode):
    """A node pattern: predicate plus an optional children list pattern."""

    def __init__(
        self,
        predicate: AlphabetPredicate,
        children: ChildPatternNode | TreePatternNode | None = None,
    ) -> None:
        self.predicate = predicate
        self.children = children

    def describe(self) -> str:
        head = _pred_text(self.predicate)
        if self.children is None:
            return head
        inner = "" if isinstance(self.children, ChildEpsilon) else self.children.describe()
        return f"{head}({inner})"

    def walk(self) -> Iterator[ChildPatternNode | TreePatternNode]:
        yield self
        if self.children is not None:
            yield from self.children.walk()


class PointAtom(TreePatternNode):
    """A concatenation point used as a single-node pattern.

    Unbound, it matches a labeled NULL in the data (§3.5); bound by an
    enclosing ``∘α`` / ``*α`` it stands for the continuation pattern.
    """

    def __init__(self, point: ConcatPoint) -> None:
        self.point = point

    def describe(self) -> str:
        return str(self.point)


class TreeUnion(TreePatternNode):
    def __init__(self, alternatives: list[TreePatternNode]) -> None:
        if not alternatives:
            raise PatternError("tree union needs at least one branch")
        flattened: list[TreePatternNode] = []
        for alternative in alternatives:
            if isinstance(alternative, TreeUnion):
                flattened.extend(alternative.alternatives)
            else:
                flattened.append(alternative)
        self.alternatives = tuple(flattened)

    def describe(self) -> str:
        return " | ".join(a.describe() for a in self.alternatives)

    def walk(self) -> Iterator[ChildPatternNode | TreePatternNode]:
        yield self
        for alternative in self.alternatives:
            yield from alternative.walk()


class TreeConcat(TreePatternNode):
    """``left ∘α right`` — lazy; the matcher binds ``α ↦ right``."""

    def __init__(self, left: TreePatternNode, point: ConcatPoint, right: TreePatternNode) -> None:
        self.left = left
        self.point = point
        self.right = right

    def describe(self) -> str:
        return f"[[{self.left.describe()}]] .{self.point} [[{self.right.describe()}]]"

    def walk(self) -> Iterator[ChildPatternNode | TreePatternNode]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()


class TreeStar(TreePatternNode):
    """Iterative self-concatenation ``tp*α`` (vertical pumping)."""

    def __init__(self, inner: TreePatternNode, point: ConcatPoint) -> None:
        self.inner = inner
        self.point = point

    def describe(self) -> str:
        return f"[[{self.inner.describe()}]]*{self.point}"

    def walk(self) -> Iterator[ChildPatternNode | TreePatternNode]:
        yield self
        yield from self.inner.walk()


class TreePlus(TreePatternNode):
    """``tp+α`` — one or more self-concatenations."""

    def __init__(self, inner: TreePatternNode, point: ConcatPoint) -> None:
        self.inner = inner
        self.point = point

    def describe(self) -> str:
        return f"[[{self.inner.describe()}]]+{self.point}"

    def walk(self) -> Iterator[ChildPatternNode | TreePatternNode]:
        yield self
        yield from self.inner.walk()


class TreePrune(TreePatternNode):
    """``!tp`` — match, then prune the whole data subtree at the match root.

    ``optional=True`` makes the prune match zero-or-one subtree (used
    internally by the list→tree pattern translation to absorb a list's
    tail; not expressible in the surface syntax).
    """

    def __init__(self, inner: TreePatternNode, optional: bool = False) -> None:
        if any(isinstance(n, TreePrune) for n in inner.walk()):
            raise PatternError("prune markers cannot nest")
        self.inner = inner
        self.optional = optional

    def describe(self) -> str:
        text = f"!{self.inner.describe()}"
        if self.optional:
            text += "«opt»"
        return text

    def walk(self) -> Iterator[ChildPatternNode | TreePatternNode]:
        yield self
        yield from self.inner.walk()


class TreePattern:
    """A complete tree pattern: body plus ``⊤`` / ``⊥`` anchors.

    * ``root_anchor`` (⊤, written ``^`` in text notation): the pattern may
      match only at the root of the input tree.
    * ``leaf_anchor`` (⊥, written ``$``): every *bare* pattern leaf must
      coincide with a data leaf (no implicit descendant pruning).
    """

    __slots__ = ("body", "root_anchor", "leaf_anchor")

    def __init__(
        self,
        body: TreePatternNode,
        root_anchor: bool = False,
        leaf_anchor: bool = False,
    ) -> None:
        self.body = body
        self.root_anchor = root_anchor
        self.leaf_anchor = leaf_anchor

    def describe(self) -> str:
        text = self.body.describe()
        if self.root_anchor:
            text = "^" + text
        if self.leaf_anchor:
            text = text + "$"
        return text

    def __repr__(self) -> str:
        return f"TreePattern<{self.describe()}>"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TreePattern):
            return self.describe() == other.describe()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("TreePattern", self.describe()))

    def anchored(self) -> "TreePattern":
        """The ``⊤`` version of this pattern (used by the split rewrite)."""
        return TreePattern(self.body, root_anchor=True, leaf_anchor=self.leaf_anchor)

    def concat(self, point: ConcatPoint, other: "TreePattern | TreePatternNode") -> "TreePattern":
        other_body = other.body if isinstance(other, TreePattern) else other
        return TreePattern(
            TreeConcat(self.body, point, other_body),
            root_anchor=self.root_anchor,
            leaf_anchor=self.leaf_anchor,
        )

    def contains_prune(self) -> bool:
        return any(isinstance(n, TreePrune) for n in self.body.walk())

    def has_vertical_closure(self) -> bool:
        """Can matching recurse downward through a concatenation point?

        True for ``tp*α`` / ``tp+α`` anywhere in the body, and for a
        ``∘α`` whose continuation itself mentions a point (the binding
        can then reach itself through the environment).  Without one,
        every sub-term is tried at a bounded distance below the match
        root — the case footnote 3 calls cheap.
        """
        for term in self.body.walk():
            if isinstance(term, (TreeStar, TreePlus)):
                return True
            if isinstance(term, TreeConcat) and any(
                isinstance(inner, PointAtom) for inner in term.right.walk()
            ):
                return True
        return False

    def atom_predicates(self) -> list[AlphabetPredicate]:
        """All alphabet-predicates mentioned, in preorder (with repeats)."""
        result: list[AlphabetPredicate] = []
        for node in self.body.walk():
            if isinstance(node, TreeAtom):
                result.append(node.predicate)
        return result

    def root_predicates(self) -> list[AlphabetPredicate]:
        """Predicates that can match the *root* of an instance.

        Used by the optimizer to pick an index anchor: every match root
        must satisfy one of these.  Conservative (may return ``[]`` when
        the root is a closure or point, meaning "unknown").
        """
        return _root_predicates(self.body)[0]

    def root_first_set(self) -> "RootFirstSet | None":
        """The cheap test a match root must pass, or ``None`` (no help).

        The ``OR`` of :meth:`root_predicates`, compiled
        (:meth:`AlphabetPredicate.compile`): a candidate-root scan runs
        it on every node and enters the matcher only for survivors.
        Compiled per call — ``$param`` constants are read here — so ask
        once per scan.  ``None`` when testing cannot narrow anything or
        cannot be done faithfully: the pattern is pinned to the tree
        root, its roots are unknown, some root predicate is a bare ``?``
        (every node survives) or refuses to compile (opaque, or a
        parameter with no binding armed).
        """
        if self.root_anchor:
            return None
        predicates, steps = _root_predicates(self.body)
        if not predicates or any(isinstance(p, TruePredicate) for p in predicates):
            return None
        accepts = Or(*predicates).compile()
        if accepts is None:
            return None
        return RootFirstSet(accepts, steps, len(predicates))


class RootFirstSet(NamedTuple):
    """A pattern's compiled root test, with what one rejection is worth.

    The matcher, handed a node no root predicate accepts, enters
    ``match_node`` once per pattern term on the way down to the root
    atoms and evaluates every one of them before giving up.  A scan that
    rejects on ``accepts`` alone charges exactly that: ``steps`` matcher
    steps per node, ``evals`` predicate evaluations per element node.
    """

    accepts: Callable[[Any], bool]
    steps: int
    evals: int


def _root_predicates(node: TreePatternNode) -> tuple[list[AlphabetPredicate], int]:
    """The root predicates under ``node`` and the pattern terms entered
    to reach them all; ``([], 0)`` when some root is not an atom."""
    if isinstance(node, TreeAtom):
        return [node.predicate], 1
    if isinstance(node, TreeUnion):
        result: list[AlphabetPredicate] = []
        steps = 1
        for alternative in node.alternatives:
            sub, below = _root_predicates(alternative)
            if not sub:
                return [], 0
            result.extend(sub)
            steps += below
        return result, steps
    if isinstance(node, TreeConcat):
        inner = node.left
    elif isinstance(node, TreePlus):
        inner = node.inner
    else:
        # TreeStar can be NULL; PointAtom / TreePrune roots are not usable.
        return [], 0
    sub, below = _root_predicates(inner)
    return (sub, below + 1) if sub else ([], 0)
