"""Path queries over documents, compiled to the stock AQUA algebra.

The frontend accepts a deliberately small XPath-flavoured grammar::

    path  := step+
    step  := ('//' | '/') test pred*
    test  := NAME | '*' | 'text()'
    pred  := '[@' NAME ('=' QUOTED)? ']'

``//`` is the descendant axis, ``/`` the child axis; ``*`` matches any
element, ``text()`` matches character data, and ``[@a='v']`` /
``[@a]`` test document attributes.  ``//article[@lang='en']//p`` reads
exactly as it would in XPath.

There is **no new operator** behind this syntax.  ``compile_path``
translates a path into the existing logical algebra:

* the leading ``//tag[preds]`` step becomes ``split(tp, reattach)`` with
  ``tp`` an ordinary one-atom :class:`~repro.patterns.tree_ast.TreePattern`
  whose predicate is a plain :class:`~repro.predicates.alphabet.Comparison`
  conjunction — so the optimizer sees an inspectable pattern and the
  lowering's cost gate may serve it from the document's node index
  (``index_anchor_split``), exactly as it does for any other ``split``;
* ``reattach`` is the paper's §4 reassembly ``y ∘α1..αn z`` — the match
  with its pruned descendants put back, i.e. the full subtree rooted at
  each match;
* every later step is ``flatten(apply(step_fn))`` over those subtrees —
  set algebra the physical operators and the budget guard already
  understand.

A leading child-axis step anchors at the synthetic ``document`` wrapper
root with a root-anchored (``⊤``) pattern instead, then proceeds with
step functions — again nothing but ``split``/``apply``/``flatten``.

Step functions are :class:`PathStepFn` instances that declare a
``plan_fingerprint``, so two compilations of the same path text produce
byte-identical plan fingerprints and warm path queries hit the plan
cache like any prepared statement.

``naive_path`` is the baseline the CLAIM-DOCSTORE benchmark measures
against: a straightforward recursive DOM walk with none of the algebra,
no indexes, and no pruning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterator

from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaSet
from ..core.aqua_tree import AquaTree, TreeNode, subtree_at
from ..errors import QueryError
from ..patterns.tree_ast import TreeAtom, TreePattern
from ..plan import expr as E
from ..predicates.alphabet import AlphabetPredicate, And, Comparison

__all__ = [
    "PathStep",
    "PathStepFn",
    "HasAttribute",
    "parse_path",
    "compile_path",
    "reattach_subtree",
    "naive_path",
]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_STEP_RE = re.compile(
    r"""
    (?P<axis>//|/)
    (?P<test>text\(\) | [A-Za-z_][\w.\-:]* | \*)
    (?P<preds>(?:\[[^\]]*\])*)
    """,
    re.VERBOSE,
)

_PRED_RE = re.compile(
    r"""
    \[\s*@(?P<name>[A-Za-z_][\w.\-:]*)\s*
    (?: = \s* (?P<quote>['"]) (?P<value>[^'"]*) (?P=quote) \s* )?
    \]
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class PathStep:
    """One parsed step: axis, node test, and attribute predicates."""

    axis: str  # "child" | "descendant"
    test: str  # "tag" | "any" | "text"
    name: str | None  # the tag name for test == "tag"
    preds: tuple[tuple[str, str | None], ...]  # (attribute, value-or-None)

    def text(self) -> str:
        """Re-render the step in path syntax."""
        head = "//" if self.axis == "descendant" else "/"
        if self.test == "any":
            head += "*"
        elif self.test == "text":
            head += "text()"
        else:
            head += self.name or ""
        for attribute, value in self.preds:
            if value is None:
                head += f"[@{attribute}]"
            else:
                head += f"[@{attribute}='{value}']"
        return head

    def key(self) -> tuple:
        """A stable, hashable identity for plan fingerprinting."""
        return (self.axis, self.test, self.name, self.preds)


def parse_path(text: str) -> list[PathStep]:
    """Parse path text into steps; raise :class:`QueryError` on junk."""
    steps: list[PathStep] = []
    index = 0
    stripped = text.strip()
    while index < len(stripped):
        match = _STEP_RE.match(stripped, index)
        if match is None:
            raise QueryError(
                f"cannot parse path step at {stripped[index:]!r} in {text!r}"
            )
        axis = "descendant" if match.group("axis") == "//" else "child"
        raw_test = match.group("test")
        if raw_test == "*":
            test, name = "any", None
        elif raw_test == "text()":
            test, name = "text", None
        else:
            test, name = "tag", raw_test
        preds: list[tuple[str, str | None]] = []
        preds_text = match.group("preds")
        consumed = 0
        for pred_match in _PRED_RE.finditer(preds_text):
            if pred_match.start() != consumed:
                break
            preds.append((pred_match.group("name"), pred_match.group("value")))
            consumed = pred_match.end()
        if consumed != len(preds_text):
            raise QueryError(
                f"cannot parse path predicate at {preds_text[consumed:]!r}"
                f" in {text!r}"
            )
        steps.append(PathStep(axis, test, name, tuple(preds)))
        index = match.end()
    if not steps:
        raise QueryError(f"empty path query {text!r}")
    if steps[0].test == "text" and len(steps) > 1:
        raise QueryError("text() must be the last step of a path")
    return steps


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class HasAttribute(AlphabetPredicate):
    """``[@a]`` — the document attribute is present, any value.

    Attribute-based (not opaque), so an enclosing AND still exposes its
    indexable siblings; existence itself offers no ``(attr, op, const)``
    term, so it is never index-served.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute

    def __call__(self, obj: Any) -> bool:
        attrs = getattr(obj, "attrs", None)
        if isinstance(attrs, dict):
            return self.attribute in attrs
        return False

    def attributes(self) -> set[str]:
        return {self.attribute}

    def describe(self) -> str:
        return f"has x.{self.attribute}"


def step_predicate(step: PathStep) -> AlphabetPredicate:
    """The alphabet-predicate a step's node test + predicates denote."""
    terms: list[AlphabetPredicate] = []
    if step.test == "tag":
        terms.append(Comparison("tag", "=", step.name))
    elif step.test == "any":
        terms.append(Comparison("kind", "=", "element"))
    else:  # text()
        terms.append(Comparison("kind", "=", "text"))
    for attribute, value in step.preds:
        if value is None:
            terms.append(HasAttribute(attribute))
        else:
            terms.append(Comparison(attribute, "=", value))
    if len(terms) == 1:
        return terms[0]
    return And(*terms)


# ---------------------------------------------------------------------------
# Compilation to the algebra
# ---------------------------------------------------------------------------


def reattach_subtree(
    context: AquaTree | None, match: AquaTree, pruned: AquaList
) -> AquaTree:
    """§4 reassembly ``y ∘α1..αn z``: the full subtree at the match root.

    ``split`` hands back the match with its descendants pruned into
    ``z``; concatenating them back at their points recovers the complete
    subtree — the "return the matching element" shape every path step
    needs.
    """
    return match.concat_many(list(zip(match.concat_points(), pruned.values())))


# The reassembly is the §4 *identity* (the full subtree at the match
# root, which the source already holds), so ``split`` serves it by
# structure sharing without the prune/rebuild machinery at all (see
# algebra.tree_ops.split_emitter).
reattach_subtree.returns_match_subtree = True  # type: ignore[attr-defined]


class PathStepFn:
    """A non-leading path step as a set-apply function.

    Maps one subtree to the :class:`AquaSet` of subtrees its step
    selects (children for ``/``, strict descendants for ``//``).
    Declares ``plan_fingerprint`` so plans built from the same path text
    fingerprint identically and hit the plan cache warm.
    """

    def __init__(self, step: PathStep) -> None:
        self.step = step
        self.predicate = step_predicate(step)
        self.plan_fingerprint = ("docstore-step", step.key())
        self.__name__ = f"path:{step.text()}"

    def __call__(self, subtree: Any) -> AquaSet:
        if not isinstance(subtree, AquaTree):
            raise QueryError(
                f"path step {self.step.text()!r} expects document subtrees,"
                f" found {type(subtree).__name__}"
            )
        results = []
        if subtree.root is not None:
            for node in _step_candidates(subtree.root, self.step.axis):
                if self.predicate(node.value):
                    results.append(subtree_at(node))
        # Each node is visited once and its payload is its own: the
        # subtrees are distinct, and the flatten above keys them anyway.
        return AquaSet.distinct(results)

    def __repr__(self) -> str:
        return f"PathStepFn<{self.step.text()}>"


def _step_candidates(root: TreeNode, axis: str) -> Iterator[TreeNode]:
    """Child or strict-descendant element nodes of ``root``, in preorder."""
    stack = [child for child in reversed(root.children)]
    while stack:
        node = stack.pop()
        if not node.is_concat_point:
            yield node
        if axis == "descendant":
            stack.extend(reversed(node.children))


#: Root-anchored pattern matching the synthetic ``document`` wrapper —
#: the whole-document singleton a leading child-axis step starts from.
_DOCUMENT_PATTERN = TreePattern(
    TreeAtom(Comparison("kind", "=", "document")), root_anchor=True
)


def compile_path(input_expr: E.Expr, text: str) -> E.Expr:
    """Compile path text over ``input_expr`` (a tree) to a logical plan.

    The result is ordinary algebra: a ``split`` head (pattern-driven,
    optimizer-visible, index-servable) followed by
    ``flatten(apply(...))`` stages — no operator the physical layer
    doesn't already know.
    """
    steps = parse_path(text)
    first = steps[0]
    if first.axis == "descendant":
        pattern = TreePattern(TreeAtom(step_predicate(first)))
        expr: E.Expr = E.Split(input_expr, pattern=pattern, function=reattach_subtree)
        rest = steps[1:]
    else:
        # A leading child step navigates from the document wrapper: match
        # it with a ⊤-anchored pattern (a singleton set holding the whole
        # document), then run the step as an ordinary step function.
        expr = E.Split(
            input_expr, pattern=_DOCUMENT_PATTERN, function=reattach_subtree
        )
        rest = steps
    for step in rest:
        expr = E.SetFlatten(E.SetApply(expr, function=PathStepFn(step)))
    return expr


# ---------------------------------------------------------------------------
# The benchmark baseline
# ---------------------------------------------------------------------------


def naive_path(tree: AquaTree, text: str) -> list[AquaTree]:
    """A plain recursive DOM walk: no algebra, no indexes, no pruning.

    The CLAIM-DOCSTORE baseline.  Semantics match ``compile_path`` —
    results are the subtrees at the selected nodes, deduplicated.
    """
    steps = parse_path(text)
    if tree.root is None:
        return []
    frontier = [tree.root]
    for step in steps:
        predicate = step_predicate(step)
        selected: list[TreeNode] = []
        seen: set[int] = set()
        for node in frontier:
            for candidate in _step_candidates(node, step.axis):
                if id(candidate) not in seen and predicate(candidate.value):
                    seen.add(id(candidate))
                    selected.append(candidate)
        frontier = selected
    return [subtree_at(node) for node in frontier]
