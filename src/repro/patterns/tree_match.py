"""Tree-pattern matching (paper §3.3–§3.5, §4).

The matcher enumerates every *instance* of a tree pattern in a data
tree: a connected subgraph whose shape is in the pattern's language once
its concatenation points are closed with NULL (the condition
``y ∘α1 nil ... ∘αn nil ∈ L(tp)`` in the formal definition of ``split``).

Matching works node-by-node with an **environment** that maps
concatenation-point labels to continuation patterns:

* ``tp1 ∘α tp2``     — match ``tp1`` with ``α ↦ tp2``;
* ``tp*α``           — match NULL (consume nothing) or ``tp`` with
  ``α ↦ tp*α``;
* ``tp+α``           — match ``tp`` with ``α ↦ tp*α``;
* an unbound ``α``   — match a literal labeled NULL in the data (§3.5).

A match is recorded as a :class:`Shape`: the kept data nodes plus, in
order, the places where subtrees were pruned — either explicitly by a
``!`` marker or implicitly because a bare pattern leaf matched an
interior node (its children become *descendants of the match*, §4).

Complexity note: enumeration is worst-case exponential, exactly as the
paper's footnote 3 admits for closure-heavy queries; the optimizer's
job (§4, "Why Split?") is to narrow the candidate roots so the
exponential machinery runs on small fragments.

Two engines implement the same enumeration, selected by the
``AQUA_TREE_ENGINE`` environment knob (or per call via ``engine=``):

* ``memo`` (the default) — the packrat engine of
  :mod:`repro.patterns.tree_memo`: where a second request for the same
  key can occur (everywhere under a vertical closure; otherwise only in
  child-sequence derivations over wide child lists) sub-derivations are
  cached per ``(node, subpattern, environment)`` and alphabet
  predicates answered at most once per node through a
  predicate-outcome bitmap;
* ``backtrack`` — the plain backtracker below, kept as the reference
  semantics the memo engine is property-tested against.

Both produce bit-identical ``Shape`` streams in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .. import config, guardrails
from ..core.aqua_tree import AquaTree, TreeNode
from ..core.concat import ConcatPoint
from ..errors import PatternError, ResourceExhaustedError
from ..faults import fault_point
from ..storage import stats as stats_mod
from .tree_ast import (
    ChildAlt,
    ChildEpsilon,
    ChildPatternNode,
    ChildPlus,
    ChildSeq,
    ChildStar,
    PointAtom,
    TreeAtom,
    TreeConcat,
    TreePattern,
    TreePatternNode,
    TreePlus,
    TreePrune,
    TreeStar,
    TreeUnion,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .tree_memo import TreeMatchContext

#: Environment knob selecting the default tree-matching engine.
TREE_ENGINE_ENV = config.TREE_ENGINE_ENV
_TREE_ENGINES = config.TREE_ENGINES


def tree_engine(engine: str | None = None) -> str:
    """Resolve the engine choice: argument > session scope > env > default.

    Validation lives in :mod:`repro.config`; a bad value raises a
    one-line :class:`~repro.errors.QueryError` naming the knob.
    """
    return config.validated_tree_engine(engine)


class _StarCont:
    """Continuation binding for a closure's own point.

    ``tp*α`` unfolds as ``tp`` with ``α ↦ tp*α`` — but the *zero-
    iterations* case of that inner star must see whatever ``α`` meant
    *outside* the closure (e.g. the right operand of an enclosing
    ``∘α``).  Binding the plain star node would shadow that outer
    meaning, so the environment binds this closure object instead: the
    star plus the environment captured where the closure was entered.
    """

    __slots__ = ("star", "env")

    def __init__(self, star: "TreeStar", env: "_Env") -> None:
        self.star = star
        self.env = env


_Env = dict[str, "TreePatternNode | _StarCont"]


def _guard_key(node: TreeNode, binding: "TreePatternNode | _StarCont") -> tuple:
    """Cycle-guard key for expanding a point binding at a node.

    Non-consuming expansions can only loop through the *same* binding
    (or the same closure — fresh ``_StarCont`` wrappers around one star
    are semantically identical), so the key pairs the node with the
    binding's identity, collapsing continuations to their star.
    """
    if isinstance(binding, _StarCont):
        return (id(node), "star", id(binding.star))
    return (id(node), "pat", id(binding))


@dataclass(frozen=True)
class Pruned:
    """A pruned attachment: the data subtree rooted here goes to ``z``."""

    node: TreeNode


@dataclass(frozen=True)
class Shape:
    """A kept data node of the match plus its (kept/pruned) children."""

    node: TreeNode
    children: tuple["Shape | Pruned", ...]


def _shape_key(part: "Shape | Pruned") -> tuple:
    if isinstance(part, Pruned):
        return ("p", id(part.node))
    return ("k", id(part.node), tuple(_shape_key(c) for c in part.children))


class TreeMatch:
    """One instance of a tree pattern in a data tree."""

    def __init__(self, shape: Shape) -> None:
        self.shape = shape

    @property
    def root(self) -> TreeNode:
        return self.shape.node

    def key(self) -> tuple:
        return _shape_key(self.shape)

    def kept_nodes(self) -> list[TreeNode]:
        """Kept data nodes in preorder."""
        result: list[TreeNode] = []

        def walk(part: Shape | Pruned) -> None:
            if isinstance(part, Shape):
                result.append(part.node)
                for child in part.children:
                    walk(child)

        walk(self.shape)
        return result

    def pruned_nodes(self) -> list[TreeNode]:
        """Roots of pruned subtrees, in attachment (preorder) order."""
        result: list[TreeNode] = []

        def walk(part: Shape | Pruned) -> None:
            if isinstance(part, Pruned):
                result.append(part.node)
            else:
                for child in part.children:
                    walk(child)

        walk(self.shape)
        return result

    def match_tree(self) -> tuple[AquaTree, list[ConcatPoint]]:
        """The piece ``y``: kept nodes with fresh points ``α1..αn``.

        Returns the tree and the points, ordered to line up with
        :meth:`pruned_subtrees` — the invariant
        ``y ∘α1 z1 ∘α2 z2 ... = full match subgraph`` holds.
        """
        counter = 0
        points: list[ConcatPoint] = []

        def build(part: Shape | Pruned) -> TreeNode:
            nonlocal counter
            if isinstance(part, Pruned):
                counter += 1
                point = ConcatPoint(str(counter))
                points.append(point)
                return TreeNode(point)
            return TreeNode(part.node.item, [build(c) for c in part.children])

        root = build(self.shape)
        return AquaTree(root), points

    def pruned_subtrees(self) -> list[AquaTree]:
        """The pruned subtrees ``z = [t1..tn]``, cloned (cells shared)."""
        return [AquaTree(node).clone() for node in self.pruned_nodes()]

    def __repr__(self) -> str:
        tree, _ = self.match_tree()
        return f"TreeMatch({tree.to_notation()})"


class _TreeMatcher:
    """One matcher instance per (pattern, input tree) pair."""

    def __init__(self, leaf_anchor: bool) -> None:
        self.leaf_anchor = leaf_anchor
        #: Enumeration work (match_node entries — the exponential §4
        #: wants narrowed) and alphabet-predicate evaluations; plain
        #: ints in the hot loop, flushed in bulk by the entry points.
        self.backtrack_steps = 0
        self.predicate_evals = 0
        #: The budget armed on this thread, if any; fetched once so the
        #: per-step cost with no budget is a single ``is None`` test.
        self.guard = guardrails.current_guard()
        self.nullable_limit = guardrails.nullable_depth_limit()

    def counter_snapshot(self) -> dict[str, int]:
        return {
            "backtrack_steps": self.backtrack_steps,
            "predicate_evals": self.predicate_evals,
        }

    def emit_stats(self) -> None:
        stats_mod.emit_many(self.counter_snapshot())

    def flush_stats(self) -> None:
        """Emit the accumulated counters and reset them to zero.

        The physical operators flush after every candidate so the
        counts land inside the *currently attributed* operator scope;
        the whole-result entry points flush once at the end instead.
        """
        self.emit_stats()
        for name in self.counter_snapshot():
            setattr(self, name, 0)

    def absorb_counters(self, other: "_TreeMatcher", since: dict[str, int]) -> None:
        """Fold in the work ``other`` did since ``since`` was snapshot."""
        for name, value in other.counter_snapshot().items():
            setattr(self, name, getattr(self, name) + value - since.get(name, 0))

    # -- engine seams (the memo engine overrides these) ----------------------

    def eval_predicate(self, predicate, node: TreeNode) -> bool:
        """One alphabet-predicate test on one data node."""
        self.predicate_evals += 1
        return predicate(node.value)

    def plus_star(self, tp: TreePlus) -> TreeStar:
        """The star a ``tp+α`` unfolds through.

        A fresh node per expansion, exactly like the inline construction
        it replaces — cycle-guard keys compare star identity, so sharing
        one star across expansions would merge guard chains the
        backtracker keeps distinct.  The memo engine also creates fresh
        stars but registers each under one stable memo number.
        """
        return TreeStar(tp.inner, tp.point)

    def prune_matcher(self) -> "_TreeMatcher":
        """The matcher for a prune's inner pattern (⊥ never reaches it)."""
        return self if not self.leaf_anchor else _TreeMatcher(False)

    # -- nullability (can the pattern denote NULL?) --------------------------

    def nullable(
        self,
        tp: "TreePatternNode | ChildPatternNode | _StarCont",
        env: _Env,
        depth: int = 0,
    ) -> bool:
        if depth > self.nullable_limit:
            rendered = tp.star.describe() if isinstance(tp, _StarCont) else tp.describe()
            raise ResourceExhaustedError(
                "nullability analysis exceeded the backtrack-depth budget "
                f"(max_backtrack_depth={self.nullable_limit}) — the "
                f"concatenation-point bindings of {rendered!r} recurse too "
                "deeply (usually a binding cycle)",
                limit_name="max_backtrack_depth",
                limit=self.nullable_limit,
                spent=depth,
                seam="nullability analysis",
                usage=self.guard.usage() if self.guard is not None else None,
            )
        if isinstance(tp, _StarCont):
            return self.nullable(tp.star, tp.env, depth + 1)
        if isinstance(tp, (TreeAtom,)):
            return False
        if isinstance(tp, PointAtom):
            binding = env.get(tp.point.label)
            if binding is None:
                # An unbound point is a deletable labeled NULL — the
                # paper closes leftover points with nil before the
                # membership check (``y ∘αi nil ∈ L(tp)``).
                return True
            return self.nullable(binding, env, depth + 1)
        if isinstance(tp, TreeUnion):
            return any(self.nullable(a, env, depth + 1) for a in tp.alternatives)
        if isinstance(tp, TreeStar):
            # Zero iterations: the star *is* its point — deletable when
            # unbound, otherwise as nullable as the outer continuation.
            binding = env.get(tp.point.label)
            if binding is None:
                return True
            return self.nullable(binding, env, depth + 1)
        if isinstance(tp, TreePlus):
            inner_env = dict(env)
            inner_env[tp.point.label] = _StarCont(self.plus_star(tp), dict(env))
            return self.nullable(tp.inner, inner_env, depth + 1)
        if isinstance(tp, TreeConcat):
            inner_env = dict(env)
            inner_env[tp.point.label] = tp.right
            return self.nullable(tp.left, inner_env, depth + 1)
        if isinstance(tp, TreePrune):
            return tp.optional or self.nullable(tp.inner, env, depth + 1)
        if isinstance(tp, ChildEpsilon):
            return True
        if isinstance(tp, ChildSeq):
            return all(self.nullable(p, env, depth + 1) for p in tp.parts)
        if isinstance(tp, ChildAlt):
            return any(self.nullable(a, env, depth + 1) for a in tp.alternatives)
        if isinstance(tp, ChildStar):
            return True
        if isinstance(tp, ChildPlus):
            return self.nullable(tp.inner, env, depth + 1)
        raise PatternError(f"unknown pattern node {tp!r}")

    # -- node-level matching (consumes exactly one data node) ----------------

    def match_node(
        self,
        tp: TreePatternNode,
        node: TreeNode,
        env: _Env,
        guard: frozenset = frozenset(),
        depth: int = 0,
    ) -> "Iterator[Shape | Pruned]":
        self.backtrack_steps += 1
        if self.guard is not None:
            self.guard.tick(1, "tree matcher")
            self.guard.check_depth(depth, "tree matcher")
        if isinstance(tp, TreeAtom):
            if node.is_concat_point:
                return
            if not self.eval_predicate(tp.predicate, node):
                return
            if tp.children is None:
                if self.leaf_anchor:
                    if not node.children:
                        yield Shape(node, ())
                else:
                    yield Shape(node, tuple(Pruned(c) for c in node.children))
                return
            for end, fragments in self.match_children(
                tp.children, node.children, 0, env, depth + 1
            ):
                if end == len(node.children):
                    yield Shape(node, fragments)
            return
        if isinstance(tp, PointAtom):
            binding = env.get(tp.point.label)
            if binding is None:
                if node.is_concat_point and node.item == tp.point:
                    yield Shape(node, ())
                return
            key = _guard_key(node, binding)
            if key in guard:
                return
            if isinstance(binding, _StarCont):
                yield from self.match_node(
                    binding.star, node, binding.env, guard | {key}, depth + 1
                )
            else:
                yield from self.match_node(binding, node, env, guard | {key}, depth + 1)
            return
        if isinstance(tp, TreeUnion):
            for alternative in tp.alternatives:
                yield from self.match_node(alternative, node, env, guard, depth + 1)
            return
        if isinstance(tp, TreeStar):
            # Zero iterations: the star degenerates to its point, which
            # matches whatever α means outside the closure (or a literal
            # labeled NULL in the data).
            binding = env.get(tp.point.label)
            if binding is None:
                if node.is_concat_point and node.item == tp.point:
                    yield Shape(node, ())
            else:
                key = _guard_key(node, binding)
                if key not in guard:
                    if isinstance(binding, _StarCont):
                        yield from self.match_node(
                            binding.star, node, binding.env, guard | {key}, depth + 1
                        )
                    else:
                        yield from self.match_node(
                            binding, node, env, guard | {key}, depth + 1
                        )
            # One or more iterations: unfold, rebinding the point to this
            # closure *with the current outer environment captured*.
            inner_env = dict(env)
            inner_env[tp.point.label] = _StarCont(tp, dict(env))
            yield from self.match_node(tp.inner, node, inner_env, guard, depth + 1)
            return
        if isinstance(tp, TreePlus):
            inner_env = dict(env)
            inner_env[tp.point.label] = _StarCont(self.plus_star(tp), dict(env))
            yield from self.match_node(tp.inner, node, inner_env, guard, depth + 1)
            return
        if isinstance(tp, TreeConcat):
            inner_env = dict(env)
            inner_env[tp.point.label] = tp.right
            yield from self.match_node(tp.left, node, inner_env, guard, depth + 1)
            return
        if isinstance(tp, TreePrune):
            # A prune consumes the node and hides its whole subtree; the
            # inner pattern only gates whether the prune applies.  The ⊥
            # leaf anchor does not reach inside prunes — pruned subtrees
            # are excluded from the match, so their leaves need not align.
            inner_matcher = self.prune_matcher()
            since = None if inner_matcher is self else inner_matcher.counter_snapshot()
            matched = any(
                True
                for _ in inner_matcher.match_node(tp.inner, node, env, guard, depth + 1)
            )
            if since is not None:
                self.absorb_counters(inner_matcher, since)
            if matched:
                yield Pruned(node)
            return
        raise PatternError(f"unknown tree pattern node {tp!r}")

    # -- child-sequence matching ----------------------------------------------

    def match_children(
        self,
        cp: ChildPatternNode | TreePatternNode,
        children: Sequence[TreeNode],
        index: int,
        env: _Env,
        depth: int = 0,
    ) -> Iterator[tuple[int, tuple[Shape | Pruned, ...]]]:
        """Yield ``(next_index, fragments)`` for matches starting at ``index``."""
        if self.guard is not None:
            self.guard.tick(1, "tree matcher")
            self.guard.check_depth(depth, "tree matcher")
        if isinstance(cp, ChildEpsilon):
            yield index, ()
            return
        if isinstance(cp, ChildSeq):
            yield from self._match_seq(cp.parts, 0, children, index, env, depth + 1)
            return
        if isinstance(cp, ChildAlt):
            for alternative in cp.alternatives:
                yield from self.match_children(alternative, children, index, env, depth + 1)
            return
        if isinstance(cp, ChildStar):
            yield from self._match_child_star(cp.inner, children, index, env, depth + 1)
            return
        if isinstance(cp, ChildPlus):
            for mid, head in self.match_children(cp.inner, children, index, env, depth + 1):
                for end, tail in self._match_child_star(
                    cp.inner, children, mid, env, depth + 1
                ):
                    yield end, head + tail
            return
        # A tree pattern as a child-list atom: consumes zero children when
        # it can denote NULL, otherwise exactly one child subtree (a
        # TreePrune consumes the child and yields a Pruned fragment).
        if isinstance(cp, TreePatternNode):
            if self.nullable(cp, env):
                yield index, ()
            if index < len(children):
                for shape in self.match_node(cp, children[index], env, depth=depth + 1):
                    yield index + 1, (shape,)
            return
        raise PatternError(f"unknown child pattern node {cp!r}")

    def _match_seq(
        self,
        parts: Sequence[ChildPatternNode | TreePatternNode],
        part_index: int,
        children: Sequence[TreeNode],
        index: int,
        env: _Env,
        depth: int = 0,
    ) -> Iterator[tuple[int, tuple[Shape | Pruned, ...]]]:
        if part_index == len(parts):
            yield index, ()
            return
        for mid, head in self.match_children(parts[part_index], children, index, env, depth):
            for end, tail in self._match_seq(
                parts, part_index + 1, children, mid, env, depth + 1
            ):
                yield end, head + tail

    def _match_child_star(
        self,
        inner: ChildPatternNode | TreePatternNode,
        children: Sequence[TreeNode],
        index: int,
        env: _Env,
        depth: int = 0,
    ) -> Iterator[tuple[int, tuple[Shape | Pruned, ...]]]:
        yield index, ()
        for mid, head in self.match_children(inner, children, index, env, depth):
            if mid == index:
                continue  # progress guard: nullable inner cannot loop
            for end, tail in self._match_child_star(inner, children, mid, env, depth + 1):
                yield end, head + tail


def _resolve_context(
    pattern: TreePattern,
    data: AquaTree,
    engine: str | None,
    context: "TreeMatchContext | None",
) -> "tuple[TreePattern, TreeMatchContext | None]":
    """Pick the engine and (for ``memo``) the shared match context.

    An explicit ``context`` wins and implies the memo engine.  Otherwise
    the resolved engine decides: ``memo`` fetches a context from the
    active per-query registry (sharing memo tables and bitmap across
    every operator matching this (pattern, tree) pair) or builds a
    standalone one; ``backtrack`` returns no context.  Matching always
    uses the *context's* compiled pattern — an equal pattern compiled
    elsewhere would defeat the identity-keyed sub-term interning.
    """
    from .tree_memo import TreeMatchContext, current_registry

    if context is None:
        if tree_engine(engine) == "backtrack":
            return pattern, None
        registry = current_registry()
        if registry is not None:
            context = registry.context_for(pattern, data)
        else:
            context = TreeMatchContext(pattern, data)
    elif context.tree is not data:
        raise PatternError(
            "tree match context was built for a different data tree"
        )
    return context.pattern, context


def _make_matcher(
    pattern: TreePattern, context: "TreeMatchContext | None"
) -> _TreeMatcher:
    if context is None:
        return _TreeMatcher(leaf_anchor=pattern.leaf_anchor)
    from .tree_memo import ClosureFreeMemoMatcher, MemoTreeMatcher

    cls = MemoTreeMatcher if context.closure else ClosureFreeMemoMatcher
    return cls(context, leaf_anchor=pattern.leaf_anchor)


def find_tree_matches(
    pattern: TreePattern,
    data: AquaTree,
    roots: Sequence[TreeNode] | None = None,
    limit: int | None = None,
    engine: str | None = None,
    context: "TreeMatchContext | None" = None,
) -> list[TreeMatch]:
    """Enumerate distinct matches of ``pattern`` in ``data``.

    ``roots`` optionally restricts candidate match roots — the hook used
    by the split/index rewrite (§4) to avoid scanning every node.
    Matches are deduplicated structurally and returned in preorder of
    their roots.
    """
    results: list[TreeMatch] = []
    for match in iter_tree_matches(
        pattern, data, roots=roots, engine=engine, context=context
    ):
        results.append(match)
        if limit is not None and len(results) >= limit:
            break
    return results


def _columnar_candidates(
    pattern: TreePattern, data: AquaTree
) -> "list[TreeNode] | None":
    """Engine-level candidate-root filter via shared predicate columns.

    When a db-armed match scope is active (``PreparedQuery.run`` opens
    one per evaluation), the pattern's root predicates are
    column-servable and non-trivial, and the tree clears the columnar
    gate (``AQUA_COLUMNAR`` + size threshold), the full pre-order
    candidate walk collapses to the nodes whose predicate-column bits
    are set — exactly the nodes any match could root at, in pre-order,
    so the match stream is bit-identical by construction.  ``None``
    means "no help here": fall back to walking every node.
    """
    from .tree_memo import current_registry

    registry = current_registry()
    if registry is None or registry.db is None:
        return None
    from ..optimizer.anchors import tree_columnar_anchors

    anchors = tree_columnar_anchors(pattern)
    if anchors is None:
        return None
    from ..storage.columnar import columnar_candidate_roots

    return columnar_candidate_roots(registry.db, anchors, data)


def iter_tree_matches(
    pattern: TreePattern,
    data: AquaTree,
    roots: Sequence[TreeNode] | None = None,
    on_candidate: "Callable[[TreeNode], None] | None" = None,
    flush_per_candidate: bool = False,
    engine: str | None = None,
    context: "TreeMatchContext | None" = None,
) -> Iterator[TreeMatch]:
    """Lazily enumerate distinct matches, in preorder of their roots.

    The streaming analogue of :func:`find_tree_matches`: matches are
    produced one at a time, so a consumer that stops early (a tripped
    budget, a ``limit``) never pays for the remaining candidates.  With
    no ``roots`` restriction the candidates are walked in preorder
    directly; given ``roots`` are sorted by their position in the tree's
    layout.

    ``on_candidate`` is invoked once per candidate node before it is
    matched (the scan operators' per-node charging hook), and
    ``flush_per_candidate`` flushes matcher counters after every
    candidate so they are credited to whichever operator scope is
    attributed at pull time.

    ``engine`` selects the matching engine (default: the
    ``AQUA_TREE_ENGINE`` knob); ``context`` supplies a shared
    :class:`~repro.patterns.tree_memo.TreeMatchContext` so one memo
    table and predicate bitmap serve a whole candidate stream (and, via
    the per-query registry, every operator matching the same pattern
    against the same tree).
    """
    if isinstance(pattern.body, TreePrune):
        raise PatternError("a prune marker cannot be the whole pattern")
    if data.root is None:
        return
    pattern, context = _resolve_context(pattern, data, engine, context)
    with guardrails.guarded():
        matcher = _make_matcher(pattern, context)

        candidates: Iterable[TreeNode]
        if pattern.root_anchor:
            candidates = [data.root]
        elif roots is not None:
            order = data.layout().position
            candidates = sorted(roots, key=lambda n: order.get(id(n), len(order)))
        else:
            filtered = _columnar_candidates(pattern, data)
            candidates = data.nodes() if filtered is None else filtered

        seen: set[tuple] = set()
        try:
            for node in candidates:
                fault_point("matcher_step")
                if on_candidate is not None:
                    on_candidate(node)
                for shape in matcher.match_node(pattern.body, node, {}):
                    if isinstance(shape, Pruned):
                        continue
                    match = TreeMatch(shape)
                    key = match.key()
                    if key in seen:
                        continue
                    seen.add(key)
                    yield match
                if flush_per_candidate:
                    matcher.flush_stats()
        finally:
            matcher.emit_stats()


def tree_in_language(
    pattern: TreePattern,
    data: AquaTree,
    engine: str | None = None,
    context: "TreeMatchContext | None" = None,
) -> bool:
    """Is the whole tree an element of the pattern's language?

    Language membership requires the match to cover the entire tree: it
    must start at the root and leave nothing pruned (no implicit
    descendants, no ``!`` leftovers), i.e. the paper's ``I ∈ L(P')``.
    """
    with guardrails.guarded():
        fault_point("matcher_step")
        if data.root is None:
            matcher = _TreeMatcher(leaf_anchor=False)
            return matcher.nullable(pattern.body, {})
        pattern, context = _resolve_context(pattern, data, engine, context)
        matcher = _make_matcher(pattern, context)
        try:
            for shape in matcher.match_node(pattern.body, data.root, {}):
                if isinstance(shape, Pruned):
                    continue
                match = TreeMatch(shape)
                if not match.pruned_nodes():
                    return True
            return False
        finally:
            matcher.emit_stats()
