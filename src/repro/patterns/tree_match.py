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
exponential machinery runs on small fragments — and the matcher narrows
them itself where it can: :func:`_candidate_roots` is the one seam the
index-probed roots, the columnar filter and the root first-set scan all
sit behind, so ``match_node`` is entered only for nodes that can root a
match.

One matcher implements the enumeration.  What varies is how much of
it consults the packrat tables of :mod:`repro.patterns.tree_memo`, and
the matcher decides that itself, from the compiled pattern and the data
in front of it — never from a knob:

* under a **vertical closure** (``tp*α`` / ``tp+α`` / a self-reaching
  ``∘α``) every derivation is cached per ``(node, subpattern,
  environment)`` and alphabet predicates are answered at most once per
  node through the context's predicate-outcome bitmap — footnote 3's
  repeated work lives here;
* **closure-free**, node-level derivations run untabled (each sub-term
  is tried at one fixed place below a match root); only child-sequence
  derivations over child lists of at least ``WIDE_CHILD_LIST`` nodes are
  tabled, and only ``opaque`` predicates go through the bitmap;
* handed a **null-table** context (``TreeMatchContext(...,
  tabled=False)``) it tables nothing: the plain backtracker, kept as the
  reference semantics the tabled paths are property-tested against.
  Only a caller that builds such a context (or arms a registry of them
  with ``match_scope``) runs it — only ``tests/reference.py`` does.

All three produce bit-identical ``Shape`` streams in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .. import guardrails
from ..core.aqua_tree import AquaTree, TreeNode
from ..core.concat import ConcatPoint
from ..core.identity import Cell, deref
from ..errors import PatternError, ResourceExhaustedError
from ..faults import active_plan, fault_point
from ..storage import stats as stats_mod
from .tree_ast import (
    ChildAlt,
    ChildEpsilon,
    ChildPatternNode,
    ChildPlus,
    ChildSeq,
    ChildStar,
    PointAtom,
    RootFirstSet,
    TreeAtom,
    TreeConcat,
    TreePattern,
    TreePatternNode,
    TreePlus,
    TreePrune,
    TreeStar,
    TreeUnion,
)
from .tree_memo import (
    WIDE_CHILD_LIST,
    TreeMatchContext,
    _Env,
    _StarCont,
    current_registry,
)

#: Distinguishes "cached False" from "not cached" in the nullable table.
_MISSING = object()

#: The matcher's counters, in emission order.
_COUNTERS = (
    "backtrack_steps",
    "predicate_evals",
    "memo_hits",
    "memo_misses",
    "bitmap_fills",
    "bitmap_hits",
)

#: Matcher steps a first-set scan lets rejected candidates run up before
#: it charges them — ``ShardGuard`` batches its ticks by the same 64.
_REJECT_BATCH = 64


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
    """One matcher instance per (pattern, input tree) pair.

    The methods named ``match_node`` / ``nullable`` / ``match_children``
    / ``_match_seq`` / ``_match_child_star`` / ``eval_predicate`` are the
    plain derivations.  Construction decides, from the context's
    compiled pattern, which of them a tabled variant shadows *on this
    instance* — so every recursive ``self.<seam>(...)`` call reaches the
    chosen variant directly, and a seam left alone costs exactly the
    plain call:

    * null-table context — nothing is shadowed (the backtracker);
    * vertical closure — every seam consults its table, predicates the
      bitmap;
    * closure-free — ``match_node`` / ``nullable`` stay plain; the three
      child-sequence seams table only over child lists of at least
      ``WIDE_CHILD_LIST`` nodes; predicates stay direct unless the
      pattern has an ``opaque`` one.
    """

    def __init__(self, context: TreeMatchContext, leaf_anchor: bool) -> None:
        self.context = context
        self.leaf_anchor = leaf_anchor
        self._flag = 1 if leaf_anchor else 0
        #: Enumeration work (match_node entries — the exponential §4
        #: wants narrowed), alphabet-predicate evaluations and table
        #: traffic; plain ints in the hot loop, flushed in bulk by the
        #: entry points.
        self.backtrack_steps = 0
        self.predicate_evals = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.bitmap_fills = 0
        self.bitmap_hits = 0
        #: The budget armed on this thread, if any; fetched once so the
        #: per-step cost with no budget is a single ``is None`` test.
        self.guard = guardrails.current_guard()
        self.nullable_limit = guardrails.nullable_depth_limit()
        self._companion: _TreeMatcher | None = None
        if not context.tabled:
            return
        self.match_children = self._tabled_children
        self._match_seq = self._tabled_seq
        self._match_child_star = self._tabled_star
        if context.closure:
            self._table_from = 0
            self.match_node = self._tabled_node
            self.nullable = self._tabled_nullable
            self.eval_predicate = self._bitmap_predicate
        else:
            self._table_from = WIDE_CHILD_LIST
            if context.opaque_predicates:
                self.eval_predicate = self._opaque_predicate

    def release(self) -> None:
        """Unbind the instance-level seams: the matcher is finished.

        Each ``self.<seam> = self._tabled_<seam>`` above is a bound
        method held by its own instance — a cycle only the cyclic
        collector would free.  The entry points call this when their
        stream ends, so a matcher dies by reference count with its scan.
        """
        for name, value in list(vars(self).items()):
            if getattr(value, "__self__", None) is self:
                delattr(self, name)
        if self._companion is not None:
            self._companion.release()

    def counter_snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}

    def emit_stats(self) -> None:
        stats_mod.emit_many(self.counter_snapshot())

    def flush_stats(self) -> None:
        """Emit the accumulated counters and reset them to zero.

        The physical operators flush after every candidate so the
        counts land inside the *currently attributed* operator scope;
        the whole-result entry points flush once at the end instead.
        """
        self.emit_stats()
        for name in _COUNTERS:
            setattr(self, name, 0)

    def absorb_counters(self, other: "_TreeMatcher", since: dict[str, int]) -> None:
        """Fold in the work ``other`` did since ``since`` was snapshot."""
        for name, value in other.counter_snapshot().items():
            setattr(self, name, getattr(self, name) + value - since[name])

    def eval_predicate(self, predicate, node: TreeNode) -> bool:
        """One alphabet-predicate test on one data node."""
        self.predicate_evals += 1
        return predicate(node.value)

    def plus_star(self, tp: TreePlus) -> TreeStar:
        """The star a ``tp+α`` unfolds through.

        A fresh node per expansion — cycle-guard keys compare star
        identity, so sharing one star across expansions would merge
        guard chains the enumeration keeps distinct.  A tabled context
        registers each fresh star under its plus's one stable memo
        number.
        """
        star = TreeStar(tp.inner, tp.point)
        if self.context.tabled:
            self.context.register_plus_star(tp, star)
        return star

    def prune_matcher(self) -> "_TreeMatcher":
        """The matcher for a prune's inner pattern (⊥ never reaches it)."""
        if not self.leaf_anchor:
            return self
        if self._companion is None:
            # Shares the context (tables, bitmap) under the ⊥-free flag.
            self._companion = _TreeMatcher(self.context, leaf_anchor=False)
        return self._companion

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
        if isinstance(tp, (PointAtom, TreeStar)):
            # A star's zero iterations *are* its point.  An unbound
            # point is a deletable labeled NULL — the paper closes
            # leftover points with nil before the membership check
            # (``y ∘αi nil ∈ L(tp)``); a bound one is as nullable as the
            # continuation it stands for.
            binding = env.get(tp.point.label)
            if binding is None:
                return True
            return self.nullable(binding, env, depth + 1)
        if isinstance(tp, TreeUnion):
            return any(self.nullable(a, env, depth + 1) for a in tp.alternatives)
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
            yield from self._match_point(tp.point, node, env, guard, depth)
            return
        if isinstance(tp, TreeUnion):
            for alternative in tp.alternatives:
                yield from self.match_node(alternative, node, env, guard, depth + 1)
            return
        if isinstance(tp, TreeStar):
            # Zero iterations: the star degenerates to its point.
            yield from self._match_point(tp.point, node, env, guard, depth)
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

    def _match_point(
        self,
        point: ConcatPoint,
        node: TreeNode,
        env: _Env,
        guard: frozenset,
        depth: int,
    ) -> "Iterator[Shape | Pruned]":
        """``α`` as a single-node pattern: whatever it is bound to here,
        re-entered under the cycle guard — or, unbound, a literal
        labeled NULL in the data (§3.5)."""
        binding = env.get(point.label)
        if binding is None:
            if node.is_concat_point and node.item == point:
                yield Shape(node, ())
            return
        key = _guard_key(node, binding)
        if key in guard:
            return
        if isinstance(binding, _StarCont):
            tp, env = binding.star, binding.env
        else:
            tp = binding
        yield from self.match_node(tp, node, env, guard | {key}, depth + 1)

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


    # -- the packrat core ----------------------------------------------------

    def _memoized(self, table: dict, key: tuple, compute) -> "Iterator | list":
        """Serve ``key`` from ``table``, else run ``compute()`` and store.

        A hit returns the stored list itself (callers only iterate), so
        replay costs one budget tick and no generator frames.  A miss is
        lazy by design: results stream out as the underlying derivation
        produces them and the list is stored only on clean exhaustion —
        an abandoned generator (early-exit consumer) or an in-flight
        re-entrant request leaves the table untouched.
        """
        cached = table.get(key)
        if cached is not None:
            self.memo_hits += 1
            if self.guard is not None:
                self.guard.tick(1, "memo replay")
            return cached
        if key in self.context.in_flight:
            return compute()
        self.memo_misses += 1
        return self._compute_and_store(table, key, compute)

    def _compute_and_store(self, table: dict, key: tuple, compute) -> Iterator:
        context = self.context
        context.in_flight.add(key)
        results: list = []
        completed = False
        try:
            for item in compute():
                results.append(item)
                yield item
            completed = True
        finally:
            context.in_flight.discard(key)
            if completed:
                table[key] = results
                cells = 1 + len(results)
                context.memo_cells += cells
                if self.guard is not None:
                    self.guard.tick(cells, "memo store")

    # -- tabled seams (``__init__`` binds them over the plain ones) ----------

    def _bitmap_predicate(self, predicate, node: TreeNode) -> bool:
        result, filled = self.context.bitmap.outcome(predicate, node)
        if filled:
            self.predicate_evals += 1
            self.bitmap_fills += 1
        else:
            self.bitmap_hits += 1
        return result

    def _opaque_predicate(self, predicate, node: TreeNode) -> bool:
        # Declarative predicates are cheaper to run than to look up;
        # ``opaque`` ones (arbitrary callables, possibly dear) keep the
        # at-most-once-per-node outcome bitmap.
        if id(predicate) not in self.context.opaque_predicates:
            self.predicate_evals += 1
            return predicate(node.value)
        self.context.engage()
        return self._bitmap_predicate(predicate, node)

    def _tabled_node(self, tp, node, env, guard=frozenset(), depth=0):
        # A non-empty expansion guard makes the outcome guard-dependent;
        # only guard-free derivations (which every child descent resets
        # to) are cacheable.
        if guard:
            return _TreeMatcher.match_node(self, tp, node, env, guard, depth)
        if isinstance(tp, TreeAtom):
            # Atoms are cheap to re-derive: the predicate answer comes
            # from the bitmap and any child-list derivation hits the
            # children tables, so wrapping them in node-level memo keys
            # costs more than it saves (scans and probes feed
            # mostly-failing atom roots).  Fail fast off the bitmap and
            # let successes run unwrapped.
            if not node.is_concat_point and not self.eval_predicate(
                tp.predicate, node
            ):
                self.backtrack_steps += 1
                if self.guard is not None:
                    self.guard.tick(1, "tree matcher")
                    self.guard.check_depth(depth, "tree matcher")
                return ()
            return _TreeMatcher.match_node(self, tp, node, env, guard, depth)
        key = self.context.node_key(tp, node, env, self._flag)
        if key is None:
            return _TreeMatcher.match_node(self, tp, node, env, guard, depth)
        return self._memoized(
            self.context.node_memo,
            key,
            lambda: _TreeMatcher.match_node(self, tp, node, env, guard, depth),
        )

    # The three child-sequence seams table from ``_table_from`` children
    # up: 0 under a closure, ``WIDE_CHILD_LIST`` without one — what can
    # repeat there is a suffix of a child-sequence derivation (once per
    # way of placing the earlier parts), which only pays on a wide list.

    def _tabled_children(self, cp, children, index, env, depth=0):
        if len(children) >= self._table_from:
            key = self.context.children_key(cp, children, index, env, self._flag)
            if key is not None:
                return self._memoized(
                    self.context.children_memo,
                    key,
                    lambda: _TreeMatcher.match_children(
                        self, cp, children, index, env, depth
                    ),
                )
        return _TreeMatcher.match_children(self, cp, children, index, env, depth)

    def _tabled_seq(self, parts, part_index, children, index, env, depth=0):
        if len(children) >= self._table_from:
            key = self.context.seq_key(
                parts, part_index, children, index, env, self._flag
            )
            if key is not None:
                return self._memoized(
                    self.context.seq_memo,
                    key,
                    lambda: _TreeMatcher._match_seq(
                        self, parts, part_index, children, index, env, depth
                    ),
                )
        return _TreeMatcher._match_seq(
            self, parts, part_index, children, index, env, depth
        )

    def _tabled_star(self, inner, children, index, env, depth=0):
        if len(children) >= self._table_from:
            key = self.context.children_key(inner, children, index, env, self._flag)
            if key is not None:
                return self._memoized(
                    self.context.star_memo,
                    key,
                    lambda: _TreeMatcher._match_child_star(
                        self, inner, children, index, env, depth
                    ),
                )
        return _TreeMatcher._match_child_star(self, inner, children, index, env, depth)

    def _tabled_nullable(self, tp, env, depth=0):
        key = self.context.null_key(tp, env)
        if key is None:
            return _TreeMatcher.nullable(self, tp, env, depth)
        cached = self.context.null_memo.get(key, _MISSING)
        if cached is not _MISSING:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        result = _TreeMatcher.nullable(self, tp, env, depth)
        self.context.null_memo[key] = result
        self.context.memo_cells += 1
        return result


def _matcher_for(
    pattern: TreePattern, data: AquaTree, context: TreeMatchContext | None
) -> "tuple[TreePattern, _TreeMatcher]":
    """The matcher for ``(pattern, data)`` and the pattern it matches.

    An explicit ``context`` wins; otherwise one comes from the active
    per-query registry (sharing memo tables and bitmap across every
    operator matching this (pattern, tree) pair) or is built standalone.
    Matching always uses the *context's* compiled pattern — an equal
    pattern compiled elsewhere would defeat the identity-keyed sub-term
    interning.
    """
    if context is None:
        registry = current_registry()
        if registry is not None:
            context = registry.context_for(pattern, data)
        else:
            context = TreeMatchContext(pattern, data)
    elif context.tree is not data:
        raise PatternError(
            "tree match context was built for a different data tree"
        )
    pattern = context.pattern
    return pattern, _TreeMatcher(context, leaf_anchor=pattern.leaf_anchor)


def _stack_exhausted(matcher: _TreeMatcher) -> ResourceExhaustedError:
    """The typed error for a match that outgrew Python's own stack."""
    guard = matcher.guard
    return ResourceExhaustedError(
        "tree matching recursed past the interpreter's stack limit — the"
        " data is too deep to match without a budget; arm"
        " max_backtrack_depth (AQUA_MAX_BACKTRACK_DEPTH) to fail sooner",
        limit_name="max_backtrack_depth",
        seam="tree matcher",
        usage=guard.usage() if guard is not None else None,
    )


def find_tree_matches(
    pattern: TreePattern,
    data: AquaTree,
    roots: Sequence[TreeNode] | None = None,
    limit: int | None = None,
    context: TreeMatchContext | None = None,
) -> list[TreeMatch]:
    """Enumerate distinct matches of ``pattern`` in ``data``.

    ``roots`` optionally restricts candidate match roots — the hook used
    by the split/index rewrite (§4) to avoid scanning every node.
    Matches are deduplicated structurally and returned in preorder of
    their roots.
    """
    results: list[TreeMatch] = []
    for match in iter_tree_matches(pattern, data, roots=roots, context=context):
        results.append(match)
        if limit is not None and len(results) >= limit:
            break
    return results


def _columnar_candidates(
    pattern: TreePattern, data: AquaTree
) -> "list[TreeNode] | None":
    """Matcher-level candidate-root filter via shared predicate columns.

    When a db-armed match scope is active (``PreparedQuery.run`` opens
    one per evaluation), the pattern's root predicates are
    column-servable and non-trivial, and the tree clears the columnar
    gate (``AQUA_COLUMNAR`` + size threshold), the full pre-order
    candidate walk collapses to the nodes whose predicate-column bits
    are set — exactly the nodes any match could root at, in pre-order,
    so the match stream is bit-identical by construction.  ``None``
    means "no help here": fall back to walking every node.
    """
    registry = current_registry()
    if registry is None or registry.db is None:
        return None
    from ..optimizer.anchors import tree_columnar_anchors

    anchors = tree_columnar_anchors(pattern)
    if anchors is None:
        return None
    from ..storage.columnar import columnar_candidate_roots

    return columnar_candidate_roots(registry.db, anchors, data)


def _first_set_scan(
    data: AquaTree,
    first_set: RootFirstSet,
    matcher: _TreeMatcher,
    on_candidate: "Callable[[int], None] | None",
    flush: bool,
) -> Iterator[TreeNode]:
    """The nodes of ``data`` the pattern's root first-set accepts, in
    preorder — having charged every node it rejected on the way.

    A rejected node is one the matcher would have been entered for and
    answered nothing: ``steps`` matcher steps, ``evals`` predicate
    evaluations (none on a labeled NULL), one ``on_candidate`` unit, one
    ``matcher_step`` fault point.  That is paid without entering it, in
    bulk — before each survivor is handed over, once ``_REJECT_BATCH``
    steps are owed, and at exhaustion — so a completed scan's totals are
    the node-at-a-time scan's and a deadline is noticed within one batch
    of where that scan would have noticed it.  When something counts
    candidates one by one — a fault plan, a ``max_steps`` or
    ``max_nodes_scanned`` limit — every node settles on its own, in the
    original order (fault point, node charge, steps): the fault fires at
    the same candidate, the limit trips at the same node.

    Walks ``tree.nodes()`` order inline off ``node.item``: no layout is
    forced on the tree, no property or generator resume paid per node.
    """
    accepts, steps, evals = first_set
    guard = matcher.guard
    faulty = active_plan() is not None
    budget = None if guard is None else guard.budget
    counted = faulty or (
        budget is not None
        and (budget.max_steps, budget.max_nodes_scanned) != (None, None)
    )
    batch = 1 if counted else max(1, _REJECT_BATCH // steps)

    def settle(rejected: int, points: int) -> None:
        """Charge ``rejected`` unentered nodes, ``points`` of them NULLs."""
        if faulty:  # batch is 1: once per rejected node, ahead of its charges
            fault_point("matcher_step")
        elements = rejected - points
        if on_candidate is not None and elements:
            on_candidate(elements)
        matcher.backtrack_steps += rejected * steps
        matcher.predicate_evals += elements * evals
        if guard is not None:
            guard.tick(rejected * steps, "tree matcher")
        if flush:
            matcher.flush_stats()

    rejected = points = 0
    stack = [data.root]
    pop, extend = stack.pop, stack.extend
    while stack:
        node = pop()
        children = node.children
        if children:
            extend(children[::-1])
        item = node.item
        if type(item) is Cell:
            accepted = accepts(item.contents)
        elif isinstance(item, ConcatPoint):
            accepted = False
            points += 1
        else:
            accepted = accepts(deref(item))
        if accepted:
            if rejected:
                settle(rejected, points)
                rejected = points = 0
            yield node
        else:
            rejected += 1
            if rejected >= batch:
                settle(rejected, points)
                rejected = points = 0
    if rejected:
        settle(rejected, points)


def _candidate_roots(
    pattern: TreePattern,
    data: AquaTree,
    roots: "Sequence[TreeNode] | None",
    matcher: _TreeMatcher,
    on_candidate: "Callable[[int], None] | None",
    flush: bool,
) -> Iterable[TreeNode]:
    """The nodes worth entering the matcher for, in preorder.

    The one place a scan is narrowed (§4 "Why split?": let the cheap
    anchor predicate pick the roots the expensive machinery sees).  In
    order of preference:

    * a ``⊤`` pattern has one candidate, the tree root;
    * caller-supplied ``roots`` (an index probe), sorted by layout
      position;
    * the columnar filter, inside a db-armed query on a tree that clears
      the kernel's gate (:func:`_columnar_candidates`);
    * the first-set scan, when the pattern's root predicates compile and
      the context is tabled and closure-free (:func:`_first_set_scan`) —
      under a closure, predicates answer from the bitmap at most once
      per node, and the null-table context is the reference: no tables,
      no prefilter;
    * otherwise every node.

    Whatever the source, the caller runs one loop over the result.
    """
    if pattern.root_anchor:
        return [data.root]
    if roots is not None:
        order = data.layout().position
        return sorted(roots, key=lambda n: order.get(id(n), len(order)))
    filtered = _columnar_candidates(pattern, data)
    if filtered is not None:
        return filtered
    context = matcher.context
    if context.tabled and not context.closure:
        first_set = pattern.root_first_set()
        # Rejecting unentered must not skip a depth trip the walk down
        # to the root atoms (at most ``steps`` deep) would have raised.
        guard = matcher.guard
        depth_limit = None if guard is None else guard.budget.max_backtrack_depth
        if first_set is not None and (
            depth_limit is None or first_set.steps <= depth_limit
        ):
            return _first_set_scan(data, first_set, matcher, on_candidate, flush)
    return data.nodes()


def iter_tree_matches(
    pattern: TreePattern,
    data: AquaTree,
    roots: Sequence[TreeNode] | None = None,
    on_candidate: "Callable[[int], None] | None" = None,
    flush_per_candidate: bool = False,
    context: TreeMatchContext | None = None,
) -> Iterator[TreeMatch]:
    """Lazily enumerate distinct matches, in preorder of their roots.

    The streaming analogue of :func:`find_tree_matches`: matches are
    produced one at a time, so a consumer that stops early (a tripped
    budget, a ``limit``) never pays for the remaining candidates.  The
    candidates come from :func:`_candidate_roots`.

    ``on_candidate(n)`` is invoked as ``n`` element nodes are taken as
    candidates — once per candidate before it is matched, or once for a
    run of candidates the first-set scan rejected (the scan operators'
    node-charging hook) — and ``flush_per_candidate`` flushes matcher
    counters at the same points so they are credited to whichever
    operator scope is attributed at pull time.

    ``context`` supplies a shared
    :class:`~repro.patterns.tree_memo.TreeMatchContext` so one memo
    table and predicate bitmap serve a whole candidate stream; without
    one the per-query registry's is used (so every operator matching the
    same pattern against the same tree shares it), or a fresh one.  A
    null-table context runs the plain backtracker.

    A match deep enough to exhaust Python's own stack with no depth
    budget armed raises :class:`~repro.errors.ResourceExhaustedError`
    (``max_backtrack_depth``), never a bare ``RecursionError``.
    """
    if isinstance(pattern.body, TreePrune):
        raise PatternError("a prune marker cannot be the whole pattern")
    if data.root is None:
        return
    with guardrails.guarded():
        pattern, matcher = _matcher_for(pattern, data, context)
        seen: set[tuple] = set()
        try:
            for node in _candidate_roots(
                pattern, data, roots, matcher, on_candidate, flush_per_candidate
            ):
                fault_point("matcher_step")
                if on_candidate is not None and not node.is_concat_point:
                    on_candidate(1)
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
        except RecursionError:
            raise _stack_exhausted(matcher) from None
        finally:
            matcher.emit_stats()
            matcher.release()


def tree_in_language(
    pattern: TreePattern,
    data: AquaTree,
    context: TreeMatchContext | None = None,
) -> bool:
    """Is the whole tree an element of the pattern's language?

    Language membership requires the match to cover the entire tree: it
    must start at the root and leave nothing pruned (no implicit
    descendants, no ``!`` leftovers), i.e. the paper's ``I ∈ L(P')``.
    """
    with guardrails.guarded():
        fault_point("matcher_step")
        if data.root is None:
            untabled = TreeMatchContext(pattern, data, tabled=False)
            return _TreeMatcher(untabled, leaf_anchor=False).nullable(pattern.body, {})
        pattern, matcher = _matcher_for(pattern, data, context)
        try:
            for shape in matcher.match_node(pattern.body, data.root, {}):
                if isinstance(shape, Pruned):
                    continue
                match = TreeMatch(shape)
                if not match.pruned_nodes():
                    return True
            return False
        except RecursionError:
            raise _stack_exhausted(matcher) from None
        finally:
            matcher.emit_stats()
            matcher.release()
