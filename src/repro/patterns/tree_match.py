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
index-probed roots and the root first-set scan sit behind, so
``match_node`` is entered only for nodes that can root a match.  The
matcher reads nothing but the pattern and the tree — no database.

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
  with :func:`repro.context.entered`) runs it — only
  ``tests/reference.py`` does.

All three produce bit-identical ``Shape`` streams in the same order.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .. import context as query_context
from .. import guardrails, params
from ..core.aqua_tree import AquaTree, TreeNode, TreePostings
from ..core.concat import ConcatPoint
from ..core.identity import Cell, deref
from ..errors import PatternError, ResourceExhaustedError
from ..faults import active_plan, fault_point
from .list_ast import atom_text
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
#: it charges them.  Charging in bulk keeps the guard off the per-node
#: path; a deadline or cancellation is then noticed at most 64 steps
#: after a node-at-a-time scan would notice it, a quarter of the guard's
#: own ``TIME_CHECK_INTERVAL``.
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
    """One instance of a tree pattern in a data tree.  A lone childless
    atom's match (:meth:`at`) builds its shape — the root kept, every
    child pruned — only if something reads it."""

    __slots__ = ("root", "_shape")

    def __init__(self, shape: Shape) -> None:
        self.root: TreeNode = shape.node
        self._shape: Shape | None = shape

    @classmethod
    def at(cls, node: TreeNode) -> "TreeMatch":
        match = cls.__new__(cls)
        match.root, match._shape = node, None
        return match

    @property
    def shape(self) -> Shape:
        if self._shape is None:
            self._shape = Shape(self.root, tuple(Pruned(c) for c in self.root.children))
        return self._shape

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
    plain derivations (the first three dispatch on the pattern node's
    exact type, :data:`_NODE`).  Construction decides, from the context's
    compiled pattern, which of them a tabled variant shadows *on this
    instance* — so every recursive ``self.<seam>(...)`` call reaches the
    chosen variant directly, and a seam left alone costs exactly the
    plain call:

    * null-table context — nothing is shadowed (the backtracker);
    * vertical closure — every seam consults its table, predicates the
      bitmap;
    * closure-free — ``match_node`` / ``nullable`` stay plain; atoms
      test through their compiled predicate unless ``opaque`` (bitmap);
      the child-sequence seams stay plain until an atom meets a list of
      ``WIDE_CHILD_LIST`` children, which binds the tabled ones (they
      table only such lists).
    """

    def __init__(self, context: TreeMatchContext, leaf_anchor: bool) -> None:
        self.context = context
        self.leaf_anchor = leaf_anchor
        self._flag = 1 if leaf_anchor else 0
        #: Enumeration work (match_node entries — the exponential §4
        #: wants narrowed), alphabet-predicate evaluations and table
        #: traffic; plain ints in the hot loop, flushed in bulk when the
        #: entry points hand a match over.
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
        #: Compiled atom tests by predicate id, made on first use: a
        #: ``$param`` is read once per matcher, i.e. once per run.
        self._tests: dict[int, Callable] = {}
        #: Child-list length at which an atom binds the tabled
        #: child-sequence seams (closure-free only; never otherwise).
        self._bind_tables_from = sys.maxsize
        self._child = _CHILD
        if not context.tabled:
            return
        if context.closure:
            self._table_from = 0
            self._bind_tables()
            self._child = _CHILD_TABLED_NULLABLE
            self.match_node = self._tabled_node
            self.nullable = self._tabled_nullable
            self.eval_predicate = self._bitmap_predicate
        else:
            self._table_from = self._bind_tables_from = WIDE_CHILD_LIST
            opaque = context.opaque_predicates
            self.eval_predicate = self._opaque_predicate if opaque else self._compiled_predicate

    def _bind_tables(self) -> None:
        """Route the three child-sequence seams through their tables."""
        self.match_children = self._tabled_children
        self._match_seq = self._tabled_seq
        self._match_child_star = self._tabled_star
        self._bind_tables_from = sys.maxsize

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
        if query_context.receiving():
            query_context.emit_many(self.counter_snapshot())

    def flush_stats(self) -> None:
        """Emit the accumulated counters and reset them to zero.

        :func:`iter_tree_matches` flushes as it hands every batch-th
        match over: everything since the last flush ran inside the
        pulling operator's ``next_batch()`` calls, so the counts land in
        its scope — one flush per batch, not per match or candidate.
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

    def _compiled_predicate(self, predicate, node: TreeNode) -> bool:
        # The compiled closure, made once per matcher; a refusal keeps
        # ``__call__``, so an unbound ``$param`` raises as it would there.
        self.predicate_evals += 1
        test = self._tests.get(id(predicate))
        if test is None:
            test = self._tests[id(predicate)] = predicate.compile() or predicate
        item = node.item
        return test(item.contents if type(item) is Cell else deref(item))

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
        handler = _NULLABLE.get(type(tp))
        if handler is None:
            raise PatternError(f"unknown pattern node {tp!r}")
        return handler(self, tp, env, depth + 1)

    def _nullable_point(self, tp: "PointAtom | TreeStar", env: _Env, depth: int) -> bool:
        # A star's zero iterations *are* its point.  An unbound point is
        # a deletable labeled NULL — the paper closes leftover points
        # with nil before the membership check (``y ∘αi nil ∈ L(tp)``);
        # a bound one is as nullable as the continuation it stands for.
        binding = env.get(tp.point.label)
        return binding is None or self.nullable(binding, env, depth)

    # -- node-level matching (consumes exactly one data node) ----------------

    def match_node(
        self,
        tp: TreePatternNode,
        node: TreeNode,
        env: _Env,
        guard: frozenset = frozenset(),
        depth: int = 0,
    ) -> "Iterable[Shape | Pruned]":
        self.backtrack_steps += 1
        if self.guard is not None:
            self.guard.tick(1, "tree matcher", depth)
        handler = _NODE.get(type(tp))
        if handler is None:
            raise PatternError(f"unknown tree pattern node {tp!r}")
        return handler(self, tp, node, env, guard, depth)

    def _match_atom(self, tp: TreeAtom, node, env, guard, depth) -> "Iterable[Shape]":
        # Decided before any generator exists: most atoms fail here.
        if isinstance(node.item, ConcatPoint) or not self.eval_predicate(
            tp.predicate, node
        ):
            return ()
        children = node.children
        if tp.children is None:
            if not self.leaf_anchor:
                return (Shape(node, tuple(Pruned(c) for c in children)),)
            return () if children else (Shape(node, ()),)
        if len(children) >= self._bind_tables_from:
            self._bind_tables()
        return self._match_atom_children(tp, node, env, depth)

    def _match_atom_children(self, tp: TreeAtom, node, env, depth) -> Iterator[Shape]:
        children = node.children
        for end, fragments in self.match_children(tp.children, children, 0, env, depth + 1):
            if end == len(children):
                yield Shape(node, fragments)

    def _match_union(self, tp: TreeUnion, node, env, guard, depth):
        for alternative in tp.alternatives:
            yield from self.match_node(alternative, node, env, guard, depth + 1)

    def _match_star(self, tp: TreeStar, node, env, guard, depth):
        # Zero iterations: the star degenerates to its point.
        yield from self._match_point(tp, node, env, guard, depth)
        # One or more iterations: unfold, rebinding the point to this
        # closure *with the current outer environment captured*.
        inner_env = {**env, tp.point.label: _StarCont(tp, dict(env))}
        yield from self.match_node(tp.inner, node, inner_env, guard, depth + 1)

    def _match_prune(self, tp: TreePrune, node, env, guard, depth):
        # A prune consumes the node and hides its whole subtree; the
        # inner pattern only gates whether the prune applies.  The ⊥
        # leaf anchor does not reach inside prunes — pruned subtrees
        # are excluded from the match, so their leaves need not align.
        inner_matcher = self.prune_matcher()
        since = None if inner_matcher is self else inner_matcher.counter_snapshot()
        matched = any(
            True for _ in inner_matcher.match_node(tp.inner, node, env, guard, depth + 1)
        )
        if since is not None:
            self.absorb_counters(inner_matcher, since)
        return (Pruned(node),) if matched else ()

    def _match_point(
        self,
        tp: "PointAtom | TreeStar",
        node: TreeNode,
        env: _Env,
        guard: frozenset,
        depth: int,
    ) -> "Iterable[Shape | Pruned]":
        """``α`` as a single-node pattern: whatever it is bound to here,
        re-entered under the cycle guard — or, unbound, a literal
        labeled NULL in the data (§3.5)."""
        point = tp.point
        binding = env.get(point.label)
        if binding is None:
            matched = node.is_concat_point and node.item == point
            return (Shape(node, ()),) if matched else ()
        key = _guard_key(node, binding)
        if key in guard:
            return ()
        if isinstance(binding, _StarCont):
            tp, env = binding.star, binding.env
        else:
            tp = binding
        return self.match_node(tp, node, env, guard | {key}, depth + 1)

    # -- child-sequence matching ----------------------------------------------

    def match_children(
        self,
        cp: ChildPatternNode | TreePatternNode,
        children: Sequence[TreeNode],
        index: int,
        env: _Env,
        depth: int = 0,
    ) -> Iterable[tuple[int, tuple[Shape | Pruned, ...]]]:
        """``(next_index, fragments)`` for each match starting at ``index``."""
        if self.guard is not None:
            self.guard.tick(1, "tree matcher", depth)
        handler = self._child.get(type(cp))
        if handler is None:
            raise PatternError(f"unknown child pattern node {cp!r}")
        return handler(self, cp, children, index, env, depth + 1)

    def _children_alt(self, cp: ChildAlt, children, index, env, depth):
        for alternative in cp.alternatives:
            yield from self.match_children(alternative, children, index, env, depth)

    def _children_plus(self, cp: ChildPlus, children, index, env, depth):
        for mid, head in self.match_children(cp.inner, children, index, env, depth):
            for end, tail in self._match_child_star(cp.inner, children, mid, env, depth):
                yield end, head + tail

    # A tree pattern as a child-list atom: consumes zero children when it
    # can denote NULL, otherwise exactly one child subtree (a TreePrune
    # consumes the child and yields a Pruned fragment).  An atom never
    # denotes NULL, so off the tabled-nullable path it skips the question.

    def _children_tree(self, cp: TreePatternNode, children, index, env, depth):
        if self.nullable(cp, env):
            yield index, ()
        yield from self._children_atom(cp, children, index, env, depth)

    def _children_atom(self, cp: TreePatternNode, children, index, env, depth):
        if index < len(children):
            for shape in self.match_node(cp, children[index], env, depth=depth):
                yield index + 1, (shape,)

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
            return self._compiled_predicate(predicate, node)
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
                    self.guard.tick(1, "tree matcher", depth)
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


#: Per pattern-node type, the handler ``match_node`` / ``match_children``
#: / ``nullable`` hands it to (the closure variant's atoms ask ``nullable``).
_NODE = {
    TreeAtom: _TreeMatcher._match_atom,
    PointAtom: _TreeMatcher._match_point,
    TreeUnion: _TreeMatcher._match_union,
    TreeStar: _TreeMatcher._match_star,
    TreePlus: lambda m, tp, node, env, guard, d: m.match_node(
        tp.inner, node, _plus_env(m, tp, env), guard, d + 1
    ),
    TreeConcat: lambda m, tp, node, env, guard, d: m.match_node(
        tp.left, node, {**env, tp.point.label: tp.right}, guard, d + 1
    ),
    TreePrune: _TreeMatcher._match_prune,
}
_CHILD = {
    **dict.fromkeys(_NODE, _TreeMatcher._children_tree),
    TreeAtom: _TreeMatcher._children_atom,
    ChildEpsilon: lambda m, cp, ch, i, env, d: ((i, ()),),
    ChildSeq: lambda m, cp, ch, i, env, d: m._match_seq(cp.parts, 0, ch, i, env, d),
    ChildAlt: _TreeMatcher._children_alt,
    ChildStar: lambda m, cp, ch, i, env, d: m._match_child_star(cp.inner, ch, i, env, d),
    ChildPlus: _TreeMatcher._children_plus,
}
_CHILD_TABLED_NULLABLE = {**_CHILD, TreeAtom: _TreeMatcher._children_tree}
_NULLABLE = {
    _StarCont: lambda m, tp, env, d: m.nullable(tp.star, tp.env, d),
    TreeAtom: lambda m, tp, env, d: False,
    PointAtom: _TreeMatcher._nullable_point,
    TreeStar: _TreeMatcher._nullable_point,
    TreeUnion: lambda m, tp, env, d: any(m.nullable(a, env, d) for a in tp.alternatives),
    TreePlus: lambda m, tp, env, d: m.nullable(tp.inner, _plus_env(m, tp, env), d),
    TreeConcat: lambda m, tp, env, d: m.nullable(
        tp.left, {**env, tp.point.label: tp.right}, d
    ),
    TreePrune: lambda m, tp, env, d: tp.optional or m.nullable(tp.inner, env, d),
    ChildEpsilon: lambda m, tp, env, d: True,
    ChildSeq: lambda m, tp, env, d: all(m.nullable(p, env, d) for p in tp.parts),
    ChildAlt: lambda m, tp, env, d: any(m.nullable(a, env, d) for a in tp.alternatives),
    ChildStar: lambda m, tp, env, d: True,
    ChildPlus: lambda m, tp, env, d: m.nullable(tp.inner, env, d),
}


def _plus_env(matcher: _TreeMatcher, tp: TreePlus, env: _Env) -> _Env:
    """``tp+α`` unfolds as ``tp`` with ``α`` bound to a fresh ``tp*α``."""
    return {**env, tp.point.label: _StarCont(matcher.plus_star(tp), dict(env))}


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
        run = query_context.current()
        registry = run.registry if run is not None else None
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


def _settler(first_set: RootFirstSet, matcher: _TreeMatcher, on_candidate, faulty: bool):
    """``settle(rejected, points)``: charge unentered nodes, ``points`` of them NULLs."""
    steps, evals = first_set.steps, first_set.evals
    guard = matcher.guard

    def settle(rejected: int, points: int) -> None:
        if faulty:  # batch is 1: once per rejected node, ahead of its charges
            fault_point("matcher_step")
        elements = rejected - points
        if on_candidate is not None and elements:
            on_candidate(elements)
        matcher.backtrack_steps += rejected * steps
        if guard is not None:  # the matcher ticks its step before it tests
            guard.tick(rejected * steps, "tree matcher")
        matcher.predicate_evals += elements * evals

    return settle


def _first_set_scan(
    data: AquaTree,
    first_set: RootFirstSet,
    matcher: _TreeMatcher,
    on_candidate: "Callable[[int], None] | None",
    counted: bool,
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
    matcher's order (fault point, candidate, steps, tests): the fault
    fires at the same candidate, the limit trips at the same node.

    Walks ``tree.nodes()`` order inline off ``node.item``: no layout is
    forced on the tree, no property or generator resume paid per node.
    """
    accepts = first_set.accepts
    faulty = active_plan() is not None
    batch = 1 if counted else max(1, _REJECT_BATCH // first_set.steps)
    settle = _settler(first_set, matcher, on_candidate, faulty)
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


def _posting_scan(
    bucket: tuple, postings: TreePostings, first_set: RootFirstSet, matcher, on_candidate
) -> Iterator[TreeNode]:
    """:func:`_first_set_scan`, served from the tree's postings: each
    node of ``bucket`` (the equality term's) is re-tested with
    ``accepts``, and the nodes between two survivors — NULLs told by
    ``postings.points`` — settle in one charge before the later one is
    handed over, the tail at exhaustion.  Survivors, totals and the
    charges between hand-overs are the walk's, early stop included."""
    accepts = first_set.accepts
    settle = _settler(first_set, matcher, on_candidate, faulty=False)
    points = postings.points

    def gap(last: int, position: int) -> None:
        if position - last > 1:
            nulls = bisect_left(points, position) - bisect_right(points, last) if points else 0
            settle(position - last - 1, nulls)

    last = -1
    for position, node in zip(*bucket):
        item = node.item
        if accepts(item.contents if type(item) is Cell else deref(item)):
            gap(last, position)
            last = position
            yield node
    gap(last, postings.nodes)


def _posting_key(pattern: TreePattern) -> "tuple[str, Any] | None":
    """``(attribute, constant)`` of a bound, hashable ``=`` term of the
    pattern's one root predicate (a ``$param`` is read now), or ``None``."""
    predicates = pattern.root_predicates()
    if len(predicates) != 1:
        return None
    for attribute, op, constant in predicates[0].indexable_terms():
        if op != "=":
            continue
        constant, bound = params.try_resolve(constant)
        try:
            hash(constant)
        except TypeError:
            return None
        return (attribute, constant) if bound else None
    return None


def _candidate_roots(
    pattern: TreePattern,
    data: AquaTree,
    roots: "Sequence[TreeNode] | None",
    preordered: bool,
    matcher: _TreeMatcher,
    on_candidate: "Callable[[int], None] | None",
) -> Iterable[TreeNode]:
    """The nodes worth entering the matcher for, in preorder.

    The one place a scan is narrowed (§4 "Why split?": let the cheap
    anchor predicate pick the roots the expensive machinery sees).  In
    order of preference:

    * a ``⊤`` pattern has one candidate, the tree root;
    * caller-supplied ``roots`` (an index probe), sorted by layout
      position unless ``preordered`` says they already are;
    * the first-set scan, when the pattern's root predicates compile and
      the context is tabled and closure-free — under a closure,
      predicates answer from the bitmap at most once per node, and the
      null-table context is the reference: no tables, no prefilter.  It
      reads the tree's postings for the attribute (:func:`_posting_scan`;
      the first such scan builds them) when the first-set is one
      equality (:func:`_posting_key`), nothing counts candidates one by
      one and every key hashed; else it walks (:func:`_first_set_scan`);
    * otherwise every node.

    Whatever the source, the caller runs one loop over the result.
    """
    if pattern.root_anchor:
        return [data.root]
    if roots is not None:
        if preordered:
            return roots
        order = data.layout().position
        return sorted(roots, key=lambda n: order.get(id(n), len(order)))
    context = matcher.context
    if context.tabled and not context.closure:
        first_set = pattern.root_first_set()
        # Rejecting unentered must not skip a depth trip the walk down
        # to the root atoms (at most ``steps`` deep) would have raised.
        budget = None if matcher.guard is None else matcher.guard.budget
        depth_limit = None if budget is None else budget.max_backtrack_depth
        if first_set is not None and (
            depth_limit is None or first_set.steps <= depth_limit
        ):
            # A fault plan or a step / node limit counts candidates one by one.
            counted = active_plan() is not None or (
                budget is not None and (budget.max_steps, budget.max_nodes_scanned) != (None, None)
            )
            key = None if counted else _posting_key(pattern)
            if key is not None:
                postings = data.postings(key[0], lambda: query_context.emit("index_builds"))
                if postings.exact:
                    bucket = postings.buckets.get(key[1], ((), ()))
                    return _posting_scan(bucket, postings, first_set, matcher, on_candidate)
            return _first_set_scan(data, first_set, matcher, on_candidate, counted)
    return data.nodes()


def _compile_signature(signature: tuple) -> tuple:
    """``((test, below), ...)``; an atom whose predicate refuses to
    compile (opaque, unbound ``$param``) is left to the matcher."""
    compiled = []
    for predicate, below in signature:
        test = predicate.compile()
        if test is not None:
            compiled.append((test, _compile_signature(below)))
    return tuple(compiled)


def _child_signature(matcher: _TreeMatcher) -> tuple:
    """The compiled signature candidates are tested against, or ``()``:
    only in a tabled, closure-free context (the null-table one is the
    reference) with no ``max_backtrack_depth`` armed — the walk into a
    rejected node could trip it at a depth growing with its fan-out.
    Compiled per scan, so ``$param`` constants are read here."""
    context, guard = matcher.context, matcher.guard
    if guard is not None and guard.budget.max_backtrack_depth is not None:
        return ()
    return _compile_signature(context.signature) if context.tabled and not context.closure else ()


def _signature_holds(signature: tuple, node: TreeNode) -> tuple[bool, int]:
    """``(held, tests made)``: has ``node`` an element child passing each test, and its own?"""
    tests = 0
    for test, below in signature:
        for child in node.children:
            item = child.item
            if isinstance(item, ConcatPoint):
                continue  # as _match_atom: an atom never matches a NULL
            tests += 1
            if test(item.contents if type(item) is Cell else deref(item)):
                held, made = _signature_holds(below, child)
                tests += made
                if held:
                    break
        else:
            return False, tests
    return True, tests


def describe_filters(pattern: TreePattern, probed: bool = False) -> str:
    """EXPLAIN's suffix naming a scan's candidate tests: the root source
    (``posting probe`` for one bound equality, else ``root first-set
    test``) unless the roots are ``probed``, then the child signature."""
    text = ""
    if not (probed or pattern.has_vertical_closure() or pattern.root_first_set() is None):
        source = "root first-set test" if _posting_key(pattern) is None else "posting probe"
        text = f"; {source} on {', '.join(p.describe() for p in pattern.root_predicates())}"
    if pattern.required_children():
        text += f"; child signature {_describe_signature(pattern.required_children())}"
    return text


def _describe_signature(signature: tuple) -> str:
    return ", ".join(
        atom_text(predicate) + (f"({_describe_signature(below)})" if below else "")
        for predicate, below in signature
    )


def _lone_atom(pattern: TreePattern, matcher: _TreeMatcher) -> Any:
    """The predicate of a body that is one childless atom, when a node
    passing it is the match (a tabled context, no ``⊥``), else ``None``:
    the null-table context keeps the matcher, as the reference."""
    body = pattern.body
    lone = type(body) is TreeAtom and body.children is None and not matcher.leaf_anchor
    return body.predicate if lone and matcher.context.tabled else None


def iter_tree_matches(
    pattern: TreePattern,
    data: AquaTree,
    roots: Sequence[TreeNode] | None = None,
    on_candidate: "Callable[[int], None] | None" = None,
    context: TreeMatchContext | None = None,
    preordered: bool = False,
    batch: int = 1,
) -> Iterator[TreeMatch]:
    """Lazily enumerate distinct matches, in preorder of their roots.

    The streaming analogue of :func:`find_tree_matches`: matches are
    produced one at a time, so a consumer that stops early (a tripped
    budget, a ``limit``) never pays for the remaining candidates.  The
    candidates come from :func:`_candidate_roots` (``preordered``: the
    ``roots`` are in preorder already, as an index probe's are); one
    lacking a child the pattern requires (:func:`_child_signature`) is
    rejected there, unentered, for one matcher step and its child tests.

    ``on_candidate(n)`` is invoked as ``n`` element nodes are taken as
    candidates — once per candidate before it is matched, or once for a
    run of candidates the first-set scan rejected (the scan operators'
    node-charging hook).  Matcher counters are flushed as every
    ``batch``-th match is handed over (the pulling operator passes its
    run's batch size) and once when the stream ends: one operator pulls
    the stream, so the work is credited to it whichever of its
    ``next_batch()`` calls it ran in.

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
    with query_context.entered(default=guardrails.env_guard):
        pattern, matcher = _matcher_for(pattern, data, context)
        signature = _child_signature(matcher)
        lone, test = _lone_atom(pattern, matcher), matcher.eval_predicate
        seen: set = set()
        handed = 0
        try:
            candidates = _candidate_roots(pattern, data, roots, preordered, matcher, on_candidate)
            for node in candidates:
                fault_point("matcher_step")
                if on_candidate is not None and not node.is_concat_point:
                    on_candidate(1)
                if signature:
                    held, tests = _signature_holds(signature, node)
                    if not held:  # one matcher step, plus the tests made
                        matcher.backtrack_steps += 1
                        matcher.predicate_evals += tests
                        if matcher.guard is not None:
                            matcher.guard.tick(1, "tree matcher")
                        continue
                if lone is not None:  # a node passing the test *is* the match,
                    matcher.backtrack_steps += 1  # charged as match_node charges it
                    if matcher.guard is not None:
                        matcher.guard.tick(1, "tree matcher", 0)
                    if isinstance(node.item, ConcatPoint) or not test(lone, node):
                        continue
                    if id(node) in seen:
                        continue
                    seen.add(id(node))
                    if (handed := handed + 1) % batch == 0:
                        matcher.flush_stats()
                    yield TreeMatch.at(node)
                    continue
                for shape in matcher.match_node(pattern.body, node, {}):
                    if isinstance(shape, Pruned):
                        continue
                    match = TreeMatch(shape)
                    key = match.key()
                    if key in seen:
                        continue
                    seen.add(key)
                    if (handed := handed + 1) % batch == 0:
                        matcher.flush_stats()
                    yield match
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
    with query_context.entered(default=guardrails.env_guard):
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
