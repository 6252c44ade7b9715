"""Packrat memoization for the tree-pattern matcher (the ``memo`` engine).

The backtracker in :mod:`repro.patterns.tree_match` re-derives identical
sub-matches every time the enumeration revisits a ``(node, subpattern,
environment)`` triple — across alternatives, across closure unfoldings,
and across the candidate roots an index feeds it.  Footnote 3 of the
paper concedes the worst case is exponential; this module removes the
*repeated* work the same way packrat parsers do for PEGs:

* :class:`TreeMatchContext` — one per (pattern, data tree) pair: every
  pattern sub-term is interned to a small integer, every concat-point
  environment to a fingerprint number, and data nodes are keyed by their
  position in the tree's :meth:`~repro.core.aqua_tree.AquaTree.layout`
  (the one numbering the node index and the columnar extent read too),
  so memo keys are cheap tuples of ints.  The context owns the **memo
  tables** (``Shape`` fragments a subpattern yields at a node) and the
  **predicate-outcome bitmap** (each alphabet predicate runs at most
  once per node — the bitmap is the structure's
  :class:`~repro.storage.tree_index.TreeIndex` bitmap when an index is
  in play, so anchor probes and matchers share fills).
* :class:`MemoTreeMatcher` — the backtracker subclass that consults the
  tables.  Derivations are cached *lazily*: a cache miss yields results
  as they are computed and stores the list only when the derivation ran
  to exhaustion, so early-exit consumers (``limit``, tripped budgets)
  never pay for unrequested matches and never poison the table with a
  truncated entry.
* :class:`ClosureFreeMemoMatcher` — the same engine narrowed to where a
  hit is possible.  Footnote 3's blowup needs a *vertical* closure;
  without one in the pattern, node-level derivations and nullability
  fall through to the backtracker's own code, child-sequence
  derivations are tabled only over child lists of at least
  :data:`WIDE_CHILD_LIST` nodes, declarative predicates are called
  directly, and the context asks for the tree's layout and a bitmap
  only if a table or an opaque predicate is ever consulted.
  ``tree_match._make_matcher`` picks between the two from the compiled
  pattern.
* :class:`MatchContextRegistry` + :func:`match_scope` — per-query,
  thread-local sharing: the interpreter arms a registry around each
  evaluation so *every* operator matching the same pattern against the
  same tree reuses one context (the "batched candidate evaluation" of
  the physical layer), and predicate bitmaps are private to the query.

Correctness contract: the memo engine enumerates the exact ``Shape``
stream of the backtracker, in the same order — replay walks the stored
list in derivation order, and the stored fragments are the same objects
the backtracker would rebuild.  Cycle-guarded derivations (a non-empty
expansion guard) bypass the tables entirely, because their outcome
depends on the guard set, not just the triple.

Budget accounting: a memo *replay* ticks one engine step; a memo
*store* ticks ``1 + len(results)`` steps, charging retained memo cells
against the ``max_steps`` budget so a pathological pattern cannot hide
unbounded memory behind cheap lookups.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

from ..core.aqua_tree import AquaTree, TreeNode
from ..storage.tree_index import PredicateBitmap
from .tree_ast import (
    ChildPatternNode,
    ChildSeq,
    TreeAtom,
    TreePattern,
    TreePatternNode,
    TreePlus,
    TreeStar,
)
from .tree_match import Pruned, Shape, _Env, _StarCont, _TreeMatcher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..predicates.alphabet import AlphabetPredicate
    from ..storage.database import Database

#: Distinguishes "cached False" from "not cached" in the nullable table.
_MISSING = object()

#: The fan-out gate: under a closure-free pattern a child-sequence
#: derivation is tabled only over a child list at least
#: this long.  Sibling closures (``?* b ?* c ?*``) re-derive the same
#: suffix once per way of placing the earlier parts — polynomial in the
#: list length, so on a short list the key building and table traffic
#: cost more than the re-derivation (README "Pattern-engine knobs" has
#: the measured crossover).
WIDE_CHILD_LIST = 16


class TreeMatchContext:
    """Shared memo state for matching one pattern against one tree.

    Interns pattern sub-terms and environments, and reads data-node
    positions off the tree's layout, so memo keys are tuples of small
    ints; owns the memo tables and the predicate-outcome bitmap.  One
    context serves every matcher (and
    every operator, via :class:`MatchContextRegistry`) that pairs this
    pattern with this tree — that sharing across the candidate stream is
    where the asymptotic win comes from.
    """

    def __init__(
        self,
        pattern: TreePattern,
        tree: AquaTree,
        bitmap: PredicateBitmap | None = None,
        db: "Database | None" = None,
    ) -> None:
        self.pattern = pattern
        self.tree = tree
        self._db = db
        #: The shape gate: only a vertical closure can ask for
        #: the same ``(node, subpattern, environment)`` twice from
        #: different places, so only then is every derivation tabled.
        self.closure = pattern.has_vertical_closure()
        #: The declarative predicates, which the closure-free
        #: matcher calls directly — cheaper to run than to look up in
        #: the outcome bitmap.  (The pattern pins the predicate objects,
        #: so the ids are stable.)
        self.direct_predicates = frozenset(
            id(p) for p in pattern.atom_predicates() if not p.opaque
        )
        # -- pattern-term interning: id() → small int.  The keepalive
        # list pins every registered object so ids cannot be recycled.
        self._nums: dict[int, int] = {}
        self._keep: list[object] = [pattern, tree]
        self._next_num = 0
        for term in pattern.body.walk():
            self._intern(term)
            if isinstance(term, ChildSeq):
                # _match_seq keys on the parts tuple itself.
                self._intern(term.parts)
        #: One stable number per TreePlus: every fresh star a ``tp+α``
        #: expansion creates maps to the same memo number, so the
        #: guard-faithful fresh-star-per-expansion protocol (see
        #: ``_TreeMatcher.plus_star``) still hits one table entry.
        self._plus_nums: dict[int, int] = {}
        # -- data-node positions: aliases of the tree layout's two dicts
        # (per node, and per child list for child-sequence keys) and the
        # bitmap keyed by them, all unset until :meth:`engage` — a match
        # that never consults a table never has the tree laid out.
        self._pre: dict[int, int] | None = None
        self._children_pre: dict[int, int] | None = None
        self.bitmap = bitmap
        # -- environment fingerprinting.
        self._cont_fps: dict[int, tuple] = {}
        self._env_nums: dict[tuple, int] = {}
        # -- the packrat tables.
        self.node_memo: dict[tuple, list[Shape | Pruned]] = {}
        self.children_memo: dict[tuple, list] = {}
        self.seq_memo: dict[tuple, list] = {}
        self.star_memo: dict[tuple, list] = {}
        self.null_memo: dict[tuple, bool] = {}
        #: Keys whose derivation is mid-flight: a re-entrant request for
        #: one of these computes uncached (storing would be unsound — the
        #: outer derivation is not finished).
        self.in_flight: set[tuple] = set()
        #: Retained memo cells (entries plus stored fragments) — the
        #: quantity charged against the step budget at store time.
        self.memo_cells = 0
        if self.closure:
            self.engage()  # every derivation keys on the positions

    # -- built when tables first engage --------------------------------------

    def engage(self) -> None:
        """Take the layout's position dicts and a bitmap, if not yet held.

        Idempotent; the matcher calls it before its first table or
        bitmap consultation (at once for a closure pattern, at the first
        wide child list or opaque predicate otherwise).
        """
        if self._pre is not None:
            return
        layout = self.tree.layout()
        self._pre = layout.position
        self._children_pre = layout.children_position
        if self.bitmap is None:
            source = None
            if self._db is not None:
                from ..storage.columnar import columnar_source_for

                # The column source (a ColumnarExtent) lets outcomes come
                # from shared predicate columns: one batch evaluation per
                # extent instead of one bitmap fill per (predicate, node).
                source = columnar_source_for(self._db, self.tree)
            self.bitmap = PredicateBitmap(layout, source=source)

    # -- interning -----------------------------------------------------------

    def _intern(self, obj: object) -> int:
        num = self._nums.get(id(obj))
        if num is None:
            num = self._nums[id(obj)] = self._next_num
            self._next_num += 1
            self._keep.append(obj)
        return num

    def register_plus_star(self, plus: TreePlus, star: TreeStar) -> None:
        """Map a fresh ``tp+α`` expansion star to its plus's stable number."""
        num = self._plus_nums.get(id(plus))
        if num is None:
            num = self._plus_nums[id(plus)] = self._next_num
            self._next_num += 1
        self._nums[id(star)] = num
        self._keep.append(star)

    def binding_fp(self, binding: "TreePatternNode | ChildPatternNode | _StarCont"):
        """Fingerprint of one environment binding, or ``None`` (unknown).

        A continuation closure fingerprints as its star's number plus the
        fingerprint of the environment it captured at closure entry;
        since ``_StarCont`` environments are immutable after capture the
        result is cached per closure object.
        """
        if isinstance(binding, _StarCont):
            cached = self._cont_fps.get(id(binding))
            if cached is not None:
                return cached
            star_num = self._nums.get(id(binding.star))
            if star_num is None:
                return None
            env_num = self.env_num(binding.env)
            if env_num is None:
                return None
            fp = ("s", star_num, env_num)
            self._cont_fps[id(binding)] = fp
            self._keep.append(binding)
            return fp
        num = self._nums.get(id(binding))
        if num is None:
            return None
        return ("p", num)

    def env_num(self, env: _Env) -> int | None:
        """Intern an environment to a small int (``None``: not internable)."""
        if not env:
            return 0
        parts = []
        for label in sorted(env):
            fp = self.binding_fp(env[label])
            if fp is None:
                return None
            parts.append((label, fp))
        fp = tuple(parts)
        num = self._env_nums.get(fp)
        if num is None:
            num = self._env_nums[fp] = len(self._env_nums) + 1
        return num

    # -- memo keys (None: this call is not cacheable) ------------------------

    def node_key(self, tp, node: TreeNode, env: _Env, flag: int):
        pre = self._pre.get(id(node))
        if pre is None:
            return None
        num = self._nums.get(id(tp))
        if num is None:
            return None
        env_num = self.env_num(env)
        if env_num is None:
            return None
        return (pre, num, env_num, flag)

    def children_key(self, cp, children: Sequence[TreeNode], index: int, env: _Env, flag: int):
        owner = self._children_pre.get(id(children))
        if owner is None:
            return None
        num = self._nums.get(id(cp))
        if num is None:
            return None
        env_num = self.env_num(env)
        if env_num is None:
            return None
        return (owner, num, index, env_num, flag)

    def seq_key(self, parts, part_index: int, children, index: int, env: _Env, flag: int):
        owner = self._children_pre.get(id(children))
        if owner is None:
            return None
        num = self._nums.get(id(parts))
        if num is None:
            return None
        env_num = self.env_num(env)
        if env_num is None:
            return None
        return (owner, num, part_index, index, env_num, flag)

    def null_key(self, tp, env: _Env):
        fp = self.binding_fp(tp)
        if fp is None:
            return None
        env_num = self.env_num(env)
        if env_num is None:
            return None
        return (fp, env_num)


class MemoTreeMatcher(_TreeMatcher):
    """The packrat engine: a backtracker whose derivations hit tables.

    This is the default engine on a pattern with a vertical closure,
    where unfoldings reach the same ``(node, subpattern, environment)``
    triple along many paths and from many candidate roots (footnote 3's
    exponential); :class:`ClosureFreeMemoMatcher` narrows it for the rest.

    Overrides exactly the seams :class:`_TreeMatcher` exposes — predicate
    tests route through the outcome bitmap, plus-expansion stars register
    stable memo numbers, and every derivation entry point consults its
    table before (and stores after) running the inherited logic, so the
    enumeration semantics are the backtracker's by construction.
    """

    def __init__(self, context: TreeMatchContext, leaf_anchor: bool) -> None:
        super().__init__(leaf_anchor)
        self.context = context
        self._flag = 1 if leaf_anchor else 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.bitmap_fills = 0
        self.bitmap_hits = 0
        self._companion: MemoTreeMatcher | None = None

    def counter_snapshot(self) -> dict[str, int]:
        snapshot = super().counter_snapshot()
        snapshot["memo_hits"] = self.memo_hits
        snapshot["memo_misses"] = self.memo_misses
        snapshot["bitmap_fills"] = self.bitmap_fills
        snapshot["bitmap_hits"] = self.bitmap_hits
        return snapshot

    # -- engine seams --------------------------------------------------------

    def eval_predicate(self, predicate: "AlphabetPredicate", node: TreeNode) -> bool:
        result, filled = self.context.bitmap.outcome(predicate, node)
        if filled:
            self.predicate_evals += 1
            self.bitmap_fills += 1
        else:
            self.bitmap_hits += 1
        return result

    def plus_star(self, tp: TreePlus) -> TreeStar:
        star = TreeStar(tp.inner, tp.point)
        self.context.register_plus_star(tp, star)
        return star

    def prune_matcher(self) -> "_TreeMatcher":
        if not self.leaf_anchor:
            return self
        if self._companion is None:
            # Shares the context (tables, bitmap) under the ⊥-free flag.
            self._companion = type(self)(self.context, leaf_anchor=False)
            self._companion.guard = self.guard
        return self._companion

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

    # -- memoized derivation entry points ------------------------------------

    def match_node(self, tp, node, env, guard=frozenset(), depth=0):
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

    def match_children(self, cp, children, index, env, depth=0):
        key = self.context.children_key(cp, children, index, env, self._flag)
        if key is None:
            return _TreeMatcher.match_children(self, cp, children, index, env, depth)
        return self._memoized(
            self.context.children_memo,
            key,
            lambda: _TreeMatcher.match_children(self, cp, children, index, env, depth),
        )

    def _match_seq(self, parts, part_index, children, index, env, depth=0):
        key = self.context.seq_key(parts, part_index, children, index, env, self._flag)
        if key is None:
            return _TreeMatcher._match_seq(
                self, parts, part_index, children, index, env, depth
            )
        return self._memoized(
            self.context.seq_memo,
            key,
            lambda: _TreeMatcher._match_seq(
                self, parts, part_index, children, index, env, depth
            ),
        )

    def _match_child_star(self, inner, children, index, env, depth=0):
        key = self.context.children_key(inner, children, index, env, self._flag)
        if key is None:
            return _TreeMatcher._match_child_star(
                self, inner, children, index, env, depth
            )
        return self._memoized(
            self.context.star_memo,
            key,
            lambda: _TreeMatcher._match_child_star(
                self, inner, children, index, env, depth
            ),
        )

    def nullable(self, tp, env, depth=0):
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


class ClosureFreeMemoMatcher(MemoTreeMatcher):
    """The default engine on a closure-free pattern: tables only where a
    second request for the same key can occur.

    Without a vertical closure every sub-term is tried at a fixed place
    below each match root, so node-level derivations and nullability are
    the backtracker's own code, untabled.  What can repeat is a suffix
    of a child-sequence derivation (once per way of placing the earlier
    parts): those seams stay tabled over child lists of at least
    :data:`WIDE_CHILD_LIST` nodes.  Declarative predicates are called
    directly; ``opaque`` ones (arbitrary callables, possibly dear) keep
    the at-most-once-per-node outcome bitmap.
    """

    match_node = _TreeMatcher.match_node
    nullable = _TreeMatcher.nullable

    def __init__(self, context: TreeMatchContext, leaf_anchor: bool) -> None:
        super().__init__(context, leaf_anchor)
        self._direct = context.direct_predicates

    def eval_predicate(self, predicate: "AlphabetPredicate", node: TreeNode) -> bool:
        if id(predicate) in self._direct:
            self.predicate_evals += 1
            return predicate(node.value)
        self.context.engage()
        return MemoTreeMatcher.eval_predicate(self, predicate, node)

    def match_children(self, cp, children, index, env, depth=0):
        if len(children) < WIDE_CHILD_LIST:
            return _TreeMatcher.match_children(self, cp, children, index, env, depth)
        self.context.engage()
        return MemoTreeMatcher.match_children(self, cp, children, index, env, depth)

    def _match_seq(self, parts, part_index, children, index, env, depth=0):
        if len(children) < WIDE_CHILD_LIST:
            return _TreeMatcher._match_seq(
                self, parts, part_index, children, index, env, depth
            )
        self.context.engage()
        return MemoTreeMatcher._match_seq(
            self, parts, part_index, children, index, env, depth
        )

    def _match_child_star(self, inner, children, index, env, depth=0):
        if len(children) < WIDE_CHILD_LIST:
            return _TreeMatcher._match_child_star(
                self, inner, children, index, env, depth
            )
        self.context.engage()
        return MemoTreeMatcher._match_child_star(
            self, inner, children, index, env, depth
        )


class MatchContextRegistry:
    """Per-query context sharing: one memo table per (pattern, tree) pair.

    The interpreter arms one of these (via :func:`match_scope`) around a
    whole evaluation, so the split/sub_select probing operators the
    physical layer fuses over a candidate stream — and any other
    operator matching the same pattern against the same tree — all hit
    one context instead of rebuilding tables per ``next()`` pull.
    """

    def __init__(self, db: "Database | None" = None) -> None:
        self.db = db
        self._contexts: dict[tuple, TreeMatchContext] = {}

    def context_for(
        self,
        pattern: TreePattern,
        tree: AquaTree,
        bitmap: PredicateBitmap | None = None,
    ) -> TreeMatchContext:
        key = (
            id(tree),
            pattern.root_anchor,
            pattern.leaf_anchor,
            pattern.body.describe(),
        )
        context = self._contexts.get(key)
        if context is None or context.tree is not tree:
            context = TreeMatchContext(
                pattern,
                tree,
                bitmap=bitmap,
                # A donated bitmap already carries the index's column
                # source; only a context-owned one resolves the db's.
                db=self.db if bitmap is None else None,
            )
            self._contexts[key] = context
        return context

    def memo_cells(self) -> int:
        return sum(context.memo_cells for context in self._contexts.values())


def prime_match_context(
    pattern: TreePattern,
    tree: AquaTree,
    bitmap: PredicateBitmap | None = None,
) -> TreeMatchContext | None:
    """Pre-register a shared context for ``(pattern, tree)``, if possible.

    The index-probing operators call this right after their anchor probe
    with the tree index's predicate-outcome bitmap, so the context that
    serves the whole candidate stream (and any later operator on the
    same pair) shares fills with the probe's own re-checks.  A no-op
    (returns ``None``) when no registry is armed or the backtrack engine
    is selected.
    """
    from .tree_match import tree_engine

    registry = current_registry()
    if registry is None or tree_engine() != "memo":
        return None
    return registry.context_for(pattern, tree, bitmap=bitmap)


_active = threading.local()


def current_registry() -> MatchContextRegistry | None:
    """The registry armed on this thread, or ``None`` (standalone mode)."""
    return getattr(_active, "registry", None)


@contextmanager
def match_scope(db: "Database | None" = None) -> Iterator[MatchContextRegistry]:
    """Arm a per-query :class:`MatchContextRegistry` for this thread.

    The outermost scope wins (mirroring ``guardrails.guarded``): the
    interpreter opens one per evaluation, and nested engine entry points
    reuse it.  A fresh scope also arms
    :func:`repro.storage.tree_index.scoped_bitmaps`, giving the query
    predicate-outcome bitmaps private to this scope: two identical runs
    report identical work, and a query on one pool thread can neither
    clobber nor inherit the bitmap state of a query running (or
    previously run) on another.  The previous registry is restored on
    exit even when the query raises (the ``ResourceExhaustedError``
    unwind path included), so nothing bleeds into later queries
    scheduled on the same pool thread.
    """
    from ..storage.tree_index import scoped_bitmaps

    active = getattr(_active, "registry", None)
    if active is not None:
        yield active
        return
    registry = MatchContextRegistry(db)
    previous = active
    _active.registry = registry
    try:
        with scoped_bitmaps():
            yield registry
    finally:
        _active.registry = previous
