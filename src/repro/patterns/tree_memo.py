"""The tree matcher's tables: packrat memo state, kept beside the matcher.

The enumeration in :mod:`repro.patterns.tree_match` re-derives identical
sub-matches every time it revisits a ``(node, subpattern, environment)``
triple — across alternatives, across closure unfoldings, and across the
candidate roots an index feeds it.  Footnote 3 of the paper concedes the
worst case is exponential; this module holds what removes the *repeated*
work, the way packrat parsers do for PEGs.  The matcher is one class;
what it consults is this collaborator:

* :class:`TreeMatchContext` — one per (pattern, data tree) pair: every
  pattern sub-term is interned to a small integer, every concat-point
  environment to a fingerprint number, and data nodes are keyed by their
  position in the tree's :meth:`~repro.core.aqua_tree.AquaTree.layout`
  (the one numbering the node index and the columnar extent read too),
  so memo keys are cheap tuples of ints.  The context owns the **memo
  tables** (``Shape`` fragments a subpattern yields at a node) and the
  pair's :class:`PredicateBitmap` (each alphabet predicate runs at most
  once per node; nothing else owns one).  Built with ``tabled=False`` it is the
  *null-table* context: same call sites, no tables — the matcher then
  runs as the plain backtracker, the reference semantics the tabled
  paths are property-tested against.
* :class:`MatchContextRegistry` + :func:`match_scope` — per-query,
  thread-local sharing: ``PreparedQuery.run`` arms a registry around
  each evaluation so *every* operator matching the same pattern against
  the same tree reuses one context (the "batched candidate evaluation"
  of the physical layer), and its outcome planes are private to the
  query.

Which derivations consult the tables is the matcher's decision, made
from the compiled pattern (see ``tree_match``): everything under a
vertical closure; otherwise only child-sequence derivations over lists
of at least :data:`WIDE_CHILD_LIST` children, with the layout and the
bitmap taken lazily (:meth:`TreeMatchContext.engage`).

Correctness contract: a tabled run enumerates the exact ``Shape`` stream
of the null-table run, in the same order — replay walks the stored list
in derivation order, and the stored fragments are the same objects the
backtracker would rebuild.  Cycle-guarded derivations (a non-empty
expansion guard) bypass the tables entirely, because their outcome
depends on the guard set, not just the triple.

Budget accounting: a memo *replay* ticks one matcher step; a memo
*store* ticks ``1 + len(results)`` steps, charging retained memo cells
against the ``max_steps`` budget so a pathological pattern cannot hide
unbounded memory behind cheap lookups.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..core.aqua_tree import AquaTree, TreeLayout, TreeNode
from .tree_ast import (
    ChildPatternNode,
    ChildSeq,
    TreePattern,
    TreePatternNode,
    TreePlus,
    TreeStar,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..predicates.alphabet import AlphabetPredicate
    from ..storage.database import Database

#: The fan-out gate: under a closure-free pattern a child-sequence
#: derivation is tabled only over a child list at least
#: this long.  Sibling closures (``?* b ?* c ?*``) re-derive the same
#: suffix once per way of placing the earlier parts — polynomial in the
#: list length, so on a short list the key building and table traffic
#: cost more than the re-derivation (README "How the matcher decides"
#: has the measured crossover).
WIDE_CHILD_LIST = 16

#: Bitmap plane states: 0 = unknown, 1 = known false, 2 = known true.
_UNKNOWN, _FALSE, _TRUE = 0, 1, 2


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


class PredicateBitmap:
    """Per-query predicate-outcome planes: each alphabet predicate is
    evaluated **at most once per data node**.

    One plane (a ``bytearray`` indexed by the node's position in the
    tree's layout) per distinct predicate object; a cell is unknown,
    known-false or known-true.  Owned by the one
    :class:`TreeMatchContext` of its (pattern, tree) pair, so one fill
    serves every candidate root and every operator of the query that
    matches that pair.
    """

    def __init__(self, layout: TreeLayout, source: Any | None = None) -> None:
        self._nodes = layout.nodes  # pinned: their ids key ``_position``
        self._position = layout.position
        #: Optional shared-column source (a
        #: :class:`repro.storage.columnar.ColumnarExtent`): a plane miss
        #: consults ``source.outcome_for(predicate, node)`` before
        #: evaluating, so outcomes another consumer already batch-computed
        #: for the whole extent are never re-derived per node.
        self._source = source
        self._planes: dict[int, bytearray] = {}
        self._slots: dict[int, int] = {}
        self._keep: list[AlphabetPredicate] = []  # keeps id() keys stable

    def outcome(self, predicate: "AlphabetPredicate", node: TreeNode) -> tuple[bool, bool]:
        """``(result, filled)`` — evaluate-once semantics per node.

        ``filled`` is True when this call actually ran the predicate (a
        bitmap fill); False means the outcome was served without an
        evaluation — from the plane, or from a shared predicate column.
        """
        pre = self._position.get(id(node))
        if pre is None:
            # A node the layout never numbered (e.g. a tree mutated after
            # it was laid out): evaluate without caching rather than mislabel.
            return bool(predicate(node.value)), True
        slot = self._slots.get(id(predicate))
        if slot is None:
            slot = self._slots[id(predicate)] = len(self._keep)
            self._keep.append(predicate)
        plane = self._planes.get(slot)
        if plane is None:
            plane = self._planes[slot] = bytearray(len(self._nodes))
        state = plane[pre]
        if state != _UNKNOWN:
            return state == _TRUE, False
        if self._source is not None:
            served = self._source.outcome_for(predicate, node)
            if served is not None:
                plane[pre] = _TRUE if served else _FALSE
                return served, False
        result = bool(predicate(node.value))
        plane[pre] = _TRUE if result else _FALSE
        return result, True


class TreeMatchContext:
    """Shared memo state for matching one pattern against one tree.

    Interns pattern sub-terms and environments, and reads data-node
    positions off the tree's layout, so memo keys are tuples of small
    ints; owns the memo tables and the predicate-outcome bitmap.  One
    context serves every matcher (and
    every operator, via :class:`MatchContextRegistry`) that pairs this
    pattern with this tree — that sharing across the candidate stream is
    where the asymptotic win comes from.

    ``tabled=False`` builds the null-table context: nothing is interned,
    nothing is stored, and the matcher handed it runs every derivation
    afresh.  Only a caller that constructs one (or a registry of them)
    can get it — no knob selects it.
    """

    def __init__(
        self,
        pattern: TreePattern,
        tree: AquaTree,
        db: "Database | None" = None,
        tabled: bool = True,
    ) -> None:
        self.pattern = pattern
        self.tree = tree
        self._db = db
        self.tabled = tabled
        #: The shape gate: only a vertical closure can ask for
        #: the same ``(node, subpattern, environment)`` twice from
        #: different places, so only then is every derivation tabled.
        self.closure = pattern.has_vertical_closure()
        #: The ``opaque`` predicates (arbitrary callables): the only
        #: ones a closure-free match routes through the outcome bitmap —
        #: a declarative predicate is cheaper to run than to look up.
        #: (The pattern pins the predicate objects, so the ids are
        #: stable.)
        self.opaque_predicates = frozenset(
            id(p) for p in pattern.atom_predicates() if p.opaque
        )
        # -- pattern-term interning: id() → small int.  The keepalive
        # list pins every registered object so ids cannot be recycled.
        self._nums: dict[int, int] = {}
        self._keep: list[object] = [pattern, tree]
        self._next_num = 0
        #: One stable number per TreePlus: every fresh star a ``tp+α``
        #: expansion creates maps to the same memo number, so the
        #: guard-faithful fresh-star-per-expansion protocol (see the
        #: matcher's ``plus_star``) still hits one table entry.
        self._plus_nums: dict[int, int] = {}
        # -- data-node positions: aliases of the tree layout's two dicts
        # (per node, and per child list for child-sequence keys) and the
        # bitmap keyed by them, all unset until :meth:`engage` — a match
        # that never consults a table never has the tree laid out.
        self._pre: dict[int, int] | None = None
        self._children_pre: dict[int, int] | None = None
        self.bitmap: PredicateBitmap | None = None
        # -- environment fingerprinting.
        self._cont_fps: dict[int, tuple] = {}
        self._env_nums: dict[tuple, int] = {}
        # -- the packrat tables (``Shape | Pruned`` fragment lists).
        self.node_memo: dict[tuple, list] = {}
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
        if not tabled:
            return
        for term in pattern.body.walk():
            self._intern(term)
            if isinstance(term, ChildSeq):
                # _match_seq keys on the parts tuple itself.
                self._intern(term.parts)
        if self.closure:
            self.engage()  # every derivation keys on the positions

    # -- built when tables first engage --------------------------------------

    def engage(self) -> None:
        """Take the layout's position dicts and build the bitmap, once.

        Idempotent; runs before the first table or bitmap consultation
        (at construction for a closure pattern; otherwise at the first
        child-sequence key — a wide child list — or opaque predicate).
        """
        if self._pre is not None:
            return
        layout = self.tree.layout()
        self._pre = layout.position
        self._children_pre = layout.children_position
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
        if self._children_pre is None:
            self.engage()
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
        if self._children_pre is None:
            self.engage()
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


class MatchContextRegistry:
    """Per-query context sharing: one memo table per (pattern, tree) pair.

    ``PreparedQuery.run`` arms one of these (via :func:`match_scope`)
    around a whole evaluation, so the split/sub_select probing operators
    the physical layer fuses over a candidate stream — and any other
    operator matching the same pattern against the same tree — all hit
    one context instead of rebuilding tables per ``next()`` pull.
    ``tabled=False`` hands out null-table contexts instead: the whole
    evaluation then runs on the plain backtracker (the test oracle).
    """

    def __init__(self, db: "Database | None" = None, tabled: bool = True) -> None:
        self.db = db
        self.tabled = tabled
        self._contexts: dict[tuple, TreeMatchContext] = {}

    def context_for(self, pattern: TreePattern, tree: AquaTree) -> TreeMatchContext:
        key = (
            id(tree),
            pattern.root_anchor,
            pattern.leaf_anchor,
            pattern.body.describe(),
        )
        context = self._contexts.get(key)
        if context is None or context.tree is not tree:
            context = TreeMatchContext(pattern, tree, db=self.db, tabled=self.tabled)
            self._contexts[key] = context
        return context

    def memo_cells(self) -> int:
        return sum(context.memo_cells for context in self._contexts.values())


_active = threading.local()


def current_registry() -> MatchContextRegistry | None:
    """The registry armed on this thread, or ``None`` (standalone mode)."""
    return getattr(_active, "registry", None)


@contextmanager
def match_scope(
    db: "Database | None" = None, registry: MatchContextRegistry | None = None
) -> Iterator[MatchContextRegistry]:
    """Arm a per-query :class:`MatchContextRegistry` for this thread.

    The outermost scope wins (mirroring ``guardrails.guarded``):
    ``PreparedQuery.run`` opens one per evaluation, and nested matcher
    entry points reuse it.  Arms ``registry`` when given, else a fresh
    tabled one over ``db``.  Every context, and so every predicate-
    outcome plane, belongs to the scope's registry: two identical runs
    report identical work, and a query on one pool thread can neither
    clobber nor inherit the outcome state of a query running (or
    previously run) on another.  The previous registry is restored on
    exit even when the query raises (the ``ResourceExhaustedError``
    unwind path included), so nothing bleeds into later queries
    scheduled on the same pool thread.
    """
    active = getattr(_active, "registry", None)
    if active is not None:
        yield active
        return
    if registry is None:
        registry = MatchContextRegistry(db)
    _active.registry = registry
    try:
        yield registry
    finally:
        _active.registry = None
