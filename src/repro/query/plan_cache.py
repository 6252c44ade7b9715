"""The plan cache: structural fingerprints + epoch-validated LRU entries.

Every :func:`repro.query.prepare.prepare` call is keyed here by a
**structural fingerprint** of the query — a canonical tuple over the
``Expr`` tree, its pattern ASTs, predicate notations and parameter
*slots* (never bound values) — plus the identity of the database it was
planned against.  Two queries with the same shape share one cached
:class:`~repro.query.prepare.PreparedQuery`; a ``$param`` appears in the
fingerprint as its slot name, so one plan serves every binding.

Entries are validated **lazily against per-resource version counters**
(:meth:`repro.storage.database.Database.versions`): storage stamps the
touched extent/root on inserts, root (re)binds, index create/drop and
statistics recalibration, and a lookup that finds an entry whose
*dependencies* (the extents and roots its plan reads) moved drops it and
reports a miss — there is no eager invalidation traffic on the write
path, and a mutation of root ``A`` leaves cached plans over extent ``B``
warm.  A bare ``bump_epoch()`` (no resources named) still invalidates
everything.  Snapshots share their base database's cache identity and
validate against their *pinned* versions, so a reader pinned before a
write keeps hitting the plan prepared for its version.

Opaque values (raw-predicate closures, arbitrary functions) cannot be
fingerprinted by content, so they contribute their object/code identity.
That is sound *because the cache pins what it fingerprints*: a live
entry keeps its expression (and the database) alive, so an ``id()``
captured in its key can never be reused by a different object while the
entry can still be returned.

Counters (``hits`` / ``misses`` / ``invalidations`` / ``replans`` /
``evictions``) are kept on the cache object and additionally emitted
through :func:`repro.storage.stats.emit`, which credits **only sinks the
caller activated** — never ``db.stats`` implicitly — so parity tests
comparing full instrumentation snapshots stay unaffected while
``EXPLAIN ANALYZE`` can activate a private sink and render the planning
footer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Hashable, Iterable

from ..params import Param
from ..patterns.list_ast import ListPattern
from ..patterns.tree_ast import TreePattern
from ..predicates.alphabet import AlphabetPredicate
from ..storage import stats as stats_mod
from . import expr as E

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.database import Database
    from .prepare import PreparedQuery

#: Default number of prepared plans a cache retains.
DEFAULT_CAPACITY = 128


# -- fingerprinting ------------------------------------------------------------


_PRIMITIVES = (int, float, complex, str, bytes, bool, type(None))


def _value_fp(value: Any) -> Hashable:
    """A constant's contribution: content for primitives, identity else.

    Structured values (trees, lists, sets, arbitrary objects) contribute
    ``id()`` rather than content — equality on them can be deep and
    expensive, and identity is sound because the cache pins the
    expression that holds them.
    """
    if isinstance(value, Param):
        return ("param", value.name)
    if isinstance(value, _PRIMITIVES):
        return ("val", type(value).__name__, value)
    if isinstance(value, tuple):
        return ("tuple", tuple(_value_fp(item) for item in value))
    return ("id", id(value))


def _function_fp(function: Any) -> Hashable:
    """A callable's contribution: code identity + captured environment.

    Two closures over the same code object are the same *plan* only if
    their captured cells and defaults agree — e.g. the AQL translator
    builds one ``projector`` closure per query text, distinguished by
    its default-argument capture.
    """
    declared = getattr(function, "plan_fingerprint", None)
    if declared is not None:
        # A callable object may declare its own plan identity (e.g. the
        # docstore's path-step functions): two instances built from the
        # same path text are the same plan, so warm path queries hit.
        return ("declared-fn", declared)
    code = getattr(function, "__code__", None)
    if code is None:
        return ("callable-id", id(function))
    cells: tuple[Hashable, ...] = ()
    closure = getattr(function, "__closure__", None)
    if closure:
        cells = tuple(_value_fp(cell.cell_contents) for cell in closure)
    defaults = getattr(function, "__defaults__", None) or ()
    return (
        "fn",
        code.co_filename,
        code.co_name,
        code.co_firstlineno,
        hash(code.co_code),
        tuple(_value_fp(d) for d in defaults),
        cells,
    )


def _predicate_fp(predicate: AlphabetPredicate) -> Hashable:
    """A predicate's contribution: its notation, or identity when opaque.

    ``describe()`` renders ``$param`` constants as their slot, keeping
    the fingerprint binding-independent; an opaque predicate's
    description is just a function name (two different lambdas can
    collide), so opaque ones contribute identity instead.
    """
    if predicate.opaque:
        return ("opaque-pred", id(predicate))
    return ("pred", predicate.describe())


def _pattern_predicates(pattern: TreePattern | ListPattern) -> Iterable[Any]:
    for node in pattern.body.walk():
        predicate = getattr(node, "predicate", None)
        if predicate is not None:
            yield predicate


def _pattern_fp(pattern: Any) -> Hashable:
    """A pattern's contribution: its notation plus opaque-atom identities."""
    if isinstance(pattern, str):
        return ("pattern-text", pattern)
    if isinstance(pattern, (TreePattern, ListPattern)):
        opaque = tuple(
            ("opaque-atom", id(p))
            for p in _pattern_predicates(pattern)
            if getattr(p, "opaque", False)
        )
        return ("pattern", pattern.describe(), opaque)
    if isinstance(pattern, AlphabetPredicate):
        return ("pattern-pred", _predicate_fp(pattern))
    return ("pattern-id", id(pattern))


def _node_fp(node: E.Expr) -> Hashable:
    """One node's own features (children are appended structurally)."""
    features: list[Hashable] = [type(node).__name__]
    for attribute in ("name",):
        value = getattr(node, attribute, None)
        if isinstance(value, str):
            features.append((attribute, value))
    if isinstance(node, E.Literal):
        features.append(("value", _value_fp(node.value)))
    predicate = getattr(node, "predicate", None)
    if predicate is not None:
        features.append(_predicate_fp(predicate))
    indexed = getattr(node, "indexed", None)
    if indexed is not None:
        features.append(("indexed", _predicate_fp(indexed)))
    residual = getattr(node, "residual", None)
    if residual is not None:
        features.append(("residual", _predicate_fp(residual)))
    pattern = getattr(node, "pattern", None)
    if pattern is not None:
        features.append(_pattern_fp(pattern))
    anchors = getattr(node, "anchors", None)
    if anchors is not None:
        features.append(("anchors", tuple(_predicate_fp(a) for a in anchors)))
    anchor = getattr(node, "anchor", None)
    if anchor is not None:
        features.append(("anchor", _predicate_fp(anchor)))
    offsets = getattr(node, "offsets", None)
    if offsets is not None:
        features.append(("offsets", tuple(offsets)))
    function = getattr(node, "function", None)
    if function is not None:
        features.append(_function_fp(function))
    return tuple(features)


def _expr_fp(node: E.Expr) -> Hashable:
    return (_node_fp(node), tuple(_expr_fp(child) for child in node.children()))


def plan_fingerprint(expr: E.Expr, *, optimize: bool) -> Hashable:
    """The canonical cache key for ``expr`` (excluding the database).

    Covers the operator tree, pattern ASTs, predicate notations (which
    carry the equality semantics the plan committed to), parameter
    *slots*, function identities, and whether the optimizer runs — the
    full set of inputs the planner's decisions depend on, minus the
    database state the epoch tracks separately.
    """
    return ("plan", bool(optimize), _expr_fp(expr))


# -- the cache -----------------------------------------------------------------


def cache_identity(db: "Database") -> int:
    """The keying identity of a database view.

    Snapshots expose their base database's identity, so one cache entry
    serves the live handle and every compatible snapshot; a plain
    ``id()`` fallback covers duck-typed stand-ins.
    """
    return getattr(db, "cache_identity", None) or id(db)


def _is_current(prepared: "PreparedQuery", db: "Database") -> bool:
    """Does ``prepared`` still match ``db``'s (possibly pinned) versions?

    Fine-grained when both sides speak versions: the entry's recorded
    dependency tags are compared against the view's counters, so a
    mutation of an unrelated extent/root leaves the entry live.  Falls
    back to the global-epoch comparison for version-less stand-ins.
    """
    versions = getattr(db, "versions", None)
    deps = getattr(prepared, "deps", None)
    if versions is not None and deps is not None:
        return versions(deps) == prepared.dep_versions
    return prepared.epoch == db.epoch


class PlanCache:
    """A bounded LRU of :class:`~repro.query.prepare.PreparedQuery`.

    Thread-safe; entries are keyed by ``(cache_identity(db),
    fingerprint)`` and validated against the plan's dependency versions
    on lookup.  The side table ``alias`` maps AQL source text to
    fingerprints so a warm textual query skips parsing entirely; aliases
    are LRU-bounded by the same capacity and dropped eagerly whenever
    their target entry is invalidated or evicted, so the table can never
    outgrow — or outlive — the entries it points at.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, PreparedQuery]" = OrderedDict()
        self._aliases: "OrderedDict[Hashable, Hashable]" = OrderedDict()
        #: entry key → alias keys pointing at it (invalidation cleanup).
        self._alias_index: dict[Hashable, set[Hashable]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.alias_invalidations = 0
        self.replans = 0
        self.evictions = 0

    # -- keys ------------------------------------------------------------------

    def entry_key(self, db: "Database", fingerprint: Hashable) -> Hashable:
        return (cache_identity(db), fingerprint)

    def alias_key(self, db: "Database", text: str, optimize: bool) -> Hashable:
        return (cache_identity(db), text, bool(optimize))

    # -- alias/entry consistency (call with the lock held) ---------------------

    def _drop_entry(self, key: Hashable) -> None:
        del self._entries[key]
        for alias in self._alias_index.pop(key, ()):
            if self._aliases.pop(alias, None) is not None:
                self.alias_invalidations += 1

    def _unlink_alias(self, alias: Hashable, fingerprint: Hashable) -> None:
        identity = alias[0]
        index = self._alias_index.get((identity, fingerprint))
        if index is not None:
            index.discard(alias)

    # -- the protocol ----------------------------------------------------------

    def lookup(self, db: "Database", fingerprint: Hashable) -> "PreparedQuery | None":
        """The live entry for ``fingerprint``, or ``None`` (a miss).

        An entry whose dependency versions no longer match the view is
        dropped here — lazy invalidation, aliases included — and counted
        as both an invalidation and a miss.
        """
        key = self.entry_key(db, fingerprint)
        with self._lock:
            prepared = self._entries.get(key)
            if prepared is not None and not _is_current(prepared, db):
                self._drop_entry(key)
                self.invalidations += 1
                stats_mod.emit("plan_cache_invalidations")
                prepared = None
            if prepared is None:
                self.misses += 1
                stats_mod.emit("plan_cache_misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            stats_mod.emit("plan_cache_hits")
            return prepared

    def store(self, db: "Database", fingerprint: Hashable, prepared: "PreparedQuery") -> None:
        key = self.entry_key(db, fingerprint)
        with self._lock:
            self._entries[key] = prepared
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted, _ = next(iter(self._entries.items()))
                self._drop_entry(evicted)
                self.evictions += 1
                stats_mod.emit("plan_cache_evictions")

    def lookup_alias(self, db: "Database", text: str, optimize: bool) -> Hashable | None:
        with self._lock:
            key = self.alias_key(db, text, optimize)
            fingerprint = self._aliases.get(key)
            if fingerprint is not None:
                self._aliases.move_to_end(key)
            return fingerprint

    def store_alias(self, db: "Database", text: str, optimize: bool, fingerprint: Hashable) -> None:
        with self._lock:
            key = self.alias_key(db, text, optimize)
            previous = self._aliases.get(key)
            if previous is not None and previous != fingerprint:
                self._unlink_alias(key, previous)
            self._aliases[key] = fingerprint
            self._aliases.move_to_end(key)
            self._alias_index.setdefault(
                self.entry_key(db, fingerprint), set()
            ).add(key)
            while len(self._aliases) > self.capacity:
                stale, target = self._aliases.popitem(last=False)
                self._unlink_alias(stale, target)

    def note_replan(self) -> None:
        """Record a binding-forced re-plan (see ``PreparedQuery.run``)."""
        with self._lock:
            self.replans += 1
        stats_mod.emit("plan_cache_replans")

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._aliases.clear()
            self._alias_index.clear()

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "aliases": len(self._aliases),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "alias_invalidations": self.alias_invalidations,
                "replans": self.replans,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        s = self.snapshot()
        return (
            f"PlanCache({s['entries']}/{s['capacity']} entries,"
            f" {s['hits']} hits, {s['misses']} misses,"
            f" {s['invalidations']} invalidations, {s['replans']} replans)"
        )


#: The process-wide cache behind :func:`repro.query.prepare.prepare` and
#: the default :class:`repro.api.Session`.
DEFAULT_CACHE = PlanCache()
