"""The OODB storage substrate: object store, extents, roots, indexes.

The paper assumes an object-oriented database around the algebra —
objects with identity, per-class extents over which queries range, and
attribute indexes the optimizer can exploit.  This module supplies that
substrate in memory:

* :meth:`Database.insert` registers objects (OIDs come from the object
  model) under a class extent;
* named **roots** bind persistent entry points (the family tree, a song
  list, a parse tree) to names;
* :meth:`Database.create_index` builds hash or ordered attribute
  indexes over an extent, and :meth:`Database.candidates` serves a
  predicate from the best index available (reporting whether it could);
* per-tree/list node indexes are created with :meth:`tree_index` /
  :meth:`list_index` and cached on the structure they index.

Everything is instrumented through an :class:`Instrumentation` sink so
benchmarks can report scans vs probes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .. import guardrails, params
from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaSet
from ..core.aqua_tree import AquaTree
from ..errors import StorageError
from ..faults import fault_point
from ..predicates.alphabet import AlphabetPredicate
from .index import HashIndex, OrderedIndex
from .stats import Instrumentation, RunCounters
from .tree_index import ListIndex, TreeIndex

#: The dependency tag covering "the database as a whole" — bare
#: :meth:`Database.bump_epoch` calls (no named resources) touch it, so
#: plans that depend on nothing in particular still notice external
#: invalidation requests.
GLOBAL_RESOURCE = "db"

#: Serializes building what is cached on a tree or list — its node or
#: position index (and attribute declarations), its predicate columns —
#: across every database and snapshot sharing the structure.
STRUCTURE_LOCK = threading.Lock()


def extent_resource(name: str) -> str:
    """The version-map tag for extent ``name`` (data, indexes, stats)."""
    return f"extent:{name}"


def root_resource(name: str) -> str:
    """The version-map tag for the named root ``name``."""
    return f"root:{name}"


def extent_candidates(
    stats: "Instrumentation | RunCounters",
    indexes: Mapping[tuple[str, str], HashIndex | OrderedIndex],
    extent: str,
    rows: list[Any],
    watermark: int | None,
    predicate: AlphabetPredicate,
) -> tuple[list[Any], bool]:
    """Rows of ``extent`` that might satisfy ``predicate``; ``(rows, used_index)``.

    The one implementation behind ``candidates`` on a :class:`Database`
    (``watermark=None``) and on a pinned snapshot (its watermark, which
    bounds every probe of the shared live indexes and the scan): serves
    the most selective indexable term that has an index, else returns
    ``rows[:watermark]`` for a scan.  Callers re-apply the predicate,
    except that a plan's indexed select lets an exact probe answer a
    lone comparison (see ``IndexedSelectFilter``).  ``stats`` is where
    the counts go: the view's sink, or the running plan's counters.
    """
    fault_point("storage_lookup")
    guard = guardrails.current_guard()
    # Activate the sink so the access methods' own ``index_probes``
    # emissions (see :mod:`repro.storage.index`) are credited here —
    # and, during an instrumented run, to the operator that probed.
    with stats.activated():
        if not predicate.opaque:
            best: list[Any] | None = None
            for attribute, op, constant in predicate.indexable_terms():
                index = indexes.get((extent, attribute))
                if index is None:
                    continue
                # A $param constant probes with its current binding;
                # an unbound (or unhashable) one cannot be served.
                constant, bound = params.try_resolve(constant)
                if not bound or not params.is_bindable(constant):
                    continue
                if isinstance(index, HashIndex):
                    if op != "=":
                        continue
                    found = index.lookup(constant, watermark)
                else:
                    if op == "!=":
                        continue  # no range answers it; scan
                    found = index.probe_term(op, constant, watermark)
                if best is None or len(found) < len(best):
                    best = found
            if best is not None:
                stats.bump("index_candidates", len(best))
                if guard is not None:
                    guard.charge_nodes(len(best), "index candidates")
                return best, True
        rows = rows[:watermark]
        stats.bump("full_scans")
        stats.bump("objects_scanned", len(rows))
        if guard is not None:
            guard.charge_nodes(len(rows), "extent scan")
        return rows, False


def tested_rows(
    stats: Instrumentation, rows: list[Any], predicate: AlphabetPredicate
) -> AquaSet:
    """The members of ``rows`` satisfying ``predicate``, tested through
    its compiled closure; the evaluations are counted in a local int
    and bumped once."""
    test = predicate.compile() or predicate
    evals = 0
    try:
        kept = []
        for row in rows:
            evals += 1
            if test(row):
                kept.append(row)
    finally:
        if evals:
            stats.bump("predicate_evals", evals)
    return AquaSet(kept)


class VersionToken:
    """An immutable cut of the database's per-resource version counters.

    Captured under the write lock (see :meth:`Database.version_token`),
    so the epoch, the blanket-touch watermark and every per-resource
    counter are mutually consistent.  The plan cache stores one of these
    per prepared plan and compares :meth:`versions` over the plan's
    dependency tags — fine-grained invalidation instead of one global
    epoch comparison.
    """

    __slots__ = ("epoch", "_touch_all", "_versions")

    def __init__(self, epoch: int, touch_all: int, versions: Mapping[str, int]) -> None:
        self.epoch = epoch
        self._touch_all = touch_all
        self._versions = versions

    def versions(self, resources: Sequence[str]) -> tuple[int, ...]:
        """The version of each tag in ``resources`` (input order kept).

        A resource never touched reports the blanket watermark, and a
        touched one reports the later of its own counter and the
        watermark, so a bare ``bump_epoch()`` still invalidates every
        plan while targeted bumps stay targeted.
        """
        touch = self._touch_all
        return tuple(
            touch if tag == GLOBAL_RESOURCE else max(self._versions.get(tag, 0), touch)
            for tag in resources
        )


class Database:
    """An in-memory OODB: extents, named roots and indexes.

    Mutations (:meth:`insert`, root binds, index create/drop,
    :meth:`analyze`) serialize on an internal write lock and advance
    **per-resource version counters** alongside the global epoch;
    :meth:`snapshot` captures a consistent copy-on-write read view under
    the same lock, so readers pinned to a snapshot never observe a torn
    extent or a half-applied transaction.
    """

    def __init__(self, stats: Instrumentation | None = None) -> None:
        self._extents: dict[str, list[Any]] = {}
        self._roots: dict[str, Any] = {}
        self._indexes: dict[tuple[str, str], HashIndex | OrderedIndex] = {}
        self._histograms: dict[tuple[str, str], Any] = {}
        self._epoch = 0
        self._touch_all = 0
        self._versions: dict[str, int] = {}
        self._lock = threading.RLock()
        self.stats = stats or Instrumentation()

    # -- epochs and versions ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """A counter bumped by anything that can invalidate a cached plan.

        Inserts, root (re)binds, extent-index create/drop and statistics
        recalibration all bump it; the plan cache
        (:mod:`repro.query.plan_cache`) compares the finer-grained
        per-resource counters (:meth:`versions`) lazily on lookup and
        drops entries whose dependencies moved.  The lazily built
        per-structure node indexes (:meth:`tree_index`,
        :meth:`list_index`) do *not* bump — they are caches over
        unchanged data, and queries create them mid-execution.
        """
        with self._lock:
            return self._epoch

    @property
    def cache_identity(self) -> int:
        """The plan-cache keying identity — shared by this database's
        snapshots, so plans prepared against either serve both."""
        return id(self)

    def bump_epoch(self, *resources: str) -> int:
        """Advance the epoch, stamping ``resources`` with the new value.

        Thread-safe (two concurrent writers can never observe the same
        epoch).  With no resources named this is a **blanket** bump: the
        touch-all watermark moves, invalidating every cached plan — the
        conservative behavior external callers relied on before
        per-resource versioning existed.
        """
        with self._lock:
            self._epoch += 1
            if resources:
                for tag in resources:
                    self._versions[tag] = self._epoch
            else:
                self._touch_all = self._epoch
            return self._epoch

    def versions(self, resources: Sequence[str]) -> tuple[int, ...]:
        """Current version of each dependency tag (see :class:`VersionToken`)."""
        with self._lock:
            token = VersionToken(self._epoch, self._touch_all, self._versions)
            return token.versions(resources)

    def version_token(self) -> VersionToken:
        """A consistent cut of every version counter (for plan caching)."""
        with self._lock:
            return VersionToken(self._epoch, self._touch_all, dict(self._versions))

    # -- write locking and snapshots -------------------------------------------

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Hold the write lock for a multi-step mutation.

        Re-entrant: the individual mutators acquire the same lock, so a
        transaction can wrap any number of them into one atomic unit —
        :meth:`snapshot` (which also takes the lock) can never observe a
        partially applied batch.
        """
        with self._lock:
            yield

    def snapshot(self, stats: Instrumentation | None = None):
        """An immutable read view pinned to the current version.

        Roots and the index registry are copied (cheap — values are
        persistent structures shared, not cloned); extents are captured
        as append-only watermarks, so the snapshot is O(#extents +
        #roots) regardless of data size.  See
        :class:`repro.storage.snapshot.DatabaseSnapshot`.
        """
        from .snapshot import DatabaseSnapshot

        with self._lock:
            return DatabaseSnapshot(
                self,
                roots=dict(self._roots),
                extents={
                    name: (rows, len(rows)) for name, rows in self._extents.items()
                },
                indexes=dict(self._indexes),
                histograms=dict(self._histograms),
                token=self.version_token(),
                stats=stats,
            )

    def commit_staged(
        self,
        root_rebinds: Mapping[str, Any],
        root_binds: Mapping[str, Any],
        inserts: Sequence[tuple[Any, str | None]],
    ) -> None:
        """Apply a transaction's staged writes atomically.

        Everything lands under one hold of the write lock with a single
        epoch bump stamping every touched resource, so a concurrent
        :meth:`snapshot` sees either none of the batch or all of it.
        Fresh binds are validated *before* anything is applied — a
        name collision rolls the whole batch back by never starting it.
        """
        with self._lock:
            for name in root_binds:
                if name in self._roots or name in root_rebinds:
                    raise StorageError(f"root {name!r} is already bound")
            touched: list[str] = []
            for name, value in {**root_binds, **root_rebinds}.items():
                self._roots[name] = value
                touched.append(root_resource(name))
            for obj, extent in inserts:
                tag = extent_resource(self._append(obj, extent))
                if tag not in touched:
                    touched.append(tag)
            if touched:
                self.bump_epoch(*touched)

    # -- extents ---------------------------------------------------------------

    def _append(self, obj: Any, extent: str | None) -> str:
        """Append ``obj`` to its extent (named in the return) and post it
        to that extent's indexes; the caller holds the write lock.  The
        only place a row joins an extent, so the only place a posting is
        stamped (why a stamp decides visibility: :meth:`HashIndex.insert`)."""
        name = extent or type(obj).__name__
        rows = self._extents.setdefault(name, [])
        position = len(rows)
        rows.append(obj)
        for (extent_name, _attribute), index in self._indexes.items():
            if extent_name == name:
                index.insert(obj, position)
        return name

    def insert(self, obj: Any, extent: str | None = None) -> Any:
        """Register ``obj`` under ``extent`` (default: its class name)."""
        with self._lock:
            self.bump_epoch(extent_resource(self._append(obj, extent)))
        return obj

    def insert_many(self, objects: Iterable[Any], extent: str | None = None) -> list[Any]:
        # One lock hold for the whole batch: a concurrent snapshot sees
        # none of it or all of it, never a torn prefix.
        with self._lock:
            return [self.insert(obj, extent) for obj in objects]

    def extent(self, name: str) -> AquaSet:
        """The extent as an AQUA set (empty if never populated)."""
        fault_point("storage_lookup")
        rows = self._extents.get(name, ())
        guard = guardrails.current_guard()
        if guard is not None:
            guard.charge_nodes(len(rows), "extent scan")
        return AquaSet(rows)

    def iter_extent(self, name: str) -> Iterator[Any]:
        """Lazily iterate the extent's rows (the streaming scan path).

        Unlike :meth:`extent`, the active guard is charged one node per
        row *as rows are pulled*, so a ``max_nodes_scanned`` budget trips
        mid-scan instead of after the whole extent was materialized.
        """
        fault_point("storage_lookup")
        rows = self._extents.get(name, ())
        guard = guardrails.current_guard()
        for row in rows:
            if guard is not None:
                guard.charge_nodes(1, "extent scan")
            yield row

    def extent_size(self, name: str) -> int:
        return len(self._extents.get(name, ()))

    def extents(self) -> list[str]:
        return sorted(self._extents)

    # -- named roots -------------------------------------------------------------

    def bind_root(self, name: str, value: Any) -> None:
        with self._lock:
            if name in self._roots:
                raise StorageError(f"root {name!r} is already bound")
            self._roots[name] = value
            self.bump_epoch(root_resource(name))

    def rebind_root(self, name: str, value: Any) -> None:
        with self._lock:
            self._roots[name] = value
            self.bump_epoch(root_resource(name))

    def root(self, name: str) -> Any:
        fault_point("storage_lookup")
        try:
            return self._roots[name]
        except KeyError:
            raise StorageError(f"unknown root {name!r}") from None

    def roots(self) -> list[str]:
        return sorted(self._roots)

    # -- extent indexes ------------------------------------------------------------

    def create_index(
        self, extent: str, attribute: str, ordered: bool = False
    ) -> HashIndex | OrderedIndex:
        """Build (or return) an index on ``extent.attribute``."""
        key = (extent, attribute)
        with self._lock:
            if key in self._indexes:
                return self._indexes[key]
            index: HashIndex | OrderedIndex
            index = OrderedIndex(attribute) if ordered else HashIndex(attribute)
            index.bulk_load(self._extents.get(extent, ()))
            self._indexes[key] = index
            self.bump_epoch(extent_resource(extent))
        return index

    def drop_index(self, extent: str, attribute: str) -> bool:
        """Drop the index on ``extent.attribute``; True if one existed."""
        with self._lock:
            removed = self._indexes.pop((extent, attribute), None) is not None
            if removed:
                self.bump_epoch(extent_resource(extent))
        return removed

    def index_for(self, extent: str, attribute: str) -> HashIndex | OrderedIndex | None:
        return self._indexes.get((extent, attribute))

    def has_index(self, extent: str, attribute: str) -> bool:
        return (extent, attribute) in self._indexes

    def candidates(
        self,
        extent: str,
        predicate: AlphabetPredicate,
        stats: "Instrumentation | RunCounters | None" = None,
    ) -> tuple[list[Any], bool]:
        """Objects of ``extent`` that might satisfy ``predicate``, from the
        best index or a scan (see :func:`extent_candidates`), counted in
        ``stats`` (default: this database's sink)."""
        rows = self._extents.get(extent, [])
        return extent_candidates(
            stats if stats is not None else self.stats,
            self._indexes,
            extent,
            rows,
            None,
            predicate,
        )

    def select(self, extent: str, predicate: AlphabetPredicate) -> AquaSet:
        """Index-assisted extent select (re-checks the full predicate)."""
        rows, _ = self.candidates(extent, predicate)
        return tested_rows(self.stats, rows, predicate)

    # -- statistics (histograms for the cost model) -----------------------------------

    def analyze(self, extent: str, attribute: str, buckets: int = 32):
        """Build (or refresh) a histogram on ``extent.attribute``."""
        from .statistics import AttributeHistogram

        with self._lock:
            histogram = AttributeHistogram.build(
                attribute, self._extents.get(extent, ()), buckets
            )
            self._histograms[(extent, attribute)] = histogram
            self.bump_epoch(extent_resource(extent))
        return histogram

    def histogram(self, extent: str, attribute: str):
        """The histogram built by :meth:`analyze`, or None."""
        return self._histograms.get((extent, attribute))

    # -- per-structure node indexes ---------------------------------------------------

    def tree_index(self, tree: AquaTree, attributes: Iterable[str] = ()) -> TreeIndex:
        """The node index of ``tree``, serving ``attributes`` too.

        This only *declares* the attributes — each one's map is built by
        the first probe that reads it (:class:`TreeIndex`).  The index is
        cached on the tree itself, like its layout: every database and
        snapshot over the tree shares it, and it is collected with the
        tree once a rebind supersedes it.
        """
        with STRUCTURE_LOCK:
            index = tree._index
            if index is None:
                index = tree._index = TreeIndex(tree)
            for attribute in attributes:
                index.add_attribute(attribute)
            return index

    def list_index(self, aqua_list: AquaList, attributes: Iterable[str] = ()) -> ListIndex:
        """The position index of ``aqua_list`` (cached on the list, as
        :meth:`tree_index` caches on the tree)."""
        with STRUCTURE_LOCK:
            index = aqua_list._index
            if index is None:
                index = aqua_list._index = ListIndex(aqua_list)
            for attribute in attributes:
                index.add_attribute(attribute)
            return index

    def __repr__(self) -> str:
        extents = ", ".join(f"{k}×{len(v)}" for k, v in sorted(self._extents.items()))
        return f"Database({extents}; roots={self.roots()})"
