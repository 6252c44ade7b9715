"""Copy-on-write read views: snapshot isolation for concurrent sessions.

The algebra is purely functional — every update operator returns a new
structure sharing payloads with the old one, and
:func:`repro.algebra.update.apply_update` swings a root pointer under
the database write lock.  That makes lock-free consistent reads cheap:
a :class:`DatabaseSnapshot` pins

* the **roots** table (a dict copy — values are persistent structures,
  shared not cloned);
* every **extent** as an append-only *watermark* ``(list, length)`` —
  writers only ever append, so the first ``length`` cells are immutable
  and the snapshot reads them without copying;
* the **extent-index registry** (a dict copy).  Index objects are
  shared with the live database and keep absorbing newer inserts, so
  every probe is filtered against the watermark — each posting carries
  its row's extent position, and the filter is the compare
  ``position < watermark`` (a ``bisect`` on a hash bucket) — and a row
  inserted after the pin can never leak into a snapshot result;
* a :class:`~repro.storage.database.VersionToken`, so the plan cache
  validates cached plans against the *pinned* versions (a snapshot keeps
  hitting plans prepared at its own version even while writers move the
  live database forward).

The snapshot duck-types the read surface of
:class:`~repro.storage.database.Database` — ``extent`` / ``iter_extent``
/ ``root`` / ``candidates`` / ``tree_index`` / … — so sessions, the
physical operators and the optimizer run against it unchanged.
Mutators raise :class:`~repro.errors.StorageError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from .. import guardrails
from ..core.aqua_list import AquaList
from ..core.aqua_set import AquaSet
from ..core.aqua_tree import AquaTree
from ..errors import StorageError
from ..faults import fault_point
from ..predicates.alphabet import AlphabetPredicate
from .database import extent_candidates
from .index import HashIndex, OrderedIndex
from .stats import Instrumentation
from .tree_index import ListIndex, TreeIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database, VersionToken


class DatabaseSnapshot:
    """An immutable view of a :class:`Database` pinned to one version.

    Constructed by :meth:`Database.snapshot` under the write lock — do
    not build directly.  Safe to share across threads: all state is
    written once at construction, and none of it is sized by an extent.
    """

    #: Marks this view as rejecting mutation (introspection aid).
    readonly = True

    def __init__(
        self,
        base: "Database",
        *,
        roots: dict[str, Any],
        extents: dict[str, tuple[list[Any], int]],
        indexes: dict[tuple[str, str], HashIndex | OrderedIndex],
        histograms: dict[tuple[str, str], Any],
        token: "VersionToken",
        stats: Instrumentation | None = None,
    ) -> None:
        self._base = base
        self._roots = roots
        self._extents = extents
        self._indexes = indexes
        self._histograms = histograms
        self._token = token
        #: Shared with the base by default so counter attribution keeps
        #: working through existing sinks; pass a private sink to
        #: isolate one session's counters.
        self.stats = stats if stats is not None else base.stats

    # -- versions --------------------------------------------------------------

    @property
    def base(self) -> "Database":
        """The live database this snapshot was pinned from."""
        return self._base

    @property
    def epoch(self) -> int:
        """The global epoch at pin time (never moves)."""
        return self._token.epoch

    @property
    def cache_identity(self) -> int:
        """Plans are cached under the *base* database's identity, so a
        snapshot at matching versions serves (and is served by) the same
        entries."""
        return self._base.cache_identity

    def versions(self, resources: Sequence[str]) -> tuple[int, ...]:
        return self._token.versions(resources)

    def version_token(self) -> "VersionToken":
        return self._token

    def snapshot(self, stats: Instrumentation | None = None) -> "DatabaseSnapshot":
        """Snapshotting a snapshot is the snapshot itself (same pin)."""
        if stats is not None and stats is not self.stats:
            return DatabaseSnapshot(
                self._base,
                roots=self._roots,
                extents=self._extents,
                indexes=self._indexes,
                histograms=self._histograms,
                token=self._token,
                stats=stats,
            )
        return self

    # -- rejected mutations ----------------------------------------------------

    def _read_only(self, operation: str):
        raise StorageError(
            f"cannot {operation} on a snapshot: the view is read-only,"
            " pinned at epoch"
            f" {self._token.epoch}; mutate the live Database instead"
        )

    def insert(self, obj: Any, extent: str | None = None) -> Any:
        self._read_only("insert")

    def insert_many(self, objects: Iterable[Any], extent: str | None = None):
        self._read_only("insert")

    def bind_root(self, name: str, value: Any) -> None:
        self._read_only("bind a root")

    def rebind_root(self, name: str, value: Any) -> None:
        self._read_only("rebind a root")

    def create_index(self, extent: str, attribute: str, ordered: bool = False):
        self._read_only("create an index")

    def drop_index(self, extent: str, attribute: str) -> bool:
        self._read_only("drop an index")

    def analyze(self, extent: str, attribute: str, buckets: int = 32):
        self._read_only("analyze")

    def bump_epoch(self, *resources: str) -> int:
        self._read_only("bump the epoch")

    def commit_staged(self, root_rebinds, root_binds, inserts) -> None:
        self._read_only("commit a transaction")

    # -- extents ---------------------------------------------------------------

    def _rows(self, name: str) -> tuple[list[Any], int]:
        entry = self._extents.get(name)
        if entry is None:
            return [], 0
        return entry

    def extent(self, name: str) -> AquaSet:
        """The pinned extent as an AQUA set (empty if never populated)."""
        fault_point("storage_lookup")
        rows, watermark = self._rows(name)
        guard = guardrails.current_guard()
        if guard is not None:
            guard.charge_nodes(watermark, "extent scan")
        return AquaSet(rows[:watermark])

    def iter_extent(self, name: str) -> Iterator[Any]:
        """Lazily iterate the pinned extent prefix (streaming scan path)."""
        fault_point("storage_lookup")
        rows, watermark = self._rows(name)
        guard = guardrails.current_guard()
        # Index up to the watermark: concurrent appends past it never
        # disturb the first ``watermark`` cells of an append-only list.
        for position in range(watermark):
            if guard is not None:
                guard.charge_nodes(1, "extent scan")
            yield rows[position]

    def extent_size(self, name: str) -> int:
        return self._rows(name)[1]

    def extents(self) -> list[str]:
        return sorted(self._extents)

    # -- named roots -----------------------------------------------------------

    def root(self, name: str) -> Any:
        fault_point("storage_lookup")
        try:
            return self._roots[name]
        except KeyError:
            raise StorageError(f"unknown root {name!r}") from None

    def roots(self) -> list[str]:
        return sorted(self._roots)

    # -- extent indexes --------------------------------------------------------

    def index_for(self, extent: str, attribute: str) -> HashIndex | OrderedIndex | None:
        return self._indexes.get((extent, attribute))

    def has_index(self, extent: str, attribute: str) -> bool:
        return (extent, attribute) in self._indexes

    def candidates(
        self, extent: str, predicate: AlphabetPredicate
    ) -> tuple[list[Any], bool]:
        """Pinned-extent candidates for ``predicate``: the database's own
        :func:`~repro.storage.database.extent_candidates`, every probe
        and the scan fallback bounded by this pin's watermark."""
        rows, watermark = self._rows(extent)
        return extent_candidates(
            self.stats, self._indexes, extent, rows, watermark, predicate
        )

    def select(self, extent: str, predicate: AlphabetPredicate) -> AquaSet:
        """Index-assisted pinned-extent select (re-checks the predicate)."""
        rows, _ = self.candidates(extent, predicate)
        counted = self.stats.counting(predicate)
        return AquaSet(row for row in rows if counted(row))

    # -- statistics ------------------------------------------------------------

    def histogram(self, extent: str, attribute: str):
        return self._histograms.get((extent, attribute))

    # -- per-structure node indexes --------------------------------------------

    def tree_index(self, tree: AquaTree, attributes: Iterable[str] = ()) -> TreeIndex:
        """Delegates to the base: node indexes key on immutable structures,
        so sharing them across views is sound (and the base builds them
        once under its structure lock)."""
        return self._base.tree_index(tree, attributes)

    def list_index(self, aqua_list: AquaList, attributes: Iterable[str] = ()) -> ListIndex:
        return self._base.list_index(aqua_list, attributes)

    def columnar_extent(self, tree: AquaTree, *, min_size: int = 0):
        """Delegates to the base: columnar extents key on immutable tree
        objects, and a pinned snapshot keeps referencing the tree object
        it captured — post-pin rebinds create *new* tree objects with
        their own extents, so the snapshot's columnar cut stays
        consistent by construction."""
        return self._base.columnar_extent(tree, min_size=min_size)

    def columnar_list(self, aqua_list: AquaList, *, min_size: int = 0):
        return self._base.columnar_list(aqua_list, min_size=min_size)

    def __repr__(self) -> str:
        extents = ", ".join(
            f"{name}×{watermark}"
            for name, (_rows, watermark) in sorted(self._extents.items())
        )
        return (
            f"DatabaseSnapshot(epoch={self._token.epoch}; {extents};"
            f" roots={self.roots()})"
        )
