"""Attribute indexes over object extents.

The paper's optimizations "frequently make good use of indexes" (§1) and
§4 explicitly assumes "we can use an index to efficiently locate all
nodes in T that match d".  Two classic access methods are provided:

* :class:`HashIndex` — equality probes in O(1);
* :class:`OrderedIndex` — a sorted-key index (binary search) answering
  equality and range probes, standing in for the B⁺-tree a disk-based
  OODB would use.

Both index *stored attribute values* of objects (or, via the reserved
pseudo-attribute ``__value__``, the payloads themselves — what the
single-letter figure trees need).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Hashable, Iterable

from ..errors import IndexError_
from ..faults import fault_point
from . import stats as stats_mod

#: Pseudo-attribute meaning "the object itself" (see SymbolEquals).
VALUE_ATTRIBUTE = "__value__"

_MISSING = object()


def read_key(obj: Any, attribute: str) -> Any:
    """Extract the index key for ``obj``; ``_MISSING`` when absent."""
    if attribute == VALUE_ATTRIBUTE:
        return obj
    if isinstance(obj, dict):
        return obj.get(attribute, _MISSING)
    return getattr(obj, attribute, _MISSING)


class HashIndex:
    """Equality index: attribute value → entries (insertion-ordered), each
    posting stamped with its row's extent position (see :meth:`insert`)."""

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._buckets: dict[Hashable, tuple[list[int], list[Any]]] = {}
        self._end = 0
        self.probes = 0

    def insert(self, entry: Any, position: int | None = None) -> None:
        """Post ``entry``, the row at extent ``position``.

        The database appends a row and posts it to the extent's indexes
        under one hold of its write lock, and pins a snapshot's
        watermark under the same lock: a posting stamped below a pin's
        watermark was complete before the pin existed, one stamped at or
        above it belongs to a row the pin cannot see.  Stamps ascend
        within a bucket, and the entry lands before its stamp, so the
        prefix a ``bisect`` on the stamps selects is always there.  Used
        on its own (no extent), an index numbers what it is offered 0, 1, ….
        """
        if position is None:
            position = self._end
        self._end = position + 1
        key = read_key(entry, self.attribute)
        if key is _MISSING:
            return  # objects without the attribute are simply not indexed
        try:
            bucket = self._buckets.get(key)
        except TypeError as exc:
            raise IndexError_(f"unhashable index key {key!r}") from exc
        if bucket is None:
            bucket = self._buckets[key] = ([], [])
        bucket[1].append(entry)
        bucket[0].append(position)

    def bulk_load(self, entries: Iterable[Any]) -> None:
        for entry in entries:
            self.insert(entry)

    def lookup(self, key: Any, watermark: int | None = None) -> list[Any]:
        """Entries under ``key``; with a ``watermark``, only those whose
        row sits below it (O(log bucket + result))."""
        fault_point("index_probe")
        self.probes += 1
        stats_mod.emit("index_probes")
        positions, entries = self._buckets.get(key) or ((), [])
        end = None if watermark is None else bisect.bisect_left(positions, watermark)
        return entries[:end]

    def count(self, key: Any) -> int:
        bucket = self._buckets.get(key)
        return len(bucket[1]) if bucket else 0

    def __len__(self) -> int:
        return sum(len(entries) for _, entries in self._buckets.values())

    def selectivity(self, key: Any, total: int) -> float:
        """Fraction of the extent a probe on ``key`` returns."""
        if total <= 0:
            return 1.0
        return self.count(key) / total

    def __repr__(self) -> str:
        return f"HashIndex({self.attribute!r}, keys={len(self._buckets)})"


class OrderedIndex:
    """Sorted-key index supporting equality and range probes.

    Keys must be mutually comparable.  Internally three parallel lists
    sorted by key — keys, entries, and each entry's extent position (the
    stamp of :meth:`HashIndex.insert`, which a pinned reader compares to
    its watermark) — the in-memory stand-in for a B⁺-tree.

    Probes and inserts serialize on a small internal lock: an insert
    updates the lists one after another, and a concurrent reader landing
    between them would otherwise see them shifted against each other and
    return entries under the wrong keys.  (:class:`HashIndex` needs no
    lock — its bucket appends are atomic and only ever extend.)
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._keys: list[Any] = []
        self._entries: list[Any] = []
        self._positions: list[int] = []
        self._end = 0
        self._lock = threading.Lock()
        self.probes = 0

    def insert(self, entry: Any, position: int | None = None) -> None:
        key = read_key(entry, self.attribute)
        with self._lock:
            if position is None:
                position = self._end
            self._end = position + 1
            if key is _MISSING:
                return
            at = bisect.bisect_right(self._keys, key)
            self._keys.insert(at, key)
            self._entries.insert(at, entry)
            self._positions.insert(at, position)

    def bulk_load(self, entries: Iterable[Any]) -> None:
        triples = []
        end = 0
        for end, entry in enumerate(entries, 1):
            key = read_key(entry, self.attribute)
            if key is not _MISSING:
                triples.append((key, entry, end - 1))
        triples.sort(key=lambda triple: triple[0])
        with self._lock:
            self._keys = [k for k, _, _ in triples]
            self._entries = [e for _, e, _ in triples]
            self._positions = [p for _, _, p in triples]
            self._end = end

    def _slice(self, left: int, right: int, watermark: int | None) -> list[Any]:
        entries = self._entries[left:right]
        if watermark is None:
            return entries
        stamps = self._positions[left:right]
        return [entry for entry, stamp in zip(entries, stamps) if stamp < watermark]

    def lookup(self, key: Any, watermark: int | None = None) -> list[Any]:
        fault_point("index_probe")
        self.probes += 1
        stats_mod.emit("index_probes")
        with self._lock:
            left = bisect.bisect_left(self._keys, key)
            right = bisect.bisect_right(self._keys, key)
            return self._slice(left, right, watermark)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
        watermark: int | None = None,
    ) -> list[Any]:
        """Entries with ``low (≤|<) key (≤|<) high`` (None = unbounded),
        restricted to rows below ``watermark`` when one is given."""
        fault_point("index_probe")
        self.probes += 1
        stats_mod.emit("index_probes")
        with self._lock:
            keys = self._keys
            below = bisect.bisect_left if include_low else bisect.bisect_right
            above = bisect.bisect_right if include_high else bisect.bisect_left
            left = 0 if low is None else below(keys, low)
            right = len(keys) if high is None else above(keys, high)
            return self._slice(left, right, watermark)

    def probe_term(self, op: str, constant: Any, watermark: int | None = None) -> list[Any]:
        """Serve one ``(attribute, op, constant)`` indexable term."""
        if op == "=":
            return self.lookup(constant, watermark)
        if op in ("<", "<="):
            return self.range(high=constant, include_high=op == "<=", watermark=watermark)
        if op in (">", ">="):
            return self.range(low=constant, include_low=op == ">=", watermark=watermark)
        raise IndexError_(f"ordered index cannot serve operator {op!r}")

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"OrderedIndex({self.attribute!r}, entries={len(self._entries)})"
