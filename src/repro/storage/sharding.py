"""Shard views: partitioning an extent's members for parallel execution.

The exchange operator (:mod:`repro.physical.exchange`) splits a
set-shaped stream into shards, runs each shard on a worker, and merges
the shard streams back in source order.  The partitioning itself is a
storage concern — it must respect the properties the engine layers rely
on — and lives here so it can be unit-tested against the storage model
directly:

* **whole members** — a member (typically a stored tree) is never split
  across shards, so a tree's layout and node index (cached on the tree
  itself) are built once and reused by whichever worker owns it;
* **position-tagged** — every member carries its source position, the
  key the ordered merge re-interleaves by, so the parallel stream is
  bit-identical to the sequential one;
* **deterministic** — hash partitioning keys on the member's *OID*
  (every AQUA entity has identity, §2), not ``hash()`` of the payload,
  so the same extent shards the same way run to run and process to
  process (OIDs are assigned at construction, not per interpreter).

Two strategies, per ROADMAP item 3:

* ``range`` — contiguous blocks of pre-order (extent) positions; best
  cache locality and a trivially streaming merge;
* ``hash`` — stable hash on the member's root OID; robust to skew when
  member sizes vary wildly (one giant tree does not serialize a whole
  range block behind it).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..core.identity import DatabaseObject

#: One shard: the (source position, member) pairs a worker owns.
Shard = list[tuple[int, Any]]

STRATEGIES = ("hash", "range")


def member_shard_key(member: Any) -> int:
    """A stable partitioning key for one extent member.

    Stored objects key on their root OID (``AquaTree`` exposes the root
    node's cell; plain :class:`~repro.core.identity.DatabaseObject`
    payloads their own OID).  Values without identity fall back to
    ``id()`` — still deterministic within one execution, which is all
    the planner needs (the merge restores order; the key only balances).
    """
    root = getattr(member, "root", None)
    if root is not None and not callable(root):
        candidate = root
    else:
        candidate = member
    oid = getattr(candidate, "oid", None)
    if oid is None and isinstance(member, DatabaseObject):
        oid = member.oid
    if oid is None:
        return id(member)
    return int(oid)


_MASK64 = (1 << 64) - 1


def _mix(key: int) -> int:
    """Finalize ``key`` into a well-distributed 64-bit hash (splitmix64).

    Raw OIDs must not be bucketed by plain modulo: the allocator hands
    out monotonically increasing OIDs, so the root OIDs of N-node trees
    inserted back to back stride by a constant — and whenever that
    stride shares a factor with the shard count, every root lands in
    the same congruence class and one bucket gets the whole extent.
    The splitmix64 finalizer folds the high bits back down, breaking
    the congruence while staying deterministic across runs and
    processes (no interpreter hash randomization).
    """
    z = (key + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def range_shards(members: Sequence[Any], count: int) -> list[Shard]:
    """Split ``members`` into ``count`` contiguous position blocks.

    Block sizes differ by at most one; empty shards are dropped, so the
    result has ``min(count, len(members))`` entries.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    total = len(members)
    shards: list[Shard] = []
    base, extra = divmod(total, count)
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        if size == 0:
            continue
        shards.append(
            [(pos, members[pos]) for pos in range(start, start + size)]
        )
        start += size
    return shards


def hash_shards(members: Sequence[Any], count: int) -> list[Shard]:
    """Partition ``members`` by stable OID hash into up to ``count`` shards.

    Positions within a shard stay ascending (workers emit in position
    order, which keeps the ordered merge's buffer small).  Empty shards
    are dropped.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    buckets: list[Shard] = [[] for _ in range(count)]
    for pos, member in enumerate(members):
        buckets[_mix(member_shard_key(member)) % count].append((pos, member))
    return [bucket for bucket in buckets if bucket]


def plan_shards(
    members: Sequence[Any], count: int, strategy: str = "hash"
) -> list[Shard]:
    """Partition ``members`` under ``strategy`` (``hash`` | ``range``)."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {strategy!r} (accepted: {', '.join(STRATEGIES)})"
        )
    if strategy == "range":
        return range_shards(members, count)
    return hash_shards(members, count)


def covered_positions(shards: Iterable[Shard]) -> list[int]:
    """Every position the shards cover, sorted (test/verification helper)."""
    return sorted(pos for shard in shards for pos, _ in shard)
