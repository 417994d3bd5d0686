"""Sharding for the occupancy projection.

One in-process :class:`~repro.storage.occupancy.OccupancyService` is a
single serialization point: every tracker feed funnels through the same
object, so ingest throughput is bounded by one writer no matter how many
tracker streams a deployment receives.  This module partitions the
projection into **N shards keyed by a consistent hash on the subject**:

* :class:`HashRing` — a deterministic consistent-hash ring (CRC32 points,
  virtual nodes) mapping subject names to shard indices.  The ring is
  stable across processes and Python restarts (no reliance on the salted
  builtin ``hash``), so a sharded SQLite deployment reopens onto the same
  partitioning it was written with.
* :class:`ShardedOccupancyService` — a drop-in replacement for
  :class:`OccupancyService` holding one shard-local projection (plus a
  shard-local lock) per shard.  Writes touch exactly one shard — batches
  are partitioned and each partition folds in under its own lock, so
  multiple writer threads ingest in parallel — while cross-shard reads
  (``subjects_inside``, ``occupants``, ``entry_counts``, histograms,
  anomalies) merge the shard projections lazily at read time; nothing
  global is materialized on the write path.

Subjects are the shard key because every per-pair structure (entry
counters, timelines, last entry/movement) and the occupancy map itself are
subject-keyed: a subject's whole history lives in one shard, so the
consistency checks (:meth:`ShardedOccupancyService.check_exit`) and the
point reads stay single-shard and O(1)/O(log n) exactly as before.
"""

from __future__ import annotations

import bisect
import os
import threading
import zlib
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.occupancy import (
    DEFAULT_HISTOGRAM_BUCKET,
    OccupancyAnomaly,
    OccupancyService,
)
from repro.temporal.interval import TimeInterval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.movement_db import MovementRecord

__all__ = [
    "DEFAULT_VIRTUAL_NODES",
    "HashRing",
    "ShardedOccupancyService",
    "default_shard_count",
    "resolve_shard_count",
    "stable_hash",
]

#: Virtual nodes per shard on the consistent-hash ring.  Enough to keep the
#: per-shard load within a few percent of even for realistic subject counts.
DEFAULT_VIRTUAL_NODES = 64


def stable_hash(key: str) -> int:
    """A process-independent 32-bit hash of *key* (CRC32 of its UTF-8 bytes)."""
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


def default_shard_count() -> int:
    """The automatic shard count: one shard per CPU core, at least one."""
    return max(1, os.cpu_count() or 1)


def resolve_shard_count(shards) -> Optional[int]:
    """Normalize a ``shards`` configuration knob.

    ``None`` means "unsharded" (a single plain projection), ``"auto"``
    resolves to :func:`default_shard_count`, and a positive integer is taken
    as-is.  Anything else raises :class:`StorageError`.
    """
    if shards is None:
        return None
    if shards == "auto":
        return default_shard_count()
    if isinstance(shards, int) and not isinstance(shards, bool) and shards >= 1:
        return shards
    raise StorageError(
        f"shard count must be a positive integer, 'auto', or None, got {shards!r}"
    )


class HashRing:
    """A consistent-hash ring mapping string keys to shard indices.

    Each shard owns :data:`DEFAULT_VIRTUAL_NODES` points on a 32-bit ring;
    a key maps to the owner of the first point at or after its hash
    (wrapping).  Consistency matters for the usual reason: growing an
    N-shard ring to N+1 shards remaps only ~1/(N+1) of the keys, so a
    future live-resharding path moves a bounded slice of the projection
    instead of rehashing everything.
    """

    __slots__ = ("_shards", "_points", "_owners")

    def __init__(self, shards: int, *, virtual_nodes: int = DEFAULT_VIRTUAL_NODES) -> None:
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise StorageError(f"shard count must be a positive integer, got {shards!r}")
        if virtual_nodes < 1:
            raise StorageError(f"virtual node count must be positive, got {virtual_nodes!r}")
        self._shards = shards
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(virtual_nodes):
                points.append((stable_hash(f"shard-{shard}:vnode-{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @property
    def shards(self) -> int:
        """How many shards the ring distributes keys across."""
        return self._shards

    def shard_for(self, key: str) -> int:
        """The shard index owning *key* — O(log vnodes)."""
        if self._shards == 1:
            return 0
        index = bisect.bisect_left(self._points, stable_hash(key))
        if index == len(self._points):  # wrap past the last point
            index = 0
        return self._owners[index]


class ShardedOccupancyService:
    """N shard-local occupancy projections behind the one-projection API.

    Drop-in compatible with :class:`OccupancyService`: the movement-database
    backends and their tests cannot tell the two apart read-for-read.  Every
    write locks exactly one shard; :meth:`apply_many` partitions its batch
    by shard first and folds each partition in under a single lock
    acquisition, which is what lets several writer threads (one per tracker
    feed) ingest concurrently — threads only contend when their batches
    collide on the same shard.
    """

    __slots__ = ("_ring", "_shards", "_locks", "_shard_cache")

    def __init__(
        self,
        shards: int = 1,
        *,
        track_timelines: bool = True,
        histogram_bucket: int = DEFAULT_HISTOGRAM_BUCKET,
    ) -> None:
        self._ring = HashRing(shards)
        self._shards: List[OccupancyService] = [
            OccupancyService(track_timelines=track_timelines, histogram_bucket=histogram_bucket)
            for _ in range(shards)
        ]
        self._locks: List[threading.Lock] = [threading.Lock() for _ in range(shards)]
        # Subject → shard memo: ring lookups are O(log vnodes) but subjects
        # repeat millions of times in a trace, so the ingest hot loop reads
        # this dict instead (bounded by the deployment's subject population).
        self._shard_cache: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Shard plumbing
    # ------------------------------------------------------------------ #
    @property
    def shard_count(self) -> int:
        """How many shard-local projections this service holds."""
        return len(self._shards)

    @property
    def ring(self) -> HashRing:
        """The consistent-hash ring assigning subjects to shards."""
        return self._ring

    def shard_for(self, subject: str) -> int:
        """The shard index owning *subject*'s state (memoized ring lookup)."""
        index = self._shard_cache.get(subject)
        if index is None:
            index = self._shard_cache[subject] = self._ring.shard_for(subject)
        return index

    def _shard(self, subject: str) -> OccupancyService:
        return self._shards[self.shard_for(subject)]

    def partition(self, records: Iterable["MovementRecord"]) -> Dict[int, List["MovementRecord"]]:
        """Group *records* by owning shard, preserving per-shard order.

        Returns the non-empty partitions keyed by shard index, in index
        order.  The loop body is one memo lookup and one bound ``append``
        per record; a subject missing from the memo is rare (once per
        subject), so it is handled as the exception.
        """
        cache = self._shard_cache
        parts: List[List["MovementRecord"]] = [[] for _ in self._shards]
        appends = [part.append for part in parts]
        for record in records:
            try:
                appends[cache[record.subject]](record)
            except KeyError:
                appends[self.shard_for(record.subject)](record)
        return {index: part for index, part in enumerate(parts) if part}

    # ------------------------------------------------------------------ #
    # Projection upkeep (shard-local, locked)
    # ------------------------------------------------------------------ #
    def check_exit(self, record: "MovementRecord") -> Optional[OccupancyAnomaly]:
        """The anomaly an EXIT record would introduce — single-shard read."""
        index = self.shard_for(record.subject)
        with self._locks[index]:
            return self._shards[index].check_exit(record)

    def apply(self, record: "MovementRecord") -> None:
        """Fold one record into its subject's shard, under the shard lock."""
        index = self.shard_for(record.subject)
        with self._locks[index]:
            self._shards[index].apply(record)

    def apply_many(self, records: Iterable["MovementRecord"]) -> None:
        """Partition a batch by shard and fold each partition in under one lock.

        Per-shard order equals batch order, so per-subject event order (the
        only order the projection is sensitive to) is preserved.  Concurrent
        callers interleave at shard granularity.
        """
        for index, partition in self.partition(records).items():
            with self._locks[index]:
                self._shards[index].apply_many(partition)

    @contextmanager
    def locked_shard(self, index: int):
        """Hold shard *index*'s lock and yield its projection.

        :class:`~repro.storage.movement_db.ShardedInMemoryMovementDatabase`
        uses this to make its shard-local log append and the projection fold
        one atomic unit, so a checkpoint walking the shards never observes a
        log/projection mismatch.
        """
        with self._locks[index]:
            yield self._shards[index]

    @contextmanager
    def locked_shards(self, indices: Iterable[int]):
        """Hold the locks of shards *indices* at once and yield their projections.

        The locks are taken in ascending index order, so two holders cannot
        deadlock; every other path holds at most one shard lock at a time.
        Yields an index → projection dict in that same order.
        """
        ordered = sorted(indices)
        locks = self._locks
        held: List[int] = []
        try:
            for index in ordered:
                locks[index].acquire()
                held.append(index)
            yield {index: self._shards[index] for index in ordered}
        finally:
            for index in reversed(held):
                locks[index].release()

    def forget_subject(self, subject: str) -> None:
        """Drop every trace of *subject* from its owning shard (see
        :meth:`OccupancyService.forget_subject`)."""
        index = self.shard_for(subject)
        with self._locks[index]:
            self._shards[index].forget_subject(subject)

    def clear(self) -> None:
        """Reset every shard to the empty state."""
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                shard.clear()

    def load(
        self,
        *,
        inside: Dict[str, Tuple[str, int]],
        entry_counts: Dict[Tuple[str, str], Tuple[int, Optional[int]]],
    ) -> None:
        """Prime the shards from persisted derived state (see ``OccupancyService.load``)."""
        shard_for = self.shard_for
        inside_parts: Dict[int, Dict[str, Tuple[str, int]]] = {}
        for subject, value in inside.items():
            inside_parts.setdefault(shard_for(subject), {})[subject] = value
        count_parts: Dict[int, Dict[Tuple[str, str], Tuple[int, Optional[int]]]] = {}
        for pair, value in entry_counts.items():
            count_parts.setdefault(shard_for(pair[0]), {})[pair] = value
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                shard.load(
                    inside=inside_parts.get(index, {}),
                    entry_counts=count_parts.get(index, {}),
                )

    def snapshot(self) -> tuple:
        """A tuple of per-shard snapshots (see ``OccupancyService.snapshot``)."""
        state = []
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                state.append(shard.snapshot())
        return tuple(state)

    def begin(self) -> None:
        """Open a transaction on every shard (see ``OccupancyService.begin``)."""
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                shard.begin()

    def commit(self) -> None:
        """Close every shard's transaction, keeping its changes."""
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                shard.commit()

    def rollback(self) -> None:
        """Undo every shard's folds since :meth:`begin`."""
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                shard.rollback()

    @property
    def journal_size(self) -> int:
        """Journal entries summed over the shards."""
        return sum(shard.journal_size for shard in self._shards)

    # ------------------------------------------------------------------ #
    # Reads (single-shard point reads, lazily merged cross-shard reads)
    # ------------------------------------------------------------------ #
    @property
    def tracks_timelines(self) -> bool:
        """Whether windowed entry counts can be answered from the timelines."""
        return self._shards[0].tracks_timelines

    @property
    def histogram_bucket(self) -> int:
        """The width, in chronons, of the histogram buckets."""
        return self._shards[0].histogram_bucket

    def current_location(self, subject: str) -> Optional[str]:
        """O(1) single-shard read."""
        return self._shard(subject).current_location(subject)

    def inside_since(self, subject: str) -> Optional[int]:
        """O(1) single-shard read."""
        return self._shard(subject).inside_since(subject)

    def entry_count(
        self, subject: str, location: str, window: Optional[TimeInterval] = None
    ) -> int:
        """O(1)/O(log n) single-shard read (the pair lives with its subject)."""
        return self._shard(subject).entry_count(subject, location, window)

    def last_entry(self, subject: str, location: str) -> Optional["MovementRecord"]:
        """O(1) single-shard read."""
        return self._shard(subject).last_entry(subject, location)

    def last_movement(self, subject: str, location: str) -> Optional["MovementRecord"]:
        """O(1) single-shard read."""
        return self._shard(subject).last_movement(subject, location)

    def occupants(self, location: str) -> List[str]:
        """Sorted union of the per-shard occupant sets — O(shards + k log k)."""
        members: List[str] = []
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                members.extend(shard._occupants.get(location, ()))
        return sorted(members)

    def occupancy(self, location: str) -> int:
        """Sum of the per-shard occupancy counters — O(shards)."""
        total = 0
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                total += shard.occupancy(location)
        return total

    def subjects_inside(self) -> Dict[str, str]:
        """Merged subject → location occupancy map (shards are disjoint by subject)."""
        merged: Dict[str, str] = {}
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                merged.update(shard._inside)
        return merged

    def entry_counts(self) -> Dict[Tuple[str, str], int]:
        """Merged per-(subject, location) entry counters."""
        merged: Dict[Tuple[str, str], int] = {}
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                merged.update(shard._entry_counts)
        return merged

    def entry_histogram(self, location: str) -> Dict[int, int]:
        """Bucket-wise sum of the per-shard entry histograms for *location*."""
        merged: Dict[int, int] = {}
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                for bucket, count in shard._histograms.get(location, {}).items():
                    merged[bucket] = merged.get(bucket, 0) + count
        return merged

    @property
    def anomalies(self) -> Tuple[OccupancyAnomaly, ...]:
        """Every shard's inconsistent-exit notes, merged in time order.

        Shards observe disjoint subjects, so time order (stable within each
        shard) is the only meaningful global order.
        """
        notes: List[OccupancyAnomaly] = []
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                notes.extend(shard.anomalies)
        notes.sort(key=lambda anomaly: anomaly.time)
        return tuple(notes)
