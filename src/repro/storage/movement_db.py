"""The Location & Movements Database of Figure 3.

*"The location & movements database stores the location layout, as well as
users' movements.  These data are then used for authorization validation,
system status checking, etc."*

The database records ENTER/EXIT movement events, answers the occupancy
queries the access-control engine needs (current location of a subject,
occupants of a location, number of entries a subject has used within an
entry duration), and keeps the full movement history for the query engine
and the audit reports.  The location layout itself is held as a
:class:`~repro.locations.multilevel.LocationHierarchy` reference.

Every hot read is served by the event-indexed
:class:`~repro.storage.occupancy.OccupancyService` projection that both
backends fold each record into — occupancy and unwindowed entry counts are
O(1), windowed entry counts O(log n) (bisection in memory, an indexed SQL
``COUNT(*)`` on SQLite) — instead of replaying the movement history.  The
full history remains the source of truth: the projection can always be
rebuilt from it, and the SQLite backend additionally persists the projection
in derived tables (``occ_current``, ``occ_entry_counts``) updated in the
same transaction as each insert, so reopening a database file does not
require an O(n) replay.

Checkpoint/compaction sits on top of the projection:
:meth:`MovementDatabase.checkpoint` persists the projection snapshot
(SQLite: the ``occ_checkpoint`` tables; memory: a pickle-free tuple) and,
with ``compact=True``, archives the log prefix it covers.  Replay-style
reads (``history()``, audit replays, crash recovery of the SQLite derived
tables) then cost O(events since the checkpoint) instead of O(all time);
``history(include_archived=True)`` still reaches the full log.
"""

from __future__ import annotations

import sqlite3
import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import StorageError
from repro.core.subjects import subject_name
from repro.locations.location import LocationName, location_name
from repro.locations.multilevel import LocationHierarchy
from repro.storage.occupancy import OccupancyAnomaly, OccupancyService
from repro.temporal.interval import TimeInterval

__all__ = [
    "Checkpoint",
    "MovementKind",
    "MovementNotice",
    "MovementRecord",
    "MovementDatabase",
    "InMemoryMovementDatabase",
    "SqliteMovementDatabase",
]


class MovementKind(str, Enum):
    """The two movement transitions the trackers report."""

    ENTER = "enter"
    EXIT = "exit"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class MovementRecord:
    """One observed movement: *subject* entered or exited *location* at *time*.

    ``slots=True`` because movement records are the unit the ingest hot
    loops iterate — slot attribute reads are measurably cheaper than dict
    lookups at 100k-events-per-batch scale, and a long trace holds millions
    of these alive at once.
    """

    time: int
    subject: str
    location: LocationName
    kind: MovementKind

    def __post_init__(self) -> None:
        if not isinstance(self.time, int) or isinstance(self.time, bool) or self.time < 0:
            raise StorageError(f"movement time must be a non-negative integer, got {self.time!r}")
        object.__setattr__(self, "subject", subject_name(self.subject))
        object.__setattr__(self, "location", location_name(self.location))
        object.__setattr__(self, "kind", MovementKind(self.kind))

    @classmethod
    def _from_checked(
        cls, time: int, subject: str, location: LocationName, kind: MovementKind
    ) -> "MovementRecord":
        """Build a record from components the caller has already validated.

        Skips ``__post_init__``: a batch decoder validates each distinct
        subject, location and kind once and builds the remaining records
        here, so it must only pass values a full construction accepted.
        """
        record = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(record, "time", time)
        setattr_(record, "subject", subject)
        setattr_(record, "location", location)
        setattr_(record, "kind", kind)
        return record

    @classmethod
    def _from_rows(cls, rows: Iterable[Tuple[Any, Any, Any, Any]]) -> Iterator["MovementRecord"]:
        """Build records from ``(time, subject, location, kind)`` rows.

        A store's log, like a tracker's wire batch, repeats a few hundred
        subject and location names and two kinds, so each distinct value
        is validated once, by a full construction (which also raises the
        error for a bad row); a row whose time is a non-negative ``int``
        and whose other values were all accepted earlier is then built by
        :meth:`_from_checked`.  The records equal ``cls(*row)`` for each
        row.
        """
        build = cls._from_checked
        subjects: Set[str] = set()
        locations: Set[str] = set()
        kinds: Dict[Any, MovementKind] = {}
        for time, subject, location, kind in rows:
            if (
                type(time) is int
                and time >= 0
                and type(subject) is str
                and subject in subjects
                and type(location) is str
                and location in locations
                and isinstance(kind, str)
                and kind in kinds
            ):
                yield build(time, subject, location, kinds[kind])
            else:
                record = cls(time, subject, location, kind)
                subjects.add(record.subject)
                locations.add(record.location)
                kinds[kind] = record.kind
                yield record

    def __str__(self) -> str:
        return f"{self.kind.value.upper()}({self.time}, {self.subject}, {self.location})"


@dataclass(frozen=True)
class MovementNotice:
    """One applied movement, as announced to mutation subscribers.

    *previous_location* is where the projection tracked the subject
    immediately before this record was folded in (``None`` when the subject
    was outside).  Subscribers that cache occupancy-derived reads need it:
    an ENTER while the subject was tracked elsewhere silently changes the
    occupancy of **both** locations.
    """

    record: MovementRecord
    previous_location: Optional[LocationName] = None

    @property
    def affected_locations(self) -> Tuple[LocationName, ...]:
        """Every location whose occupancy-derived reads this movement may change."""
        record = self.record
        previous = self.previous_location
        if previous is not None and previous != record.location:
            return (record.location, previous)
        return (record.location,)

    def to_wire(self) -> List:
        """Compact wire form ``[time, subject, location, kind, previous]``.

        Notices cross process boundaries on the replica invalidation bus
        (:mod:`repro.service.bus`); the array form mirrors the movement
        record's wire shape with the previous location appended.
        """
        record = self.record
        return [
            record.time,
            record.subject,
            record.location,
            record.kind.value,
            self.previous_location,
        ]

    @staticmethod
    def from_wire(item) -> "MovementNotice":
        """Rebuild (and re-validate) a notice from its wire array."""
        if not isinstance(item, (list, tuple)) or len(item) != 5:
            raise StorageError(
                f"a movement notice must be a [time, subject, location, kind, previous] "
                f"array, got {item!r}"
            )
        time, subject, location, kind, previous = item
        return MovementNotice(
            MovementRecord(time, subject, location, kind),
            location_name(previous) if previous is not None else None,
        )


@dataclass(frozen=True)
class Checkpoint:
    """The receipt a :meth:`MovementDatabase.checkpoint` call returns.

    *position* is the log position (event count / max seq) the checkpoint
    covers; *archived* is how many log records this call moved to the
    archive; *subjects_inside* and *pairs* size the persisted snapshot.
    """

    position: int
    archived: int
    subjects_inside: int
    pairs: int

    def __str__(self) -> str:
        return (
            f"checkpoint @ {self.position}: {self.archived} event(s) archived, "
            f"{self.subjects_inside} subject(s) inside, {self.pairs} (subject, location) pair(s)"
        )


class MovementDatabase(ABC):
    """Interface shared by the movement-database backends.

    Both backends maintain an :class:`OccupancyService` projection; the
    base class serves every occupancy read from it.  With ``strict=True``
    an EXIT that contradicts the tracked occupancy (subject inside a
    different location, or not inside at all) raises
    :class:`~repro.errors.StorageError` instead of being recorded with an
    anomaly note — with an identical message on every backend.
    """

    #: True while a ``bulk()`` scope is open (backends with a real scope).
    _in_bulk = False

    def __init__(
        self,
        hierarchy: Optional[LocationHierarchy] = None,
        *,
        strict: bool = False,
    ) -> None:
        self._hierarchy = hierarchy
        self._strict = strict
        self._occupancy = self._service_factory()
        self._movement_listeners: List = []

    def _service_factory(self):
        return OccupancyService()

    @property
    def hierarchy(self) -> Optional[LocationHierarchy]:
        """The location layout this database tracks (may be ``None``)."""
        return self._hierarchy

    @property
    def strict(self) -> bool:
        """Whether inconsistent exits raise instead of being noted."""
        return self._strict

    @property
    def occupancy_service(self) -> OccupancyService:
        """The event-indexed projection serving this database's hot reads."""
        return self._occupancy

    @property
    def anomalies(self) -> Tuple[OccupancyAnomaly, ...]:
        """Inconsistent-exit notes collected by the projection."""
        return self._occupancy.anomalies

    # -- mutation notifications ----------------------------------------- #
    def subscribe(self, listener) -> "Callable[[], None]":
        """Register *listener* for movement mutations; returns an unsubscriber.

        The listener is called with a sequence of :class:`MovementNotice`
        after each write lands — one call per record on the single-record
        path, one per batch on the batch paths.  Notifications are **eviction
        hints, not durable truth**: a batch inside an enclosing ``bulk()``
        scope notifies as soon as it is applied, so a later rollback leaves
        subscribers having over-invalidated (safe for caches) rather than
        under-invalidated.  Listeners run on the writing thread and must not
        raise.
        """
        self._movement_listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._movement_listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _notify(self, notices: List[MovementNotice]) -> None:
        if not notices:
            return
        for listener in list(self._movement_listeners):
            listener(notices)

    def _notices_for(self, batch: List[MovementRecord]) -> List[MovementNotice]:
        """Notices for *batch*, with previous locations evolving through it.

        Must be called **before** the batch is folded into the projection:
        each record's previous location is read from the live projection for
        the subject's first record in the batch, then tracked through the
        batch itself.
        """
        if not self._movement_listeners:
            return []
        return self._trace_notices(batch)

    def _trace_notices(self, batch: List[MovementRecord]) -> List[MovementNotice]:
        """Unconditionally build the notices for *batch* (see :meth:`_notices_for`).

        :meth:`pickup` needs the notices even with no subscribers attached —
        the caller (the replica coherence layer) returns them upward.
        """
        tracked: Dict[str, Optional[str]] = {}
        notices: List[MovementNotice] = []
        current_location = self._occupancy.current_location
        for record in batch:
            subject = record.subject
            if subject in tracked:
                previous = tracked[subject]
            else:
                previous = current_location(subject)
            notices.append(MovementNotice(record, previous))
            if record.kind is MovementKind.ENTER:
                tracked[subject] = record.location
            elif previous == record.location:
                # A consistent exit evicts; an anomalous one leaves the
                # tracked location alone (mirroring the projection).
                tracked[subject] = None
            else:
                tracked[subject] = previous
        return notices

    def _notice_for(self, record: MovementRecord) -> List[MovementNotice]:
        if not self._movement_listeners:
            return []
        return [MovementNotice(record, self._occupancy.current_location(record.subject))]

    # -- replication positions ------------------------------------------ #
    @property
    def high_water(self) -> int:
        """Position of the newest movement this store knows about.

        On the SQLite backend this reads the **file**, so a replica sharing
        the database with a writer process sees the writer's committed
        position — the number :meth:`pickup` catches the local projection up
        to.  On purely in-process backends it equals the local position.
        """
        return self.applied_position

    @property
    def applied_position(self) -> int:
        """Position of the newest movement folded into *this* projection."""
        return len(self)

    def pickup(self) -> List[MovementNotice]:
        """Fold movements another process appended into this projection.

        Backends without a shared storage medium have nothing to pick up and
        return ``[]``.  The SQLite backend reads the shared file's rows past
        :attr:`applied_position`, folds them into the in-process projection,
        and **notifies subscribers** with their notices — so an attached
        decision cache evicts exactly the keys the foreign writes touched.
        Returns the applied notices (empty when already caught up).
        """
        return []

    def touch_marks_since(self, position: int) -> Optional[Dict[LocationName, int]]:
        """Which locations movements past *position* may have invalidated.

        The warm-restart validation primitive of the persistent decision
        cache (:mod:`repro.service.cache_store`): a cached decision stored
        while this log stood at position ``p`` is still valid iff no later
        movement could have changed its location's occupancy-derived inputs.
        Returns ``{location: mark}`` where ``mark`` is the newest position
        whose movement may affect that location — an entry survives iff
        ``marks.get(its_location, 0) <= its_position``.

        The marks are a **conservative superset**: besides each record's own
        location, every location a since-moving subject *ever* previously
        touched is marked (an ENTER elsewhere changes the previous
        location's occupancy, and the previous location is not derivable
        from single rows).  Over-marking drops valid entries (a cold start
        for those keys — safe); under-marking would serve stale decisions.

        Returns ``None`` when the store cannot reconstruct the window (no
        durable log, or the retained log no longer reaches *position*) —
        callers must treat that as "validate nothing".  The base
        implementation answers exactly for the trivial case: a position at
        or past the high water has nothing after it.
        """
        if position >= self.high_water:
            return {}
        return None

    # -- partition handoff ----------------------------------------------- #
    def known_subjects(self) -> List[str]:
        """Every subject with at least one record (live or archived), sorted.

        The serving fabric's reshard planner asks each partition for this to
        decide which subjects a new :class:`~repro.service.fabric.PartitionMap`
        strips from it.  O(n) scan by default; backends with an index
        override it.
        """
        return sorted({record.subject for record in self.history(include_archived=True)})

    def export_subjects(self, subjects: Iterable[str]) -> Dict[str, List[MovementRecord]]:
        """The archived and live log slices belonging to *subjects*.

        Returns ``{"archived": [...], "live": [...]}``.  Each slice keeps
        per-subject event order (the only order occupancy semantics depend
        on), and the archived/live split matches this store's compaction
        boundary exactly — the destination partition replays the live slice
        as live records and adopts the archived slice via
        :meth:`import_archived`, so scoped queries (``ENTRIES LIVE``,
        ``VIOLATIONS``) answer identically after the migration.
        """
        archived: List[MovementRecord] = []
        live: List[MovementRecord] = []
        for subject in subjects:
            full = self.history(subject=subject_name(subject), include_archived=True)
            live_slice = self.history(subject=subject_name(subject))
            split = len(full) - len(live_slice)
            archived.extend(full[:split])
            live.extend(full[split:])
        return {"archived": archived, "live": live}

    def import_archived(
        self, records: Iterable[MovementRecord], *, archived_through: Optional[int] = None
    ) -> int:
        """Adopt another partition's *archived* log slice for migrating subjects.

        The records are placed in the archive era (not the live log: they
        were already covered by a compacting checkpoint on their origin
        partition) and folded into the occupancy projection.  The imported
        subjects must not already hold state here — reshard moves whole
        subjects, never halves.  *archived_through* advances this store's
        LIVE/ARCHIVED boundary if the origin's boundary was newer.  Returns
        how many records were adopted.
        """
        raise StorageError(f"{type(self).__name__} does not support archive import")

    def forget_subjects(self, subjects: Iterable[str]) -> List[LocationName]:
        """Drop every record of *subjects* — log, archive, and projection.

        The source side of a partition handoff: once the destination owns a
        subject, a stale copy here would double-count it in cross-partition
        occupancy fan-outs.  Returns the sorted locations the forgotten
        records touched, so callers can evict occupancy-derived caches.
        Monotonic positions (:attr:`applied_position`) do not rewind.
        """
        raise StorageError(f"{type(self).__name__} does not support forgetting subjects")

    def _refuse_in_bulk(self, action: str) -> None:
        """Raise for a mutation an open ``bulk()`` scope could not roll back."""
        if self._in_bulk:
            raise StorageError(f"cannot {action} inside an open bulk() scope")

    # -- write-side validation ------------------------------------------ #
    def _validate_record(self, record: MovementRecord) -> None:
        self._validate_location(record.location)

    def _validate_location(self, location: str) -> None:
        if self._hierarchy is not None and not self._hierarchy.is_primitive(location):
            raise StorageError(f"movement references unknown primitive location {location!r}")

    def _check_strict_exit(self, record: MovementRecord) -> None:
        if not self._strict:
            return
        anomaly = self._occupancy.check_exit(record)
        if anomaly is not None:
            raise StorageError(f"inconsistent exit rejected: {anomaly}")

    def _validate_batch(self, records: List[MovementRecord]) -> None:
        """Validate a whole batch up front so strict batches are all-or-nothing.

        Strict exits are checked by replaying the batch onto a scratch
        projection seeded with the current occupancy, so the error message
        is the one :meth:`OccupancyService.check_exit` produces — identical
        to the single-record path on every backend.  Each distinct location
        is checked once; when one is unknown, the batch is rescanned in
        first-occurrence order, so the error names the location the
        per-record check would have named.
        """
        hierarchy = self._hierarchy
        if hierarchy is not None and not all(
            map(hierarchy.is_primitive, {record.location for record in records})
        ):
            for location in dict.fromkeys(record.location for record in records):
                self._validate_location(location)
        if not self._strict:
            return
        scratch = OccupancyService(track_timelines=False)
        scratch.load(
            inside={
                subject: (location, self._occupancy.inside_since(subject) or 0)
                for subject, location in self._occupancy.subjects_inside().items()
            },
            entry_counts={},
        )
        for record in records:
            anomaly = scratch.check_exit(record)
            if anomaly is not None:
                raise StorageError(f"inconsistent exit rejected: {anomaly}")
            scratch.apply(record)

    # -- writes --------------------------------------------------------- #
    @abstractmethod
    def record(self, record: MovementRecord) -> MovementRecord:
        """Append one movement record (records must arrive in time order per subject)."""

    def record_many(self, records: Iterable[MovementRecord]) -> List[MovementRecord]:
        """Append a batch of movement records with one storage round-trip.

        The batch is validated up front (unknown locations and, in strict
        mode, inconsistent exits reject the whole batch before anything is
        written), then applied in order inside a single :meth:`bulk` scope —
        one transaction/commit on the SQLite backend.
        """
        batch = list(records)
        self._validate_batch(batch)
        with self.bulk():
            for record in batch:
                self.record(record)
        return batch

    def record_entry(self, time: int, subject: str, location: str) -> MovementRecord:
        """Convenience: record that *subject* entered *location* at *time*."""
        return self.record(MovementRecord(time, subject, location, MovementKind.ENTER))

    def record_exit(self, time: int, subject: str, location: str) -> MovementRecord:
        """Convenience: record that *subject* exited *location* at *time*."""
        return self.record(MovementRecord(time, subject, location, MovementKind.EXIT))

    @contextmanager
    def bulk(self) -> Iterator[None]:
        """Scope several writes into one storage transaction (no-op by default)."""
        yield

    @abstractmethod
    def clear(self) -> None:
        """Remove every movement record (including the archive and checkpoint state)."""

    # -- checkpoint / compaction ---------------------------------------- #
    def checkpoint(self, *, compact: bool = True) -> Checkpoint:
        """Persist the projection snapshot and (optionally) archive the log prefix.

        After a compacting checkpoint, replay-style reads — :meth:`history`
        without ``include_archived``, audit replays over it, and the SQLite
        backend's crash-recovery rebuild — cost O(events since the
        checkpoint) instead of O(all time).  The archived prefix stays
        reachable through ``history(include_archived=True)``; occupancy,
        entry counts (windowed included) and last-entry reads are unaffected
        because the projection/derived state already covers the archive.
        """
        raise StorageError(f"{type(self).__name__} does not support checkpointing")

    @property
    def archived_count(self) -> int:
        """Movement records moved to the archive by compacting checkpoints."""
        return 0

    def prune_archive(self, retain: int) -> int:
        """Drop the oldest archived records until at most *retain* remain.

        Compacting checkpoints bound the *live* log but let the archive grow
        without bound; retention caps it.  Returns how many records were
        dropped.  Dropped records are gone for good —
        ``history(include_archived=True)`` and archive-backed windowed entry
        counts no longer see them (the projection's counters, which already
        folded them in, stay exact).
        """
        if not isinstance(retain, int) or isinstance(retain, bool) or retain < 0:
            raise StorageError(f"archive retention must be a non-negative integer, got {retain!r}")
        return self._prune_archive(retain)

    def _prune_archive(self, retain: int) -> int:
        raise StorageError(f"{type(self).__name__} does not keep an archive to prune")

    @property
    def archived_through(self) -> Optional[int]:
        """The largest movement time ever covered by a compacting checkpoint.

        This is the LIVE/ARCHIVED boundary the query engine's scoped
        statements use: everything at or before this time belongs to the
        archived era.  ``None`` when no compaction has happened (every
        record is live).  Pruning the archive does not move the boundary —
        the pruned era stays archived, it just stops being replayable.
        """
        return None

    @property
    def oldest_retained_time(self) -> Optional[int]:
        """The smallest movement time still reachable anywhere in the store.

        After an archive prune, alerts older than this horizon attest to
        movements that no longer exist — alert retention
        (:meth:`~repro.engine.alerts.AlertSink.prune_before`) follows it.
        ``None`` when the store holds no records at all.
        """
        times = [record.time for record in self.history(include_archived=True)]
        return min(times) if times else None

    @property
    def events_since_checkpoint(self) -> int:
        """Log records not yet covered by a checkpoint (the replay bound)."""
        return len(self)

    # -- reads ---------------------------------------------------------- #
    @abstractmethod
    def history(
        self,
        *,
        subject: Optional[str] = None,
        location: Optional[str] = None,
        window: Optional[TimeInterval] = None,
        include_archived: bool = False,
    ) -> List[MovementRecord]:
        """Movement records, optionally filtered by subject, location and window.

        With ``include_archived=True`` the records archived by compacting
        checkpoints are included (full-log audit replays); by default only
        the live log — events since the last compaction — is scanned.
        """

    def current_location(self, subject: str) -> Optional[LocationName]:
        """The location the subject is currently inside, or ``None`` — O(1)."""
        return self._occupancy.current_location(subject_name(subject))

    def occupants(self, location: str) -> List[str]:
        """Subjects currently inside *location*, sorted — O(k log k)."""
        return self._occupancy.occupants(location_name(location))

    def occupancy(self, location: str) -> int:
        """Number of subjects currently inside *location* — O(1)."""
        return self._occupancy.occupancy(location_name(location))

    def entry_count(
        self, subject: str, location: str, window: Optional[TimeInterval] = None
    ) -> int:
        """Number of times *subject* entered *location* (within *window* if given).

        This is the counter Definition 7 checks against an authorization's
        entry budget — O(1) unwindowed, O(log n) windowed.
        """
        return self._occupancy.entry_count(subject_name(subject), location_name(location), window)

    def last_entry(self, subject: str, location: str) -> Optional[MovementRecord]:
        """The most recent ENTER record of *subject* into *location*, if any — O(1)."""
        return self._occupancy.last_entry(subject_name(subject), location_name(location))

    def last_movement(self, subject: str, location: str) -> Optional[MovementRecord]:
        """The most recent movement (either kind) of the pair, if any — O(1)."""
        return self._occupancy.last_movement(subject_name(subject), location_name(location))

    def subjects_inside(self) -> Dict[str, LocationName]:
        """Mapping from every currently-inside subject to their location."""
        return self._occupancy.subjects_inside()

    def __len__(self) -> int:
        return len(self.history())


def _filter_records(
    records: Iterable[MovementRecord],
    subject: Optional[str],
    location: Optional[str],
    window: Optional[TimeInterval],
) -> List[MovementRecord]:
    """Apply the shared ``history()`` filters to an iterable of records."""
    wanted_subject = subject_name(subject) if subject is not None else None
    wanted_location = location_name(location) if location is not None else None
    results = []
    for record in records:
        if wanted_subject is not None and record.subject != wanted_subject:
            continue
        if wanted_location is not None and record.location != wanted_location:
            continue
        if window is not None and not window.contains(record.time):
            continue
        results.append(record)
    return results


class InMemoryMovementDatabase(MovementDatabase):
    """List-backed movement store; every occupancy read hits the projection.

    :meth:`checkpoint` snapshots the projection as a pickle-free tuple
    (:attr:`checkpoint_state`) and, when compacting, moves the live log into
    the archive list — ``history()`` then scans only events since the
    checkpoint, while the projection keeps every read (windowed entry counts
    included) exact because its timelines were never rebuilt from the log.
    """

    def __init__(
        self, hierarchy: Optional[LocationHierarchy] = None, *, strict: bool = False
    ) -> None:
        super().__init__(hierarchy, strict=strict)
        self._records: List[MovementRecord] = []
        self._archive: List[MovementRecord] = []
        self._total_recorded = 0
        self._checkpoint_position = 0
        self._checkpoint_state: Optional[tuple] = None
        self._archived_through: Optional[int] = None
        self._in_bulk = False
        # Same transaction discipline as the SQLite backend: the streaming
        # writer's bulk()/record_many scopes and a foreground checkpoint()/
        # clear() serialize here (reentrant for records written inside a
        # same-thread bulk() scope).
        self._txn_lock = threading.RLock()

    def record(self, record: MovementRecord) -> MovementRecord:
        with self._txn_lock:
            self._validate_record(record)
            self._check_strict_exit(record)
            notices = self._notice_for(record)
            self._records.append(record)
            self._total_recorded += 1
            self._occupancy.apply(record)
            self._notify(notices)
            return record

    def record_many(self, records: Iterable[MovementRecord]) -> List[MovementRecord]:
        """Batch append: one validation pass, one list extend, one batch fold.

        Skips the per-record ``record()`` dispatch of the base implementation
        — the batch is validated up front (all-or-nothing in strict mode,
        same as the base path), appended with one ``extend`` and folded with
        :meth:`OccupancyService.apply_many`'s hoisted loop.
        """
        batch = list(records)
        with self._txn_lock:
            self._validate_batch(batch)
            notices = self._notices_for(batch)
            self._records.extend(batch)
            self._total_recorded += len(batch)
            self._occupancy.apply_many(batch)
            self._notify(notices)
            return batch

    @contextmanager
    def bulk(self) -> Iterator[None]:
        """Make a multi-write scope all-or-nothing, mirroring SQLite's.

        The scope is an occupancy transaction (``OccupancyService.begin``):
        the fold journals each key it touches, so the scope costs
        O(keys touched), not O(history).  On failure the records appended
        inside the scope are truncated away and the journal rolls the
        projection back to its state at entry — so ``observe_many``/ingest
        batches that die mid-way (a strict-mode inconsistent exit) leave the
        *store* exactly as it was, on this backend just like on SQLite.
        Anomaly notes and histogram counts of records committed before the
        scope survive the rollback.  ``checkpoint()``, ``clear()``,
        ``import_archived()`` and ``forget_subjects()`` raise
        :class:`~repro.errors.StorageError` inside an open scope.
        """
        if self._in_bulk:
            yield
            return
        with self._txn_lock:
            mark = len(self._records)
            recorded = self._total_recorded
            self._occupancy.begin()
            self._in_bulk = True
            try:
                yield
            except Exception:
                del self._records[mark:]
                self._total_recorded = recorded
                self._occupancy.rollback()
                raise
            finally:
                # Keeps the scope's folds; a no-op once rolled back.
                self._occupancy.commit()
                self._in_bulk = False

    def checkpoint(self, *, compact: bool = True) -> Checkpoint:
        with self._txn_lock:
            self._refuse_in_bulk("checkpoint")
            return self._checkpoint_locked(compact)

    def _checkpoint_locked(self, compact: bool) -> Checkpoint:
        position = self._total_recorded
        self._checkpoint_state = self._occupancy.snapshot()
        archived = 0
        if compact:
            archived = len(self._records)
            if self._records:
                newest = max(record.time for record in self._records)
                if self._archived_through is None or newest > self._archived_through:
                    self._archived_through = newest
            self._archive.extend(self._records)
            self._records.clear()
        self._checkpoint_position = position
        return Checkpoint(
            position,
            archived,
            len(self._occupancy.subjects_inside()),
            len(self._occupancy.entry_counts()),
        )

    @property
    def checkpoint_state(self) -> Optional[tuple]:
        """The projection snapshot persisted by the last :meth:`checkpoint`."""
        return self._checkpoint_state

    @property
    def archived_count(self) -> int:
        return len(self._archive)

    @property
    def archived_through(self) -> Optional[int]:
        return self._archived_through

    def _prune_archive(self, retain: int) -> int:
        with self._txn_lock:
            excess = len(self._archive) - retain
            if excess <= 0:
                return 0
            del self._archive[:excess]
            return excess

    @property
    def events_since_checkpoint(self) -> int:
        return self._total_recorded - self._checkpoint_position

    @property
    def applied_position(self) -> int:
        return self._total_recorded

    def clear(self) -> None:
        with self._txn_lock:
            self._refuse_in_bulk("clear the store")
            self._records.clear()
            self._archive.clear()
            self._total_recorded = 0
            self._checkpoint_position = 0
            self._checkpoint_state = None
            self._archived_through = None
            self._occupancy.clear()

    # -- partition handoff ----------------------------------------------- #
    def import_archived(
        self, records: Iterable[MovementRecord], *, archived_through: Optional[int] = None
    ) -> int:
        batch = list(records)
        with self._txn_lock:
            self._refuse_in_bulk("import an archive slice")
            for record in batch:
                self._validate_record(record)
            notices = self._notices_for(batch)
            self._archive.extend(batch)
            self._occupancy.apply_many(batch)
            if archived_through is not None and (
                self._archived_through is None or archived_through > self._archived_through
            ):
                self._archived_through = int(archived_through)
            self._notify(notices)
            return len(batch)

    def forget_subjects(self, subjects: Iterable[str]) -> List[LocationName]:
        wanted = {subject_name(subject) for subject in subjects}
        with self._txn_lock:
            self._refuse_in_bulk("forget subjects")
            affected = {
                record.location
                for record in self._records + self._archive
                if record.subject in wanted
            }
            self._records = [r for r in self._records if r.subject not in wanted]
            self._archive = [r for r in self._archive if r.subject not in wanted]
            for subject in wanted:
                self._occupancy.forget_subject(subject)
            return sorted(affected)

    def history(
        self,
        *,
        subject: Optional[str] = None,
        location: Optional[str] = None,
        window: Optional[TimeInterval] = None,
        include_archived: bool = False,
    ) -> List[MovementRecord]:
        source: Iterable[MovementRecord] = self._records
        if include_archived and self._archive:
            source = self._archive + self._records
        return _filter_records(source, subject, location, window)

    def __len__(self) -> int:
        return len(self._records)


class SqliteMovementDatabase(MovementDatabase):
    """SQLite-backed movement store (``:memory:`` by default).

    Besides the append-only ``movements`` log, the backend maintains two
    derived tables — ``occ_current`` (the occupancy map) and
    ``occ_entry_counts`` (per-pair entry counters and last entry time) —
    updated in the **same transaction** as each insert.  On open they prime
    the in-process :class:`OccupancyService` in O(#subjects + #pairs)
    instead of replaying the log; windowed entry counts are answered by an
    SQL ``COUNT(*)`` over the partial index on ENTER rows.

    Concurrency contract: movement writes to a given database file must go
    through **one** ``SqliteMovementDatabase`` instance (the projection is
    primed at open and advanced only by this instance's own writes — another
    writer's rows would be invisible to the hot reads until reopen).
    Read-only replica instances over the same file can nevertheless *follow*
    the writer: :meth:`pickup` folds the file's committed rows past this
    instance's :attr:`applied_position` into the projection (and notifies
    subscribers), which is what the replica invalidation bus of
    :mod:`repro.service.bus` drives.
    Transactions on this instance serialize on an internal lock, so a
    foreground ``checkpoint()``/``clear()`` never interleaves a streaming
    writer's open batch.  Reads are **read-uncommitted with respect to this
    instance's own in-flight batch**: while a ``bulk()``/``record_many``
    transaction is open, same-connection SQL reads and the incrementally
    updated projection both see the partial batch (rolled back again if the
    batch fails) — deliberate, because serializing every decision-path read
    against whole ingest batches would trade hot-path latency for a
    consistency level the monitor does not need.  Other
    connections to the same file — the authorization and profile stores of a
    shared-path deployment — may read and write freely; WAL journaling keeps
    them live while a batch transaction is open here.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS movements (
            seq      INTEGER PRIMARY KEY AUTOINCREMENT,
            time     INTEGER NOT NULL,
            subject  TEXT NOT NULL,
            location TEXT NOT NULL,
            kind     TEXT NOT NULL CHECK (kind IN ('enter', 'exit'))
        );
        CREATE INDEX IF NOT EXISTS idx_mov_subject ON movements (subject, time);
        CREATE INDEX IF NOT EXISTS idx_mov_location ON movements (location, time);
        CREATE INDEX IF NOT EXISTS idx_mov_entries
            ON movements (subject, location, time) WHERE kind = 'enter';
        CREATE INDEX IF NOT EXISTS idx_mov_pair_seq ON movements (subject, location, seq);
        CREATE TABLE IF NOT EXISTS occ_current (
            subject  TEXT PRIMARY KEY,
            location TEXT NOT NULL,
            since    INTEGER NOT NULL
        );
        CREATE TABLE IF NOT EXISTS occ_entry_counts (
            subject         TEXT NOT NULL,
            location        TEXT NOT NULL,
            entries         INTEGER NOT NULL,
            last_entry_time INTEGER,
            PRIMARY KEY (subject, location)
        );
        CREATE TABLE IF NOT EXISTS occ_meta (
            key   TEXT PRIMARY KEY,
            value INTEGER NOT NULL
        );
        CREATE TABLE IF NOT EXISTS movements_archive (
            seq      INTEGER PRIMARY KEY,
            time     INTEGER NOT NULL,
            subject  TEXT NOT NULL,
            location TEXT NOT NULL,
            kind     TEXT NOT NULL CHECK (kind IN ('enter', 'exit'))
        );
        CREATE INDEX IF NOT EXISTS idx_arc_entries
            ON movements_archive (subject, location, time) WHERE kind = 'enter';
        CREATE INDEX IF NOT EXISTS idx_arc_pair_seq
            ON movements_archive (subject, location, seq);
        CREATE TABLE IF NOT EXISTS occ_checkpoint (
            subject  TEXT PRIMARY KEY,
            location TEXT NOT NULL,
            since    INTEGER NOT NULL
        );
        CREATE TABLE IF NOT EXISTS occ_checkpoint_counts (
            subject         TEXT NOT NULL,
            location        TEXT NOT NULL,
            entries         INTEGER NOT NULL,
            last_entry_time INTEGER,
            PRIMARY KEY (subject, location)
        );
    """

    def __init__(
        self,
        path: str = ":memory:",
        hierarchy: Optional[LocationHierarchy] = None,
        *,
        strict: bool = False,
    ) -> None:
        super().__init__(hierarchy, strict=strict)
        # check_same_thread=False: the streaming observe path
        # (MovementIngestor) drives enforcement — and therefore these
        # stores — from its background writer thread while the constructing
        # thread keeps reading.  The sqlite3 module serializes statement
        # execution internally, so sharing the connection is safe; write
        # discipline (one logical writer) is unchanged.
        self._connection = sqlite3.connect(path, check_same_thread=False)
        # WAL lets other connections to the same file (the authorization and
        # profile stores of a shared-path deployment) keep reading while a
        # bulk()/record_many transaction is open; a no-op for ":memory:".
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA busy_timeout=5000")
        self._connection.executescript(self._SCHEMA)
        self._connection.commit()
        self._in_bulk = False
        #: True while _pickup_locked is notifying subscribers: those notices
        #: describe FOREIGN rows this instance just folded in.  Listeners
        #: that re-broadcast local mutations (the replica coherence layer)
        #: check it so a pickup — including the pickup-before-write the
        #: local write paths run — never echoes other replicas' events back
        #: onto the bus under this replica's origin.
        self.notifying_pickup = False
        # One transaction at a time on the shared connection: the streaming
        # writer's bulk()/record_many scopes and a foreground checkpoint()/
        # clear() must not interleave their commits (reentrant, so record()
        # calls nested inside a same-thread bulk() scope pass through).
        self._txn_lock = threading.RLock()
        self._load_service()

    def _service_factory(self):
        # Windowed entry counts run as indexed SQL COUNT(*) queries, so the
        # projection skips the timelines and reopening stays O(#pairs).
        return OccupancyService(track_timelines=False)

    def _meta(self, key: str) -> int:
        row = self._connection.execute(
            "SELECT value FROM occ_meta WHERE key = ?", (key,)
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def _meta_opt(self, key: str) -> Optional[int]:
        row = self._connection.execute(
            "SELECT value FROM occ_meta WHERE key = ?", (key,)
        ).fetchone()
        return int(row[0]) if row is not None else None

    def _set_meta(self, key: str, value: int) -> None:
        self._connection.execute(
            "INSERT INTO occ_meta (key, value) VALUES (?, ?)"
            " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def _checkpoint_seq(self) -> int:
        """The log seq the persisted checkpoint covers (0 = no checkpoint)."""
        return self._meta("checkpoint_seq")

    def _max_seq(self) -> int:
        """The newest log seq — O(log n) over the live log's integer primary key.

        After a compacting checkpoint the live log may be empty while the
        checkpoint covers earlier seqs, so the checkpoint seq is the floor.
        """
        (max_seq,) = self._connection.execute(
            "SELECT COALESCE(MAX(seq), 0) FROM movements"
        ).fetchone()
        return max(int(max_seq), self._checkpoint_seq())

    def _stamp_applied(self) -> None:
        """Record (inside the open transaction) how far the derived tables reach."""
        self._set_meta("applied_seq", self._max_seq())

    def _load_service(self) -> None:
        """Prime the projection from the derived tables (recovering them if stale).

        Staleness is detected by comparing the stamped ``applied_seq`` with
        the log's maximum seq — both O(log n) index lookups, so reopening a
        healthy database stays O(#subjects + #pairs).  A stale database (one
        written before the derived tables existed, or by a writer that did
        not maintain them) is recovered by replaying the log **from the
        persisted checkpoint**, i.e. in O(events since the checkpoint), not
        O(all time).
        """
        if self._meta("applied_seq") != self._max_seq():
            self._recover_derived()
        inside = {
            subject: (location, since)
            for subject, location, since in self._connection.execute(
                "SELECT subject, location, since FROM occ_current"
            )
        }
        counts = {
            (subject, location): (count, last_time)
            for subject, location, count, last_time in self._connection.execute(
                "SELECT subject, location, entries, last_entry_time FROM occ_entry_counts"
            )
        }
        self._occupancy.load(inside=inside, entry_counts=counts)
        #: the log seq this instance's projection has folded in; a replica
        #: sharing the file with a writer advances it through pickup().
        self._applied_seq = self._max_seq()

    def _recover_derived(self) -> None:
        """Rebuild the derived tables: checkpoint state + replay of the log suffix.

        The replay projection is primed from the ``occ_checkpoint`` tables
        and only the movements past the checkpoint seq are folded in — with
        no checkpoint ever taken (seq 0, empty tables) this degrades to the
        full-log replay that migrates pre-derived-table databases.
        """
        checkpoint_seq = self._checkpoint_seq()
        replay = OccupancyService(track_timelines=False)
        replay.load(
            inside={
                subject: (location, since)
                for subject, location, since in self._connection.execute(
                    "SELECT subject, location, since FROM occ_checkpoint"
                )
            },
            entry_counts={
                (subject, location): (count, last_time)
                for subject, location, count, last_time in self._connection.execute(
                    "SELECT subject, location, entries, last_entry_time FROM occ_checkpoint_counts"
                )
            },
        )
        replay.apply_many(
            MovementRecord._from_rows(
                self._connection.execute(
                    "SELECT time, subject, location, kind FROM movements WHERE seq > ? ORDER BY seq",
                    (checkpoint_seq,),
                )
            )
        )
        self._connection.execute("DELETE FROM occ_current")
        self._connection.execute("DELETE FROM occ_entry_counts")
        self._connection.executemany(
            "INSERT INTO occ_current (subject, location, since) VALUES (?, ?, ?)",
            [
                (subject, location, replay.inside_since(subject) or 0)
                for subject, location in replay.subjects_inside().items()
            ],
        )
        count_rows = []
        for (subject, location), count in replay.entry_counts().items():
            last = replay.last_entry(subject, location)
            count_rows.append((subject, location, count, last.time if last else None))
        self._connection.executemany(
            "INSERT INTO occ_entry_counts (subject, location, entries, last_entry_time)"
            " VALUES (?, ?, ?, ?)",
            count_rows,
        )
        self._stamp_applied()
        self._connection.commit()

    # -- checkpoint / compaction ---------------------------------------- #
    def checkpoint(self, *, compact: bool = True) -> Checkpoint:
        """Persist the projection snapshot and archive the covered log prefix.

        One transaction: the live derived tables (which are exactly the
        projection at the current log position) are copied into the
        ``occ_checkpoint`` tables SQL-side, the checkpoint seq is stamped,
        and with ``compact=True`` the covered ``movements`` rows move into
        ``movements_archive``.  Crash recovery and ``history()`` replays are
        then bounded by events past this checkpoint.
        """
        with self._txn_lock:
            self._refuse_in_bulk("checkpoint")
            return self._checkpoint_locked(compact)

    def _checkpoint_locked(self, compact: bool) -> Checkpoint:
        connection = self._connection
        self._begin_immediate()  # fence the position read against other writers
        position = self._max_seq()
        connection.execute("DELETE FROM occ_checkpoint")
        connection.execute(
            "INSERT INTO occ_checkpoint (subject, location, since)"
            " SELECT subject, location, since FROM occ_current"
        )
        connection.execute("DELETE FROM occ_checkpoint_counts")
        connection.execute(
            "INSERT INTO occ_checkpoint_counts (subject, location, entries, last_entry_time)"
            " SELECT subject, location, entries, last_entry_time FROM occ_entry_counts"
        )
        self._set_meta("checkpoint_seq", position)
        archived = 0
        if compact:
            (archived,) = connection.execute(
                "SELECT COUNT(*) FROM movements WHERE seq <= ?", (position,)
            ).fetchone()
            if archived:
                # The LIVE/ARCHIVED boundary of the scoped query statements;
                # persisted so a reopened database keeps the same answer.
                (newest,) = connection.execute(
                    "SELECT MAX(time) FROM movements WHERE seq <= ?", (position,)
                ).fetchone()
                previous = self._meta_opt("archived_through")
                if previous is None or int(newest) > previous:
                    self._set_meta("archived_through", int(newest))
            connection.execute(
                "INSERT INTO movements_archive (seq, time, subject, location, kind)"
                " SELECT seq, time, subject, location, kind FROM movements WHERE seq <= ?",
                (position,),
            )
            connection.execute("DELETE FROM movements WHERE seq <= ?", (position,))
        self._stamp_applied()
        connection.commit()
        (subjects_inside,) = connection.execute("SELECT COUNT(*) FROM occ_checkpoint").fetchone()
        (pairs,) = connection.execute("SELECT COUNT(*) FROM occ_checkpoint_counts").fetchone()
        return Checkpoint(position, int(archived), int(subjects_inside), int(pairs))

    @property
    def archived_count(self) -> int:
        (count,) = self._connection.execute("SELECT COUNT(*) FROM movements_archive").fetchone()
        return int(count)

    @property
    def archived_through(self) -> Optional[int]:
        return self._meta_opt("archived_through")

    def _prune_archive(self, retain: int) -> int:
        with self._txn_lock:
            self._begin_immediate()  # fence the count against other writers
            excess = self.archived_count - retain
            if excess <= 0:
                self._connection.rollback()
                return 0
            (pruned_through,) = self._connection.execute(
                "SELECT MAX(seq) FROM (SELECT seq FROM movements_archive"
                " ORDER BY seq LIMIT ?)",
                (excess,),
            ).fetchone()
            self._connection.execute(
                "DELETE FROM movements_archive WHERE seq IN"
                " (SELECT seq FROM movements_archive ORDER BY seq LIMIT ?)",
                (excess,),
            )
            # Pruned rows are unreachable history: touch_marks_since can no
            # longer reconstruct subject trajectories, so it must refuse
            # (persisted cache entries then cold-start instead of risking
            # a missed invalidation).
            if pruned_through is not None:
                self._set_meta("pruned_through_seq", int(pruned_through))
            self._connection.commit()
            return excess

    @property
    def events_since_checkpoint(self) -> int:
        (count,) = self._connection.execute(
            "SELECT COUNT(*) FROM movements WHERE seq > ?", (self._checkpoint_seq(),)
        ).fetchone()
        return int(count)

    # -- replica pickup -------------------------------------------------- #
    @property
    def high_water(self) -> int:
        """The newest **committed** log seq in the file (any writer's)."""
        with self._txn_lock:
            return self._max_seq()

    @property
    def applied_position(self) -> int:
        return self._applied_seq

    @property
    def oldest_retained_time(self) -> Optional[int]:
        (oldest,) = self._connection.execute(
            "SELECT MIN(t) FROM (SELECT MIN(time) AS t FROM movements"
            " UNION ALL SELECT MIN(time) AS t FROM movements_archive)"
        ).fetchone()
        return int(oldest) if oldest is not None else None

    def pickup(self) -> List[MovementNotice]:
        """Fold rows another replica committed to the shared file into this
        instance's projection, notifying subscribers with their notices.

        This is the cross-process half of the replica coherence story: the
        writer replica's ``record``/``record_many`` keep the derived tables
        authoritative, while every *other* replica calls ``pickup()`` (on an
        invalidation-bus event, on bus gap/reconnect, or on a periodic sync
        tick) to catch its in-process projection — and therefore its hot
        decision reads — up to the file's committed high water.  The emitted
        notices flow through the normal mutation-notification path, so an
        attached :class:`~repro.service.cache.DecisionCache` evicts exactly
        the keys the foreign writes touched (and bumps their invalidation
        generations, fencing in-flight stores).

        The derived tables are left alone — they are the writer's to
        maintain.  Returns the applied notices; ``[]`` when caught up.
        """
        with self._txn_lock:
            if self._in_bulk:
                # Never interleave foreign rows into an open local batch;
                # the next sync tick retries after the transaction closes.
                return []
            return self._pickup_locked()

    def _pickup_locked(self) -> List[MovementNotice]:
        """The :meth:`pickup` body; callers hold the transaction lock.

        The local write paths run this **before writing** too: a replica
        whose own insert's seq would jump past foreign committed rows must
        fold them first, or those rows would fall forever outside the
        ``seq > applied`` pickup window — silently desyncing the projection
        of any replica that both reads and writes.
        """
        rows = self._connection.execute(
            "SELECT seq, time, subject, location, kind FROM movements WHERE seq > ?"
            " UNION ALL"
            " SELECT seq, time, subject, location, kind FROM movements_archive"
            " WHERE seq > ? ORDER BY seq",
            (self._applied_seq, self._applied_seq),
        ).fetchall()
        if not rows:
            return []
        records = [
            MovementRecord(time, subject, location, MovementKind(kind))
            for _, time, subject, location, kind in rows
        ]
        notices = self._trace_notices(records)
        for record in records:
            self._occupancy.apply(record)
        self._applied_seq = rows[-1][0]
        self.notifying_pickup = True
        try:
            self._notify(notices)
        finally:
            self.notifying_pickup = False
        return notices

    def touch_marks_since(self, position: int) -> Optional[Dict[LocationName, int]]:
        """Exact-log marks for the persistent cache's warm-restart pass.

        One SQL pass over the retained log (live + archive): every row past
        *position* marks its own location, and — because an ENTER elsewhere
        changes the *previous* location's occupancy — every location its
        subject ever previously touched.  See the base docstring for the
        conservative-superset contract.  Refuses (``None``) when the archive
        was ever pruned: the pruned prefix may hide a since-moving subject's
        earlier locations.
        """
        with self._txn_lock:
            if position >= self._max_seq():
                return {}
            if self._meta("pruned_through_seq"):
                return None
            rows = self._connection.execute(
                "WITH all_rows(seq, subject, location) AS ("
                " SELECT seq, subject, location FROM movements"
                " UNION ALL"
                " SELECT seq, subject, location FROM movements_archive)"
                " SELECT h.location, MAX(m.seq)"
                " FROM all_rows m JOIN all_rows h"
                " ON h.subject = m.subject AND h.seq <= m.seq"
                " WHERE m.seq > ? GROUP BY h.location",
                (position,),
            ).fetchall()
            return {location: int(mark) for location, mark in rows}

    # -- writes --------------------------------------------------------- #
    def _begin_immediate(self) -> None:
        """Open the write transaction *now*, before the pickup read.

        Python's ``sqlite3`` does not BEGIN on SELECT in its default
        isolation mode, so without this the pickup-before-write read runs
        outside any transaction: two writer instances over one file could
        both read the same committed high water, interleave their inserts,
        and each fold the other's rows a second time on its next pickup.
        ``BEGIN IMMEDIATE`` takes the file's single write lock up front
        (waiting out the busy timeout if another writer holds it), making
        pickup + insert + commit one fenced unit.  No-op when a transaction
        is already open (nested writes inside ``bulk()``).
        """
        if not self._connection.in_transaction:
            self._connection.execute("BEGIN IMMEDIATE")

    def _apply_derived(self, record: MovementRecord) -> None:
        """Mirror one record into the derived tables (inside the open transaction)."""
        if record.kind is MovementKind.ENTER:
            self._connection.execute(
                "INSERT INTO occ_current (subject, location, since) VALUES (?, ?, ?)"
                " ON CONFLICT(subject) DO UPDATE SET"
                " location = excluded.location, since = excluded.since",
                (record.subject, record.location, record.time),
            )
            self._connection.execute(
                "INSERT INTO occ_entry_counts (subject, location, entries, last_entry_time)"
                " VALUES (?, ?, 1, ?)"
                " ON CONFLICT(subject, location) DO UPDATE SET"
                " entries = entries + 1, last_entry_time = excluded.last_entry_time",
                (record.subject, record.location, record.time),
            )
        elif self._occupancy.current_location(record.subject) == record.location:
            # Consistent exit; an anomalous one leaves the occupancy map alone
            # (mirroring OccupancyService semantics).
            self._connection.execute(
                "DELETE FROM occ_current WHERE subject = ?", (record.subject,)
            )

    def record(self, record: MovementRecord) -> MovementRecord:
        with self._txn_lock:
            if not self._in_bulk:
                # Fold foreign committed rows first — under the write lock
                # (_begin_immediate), so no other writer can slip rows in
                # between this pickup and our insert; our insert's seq moves
                # applied past any such rows, which would orphan them.
                self._begin_immediate()
                try:
                    self._pickup_locked()
                    self._validate_record(record)
                    self._check_strict_exit(record)
                except Exception:
                    self._connection.rollback()
                    raise
            else:
                self._validate_record(record)
                self._check_strict_exit(record)
            notices = self._notice_for(record)
            cursor = self._connection.execute(
                "INSERT INTO movements (time, subject, location, kind) VALUES (?, ?, ?, ?)",
                (record.time, record.subject, record.location, record.kind.value),
            )
            self._apply_derived(record)
            self._occupancy.apply(record)
            if cursor.lastrowid:
                self._applied_seq = cursor.lastrowid
            if not self._in_bulk:
                self._stamp_applied()
                self._connection.commit()
            self._notify(notices)
            return record

    def record_many(self, records: Iterable[MovementRecord]) -> List[MovementRecord]:
        """Batch insert with ``executemany`` and a single commit.

        The movement log is appended with one ``executemany``; the derived
        tables are then synced from the final projection state with one
        ``executemany`` per table over just the touched keys — O(batch)
        Python, O(distinct keys) SQL, one transaction.
        """
        batch = list(records)
        with self._txn_lock:
            if not self._in_bulk:
                # Fenced pickup-before-write (see _begin_immediate).
                self._begin_immediate()
                try:
                    self._pickup_locked()
                    self._validate_batch(batch)
                except Exception:
                    self._connection.rollback()
                    raise
            else:
                self._validate_batch(batch)
            notices = self._notices_for(batch)
            if self._in_bulk:
                # The enclosing bulk() scope owns the transaction (and rollback).
                self._write_batch(batch)
                self._notify(notices)
                return batch
            applied = self._applied_seq
            self._occupancy.begin()
            try:
                self._write_batch(batch)
                self._connection.commit()
            except Exception:
                self._connection.rollback()
                self._occupancy.rollback()
                self._applied_seq = applied
                raise
            finally:
                self._occupancy.commit()
            self._notify(notices)
            return batch

    def _write_batch(self, batch: List[MovementRecord]) -> None:
        """Append *batch* and sync the projection/derived tables (no commit)."""
        self._connection.executemany(
            "INSERT INTO movements (time, subject, location, kind) VALUES (?, ?, ?, ?)",
            [(r.time, r.subject, r.location, r.kind.value) for r in batch],
        )
        self._occupancy.apply_many(batch)
        self._sync_derived(
            subjects={record.subject for record in batch},
            pairs={
                (record.subject, record.location)
                for record in batch
                if record.kind is MovementKind.ENTER
            },
        )
        # Same-connection reads see the uncommitted inserts, so this is the
        # batch's final seq even inside the open transaction.
        self._applied_seq = self._max_seq()
        self._stamp_applied()

    def _sync_derived(self, *, subjects: set, pairs: set) -> None:
        """Write the projection's state for the touched keys into the derived tables."""
        gone = [(subject,) for subject in subjects if self._occupancy.current_location(subject) is None]
        present = [
            (subject, self._occupancy.current_location(subject), self._occupancy.inside_since(subject))
            for subject in subjects
            if self._occupancy.current_location(subject) is not None
        ]
        if gone:
            self._connection.executemany("DELETE FROM occ_current WHERE subject = ?", gone)
        if present:
            self._connection.executemany(
                "INSERT INTO occ_current (subject, location, since) VALUES (?, ?, ?)"
                " ON CONFLICT(subject) DO UPDATE SET"
                " location = excluded.location, since = excluded.since",
                present,
            )
        count_rows = []
        for subject, location in pairs:
            last = self._occupancy.last_entry(subject, location)
            count_rows.append(
                (
                    subject,
                    location,
                    self._occupancy.entry_count(subject, location),
                    last.time if last is not None else None,
                )
            )
        if count_rows:
            self._connection.executemany(
                "INSERT INTO occ_entry_counts (subject, location, entries, last_entry_time)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT(subject, location) DO UPDATE SET"
                " entries = excluded.entries, last_entry_time = excluded.last_entry_time",
                count_rows,
            )

    @contextmanager
    def bulk(self) -> Iterator[None]:
        """Defer the commit until the end of the scope (one transaction).

        The scope is also an occupancy transaction
        (``OccupancyService.begin``): the fold journals each key it touches,
        so the scope costs O(keys touched), not O(projection size).  On
        failure the SQL transaction rolls back and the journal rolls the
        projection back to its state at scope entry — committed state,
        including the in-process anomaly notes and histograms of records
        committed before the scope, survives intact.  ``checkpoint()``,
        ``clear()``, ``import_archived()`` and ``forget_subjects()`` raise
        :class:`~repro.errors.StorageError` inside an open scope.
        """
        if self._in_bulk:
            yield
            return
        with self._txn_lock:
            # Fenced pickup-before-write (see _begin_immediate): the whole
            # bulk scope runs inside the write lock taken here.
            self._begin_immediate()
            try:
                self._pickup_locked()
            except Exception:
                self._connection.rollback()
                raise
            self._occupancy.begin()
            self._in_bulk = True
            applied = self._applied_seq
            try:
                yield
            except Exception:
                self._connection.rollback()
                self._occupancy.rollback()
                self._applied_seq = applied
                raise
            else:
                self._stamp_applied()
                self._connection.commit()
            finally:
                # Keeps the scope's folds; a no-op once rolled back.
                self._occupancy.commit()
                self._in_bulk = False

    def clear(self) -> None:
        with self._txn_lock:
            self._refuse_in_bulk("clear the store")
            self._clear_locked()

    def _clear_locked(self) -> None:
        self._begin_immediate()
        self._connection.execute("DELETE FROM movements")
        self._connection.execute("DELETE FROM movements_archive")
        self._connection.execute("DELETE FROM occ_current")
        self._connection.execute("DELETE FROM occ_entry_counts")
        self._connection.execute("DELETE FROM occ_checkpoint")
        self._connection.execute("DELETE FROM occ_checkpoint_counts")
        self._set_meta("checkpoint_seq", 0)
        self._connection.execute("DELETE FROM occ_meta WHERE key = 'archived_through'")
        self._stamp_applied()
        self._connection.commit()
        self._occupancy.clear()
        self._applied_seq = self._max_seq()

    # -- partition handoff ----------------------------------------------- #
    def known_subjects(self) -> List[str]:
        rows = self._connection.execute(
            "SELECT DISTINCT subject FROM movements"
            " UNION SELECT DISTINCT subject FROM movements_archive ORDER BY subject"
        ).fetchall()
        return [subject for (subject,) in rows]

    def _sync_checkpoint_tables(self, *, subjects: set, pairs: set) -> None:
        """Mirror the touched keys' projection state into the checkpoint tables.

        Imported archive rows live at negative seqs — *below* the persisted
        checkpoint — so crash recovery (checkpoint snapshot + replay of
        ``seq > checkpoint_seq``) would lose them unless the snapshot tables
        carry the imported subjects' state too.  At import time a migrating
        subject's projection state is exactly its archived-slice fold (its
        live slice arrives afterwards, at positive seqs the replay covers),
        so copying the current state here keeps recovery exact.
        """
        gone = [
            (subject,)
            for subject in subjects
            if self._occupancy.current_location(subject) is None
        ]
        present = [
            (subject, self._occupancy.current_location(subject), self._occupancy.inside_since(subject))
            for subject in subjects
            if self._occupancy.current_location(subject) is not None
        ]
        if gone:
            self._connection.executemany("DELETE FROM occ_checkpoint WHERE subject = ?", gone)
        if present:
            self._connection.executemany(
                "INSERT INTO occ_checkpoint (subject, location, since) VALUES (?, ?, ?)"
                " ON CONFLICT(subject) DO UPDATE SET"
                " location = excluded.location, since = excluded.since",
                present,
            )
        count_rows = []
        for subject, location in pairs:
            last = self._occupancy.last_entry(subject, location)
            count_rows.append(
                (
                    subject,
                    location,
                    self._occupancy.entry_count(subject, location),
                    last.time if last is not None else None,
                )
            )
        if count_rows:
            self._connection.executemany(
                "INSERT INTO occ_checkpoint_counts (subject, location, entries, last_entry_time)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT(subject, location) DO UPDATE SET"
                " entries = excluded.entries, last_entry_time = excluded.last_entry_time",
                count_rows,
            )

    def import_archived(
        self, records: Iterable[MovementRecord], *, archived_through: Optional[int] = None
    ) -> int:
        batch = list(records)
        with self._txn_lock:
            self._refuse_in_bulk("import an archive slice")
            self._begin_immediate()
            try:
                self._pickup_locked()
                for record in batch:
                    self._validate_record(record)
            except Exception:
                self._connection.rollback()
                raise
            notices = self._notices_for(batch)
            self._occupancy.begin()
            try:
                # Imported rows get seqs BELOW zero (and below any earlier
                # import): they must never enter the ``seq > applied`` pickup
                # window — they are folded right here, and a replica picking
                # them up again would double-apply — and history's seq order
                # must place a migrating subject's adopted past before its
                # native future.
                (floor,) = self._connection.execute(
                    "SELECT COALESCE(MIN(seq), 0) FROM movements_archive"
                ).fetchone()
                base = min(int(floor), 0) - len(batch)
                self._connection.executemany(
                    "INSERT INTO movements_archive (seq, time, subject, location, kind)"
                    " VALUES (?, ?, ?, ?, ?)",
                    [
                        (base + offset, r.time, r.subject, r.location, r.kind.value)
                        for offset, r in enumerate(batch)
                    ],
                )
                self._occupancy.apply_many(batch)
                touched_subjects = {record.subject for record in batch}
                touched_pairs = {
                    (record.subject, record.location)
                    for record in batch
                    if record.kind is MovementKind.ENTER
                }
                self._sync_derived(subjects=touched_subjects, pairs=touched_pairs)
                self._sync_checkpoint_tables(subjects=touched_subjects, pairs=touched_pairs)
                if archived_through is not None:
                    previous = self._meta_opt("archived_through")
                    if previous is None or int(archived_through) > previous:
                        self._set_meta("archived_through", int(archived_through))
                self._connection.commit()
            except Exception:
                self._connection.rollback()
                self._occupancy.rollback()
                raise
            finally:
                self._occupancy.commit()
            self._notify(notices)
            return len(batch)

    def forget_subjects(self, subjects: Iterable[str]) -> List[LocationName]:
        wanted = [subject_name(subject) for subject in subjects]
        with self._txn_lock:
            self._refuse_in_bulk("forget subjects")
            self._begin_immediate()
            try:
                self._pickup_locked()
                if not wanted:
                    self._connection.rollback()
                    return []
                marks = ",".join("?" for _ in wanted)
                affected = {
                    location
                    for (location,) in self._connection.execute(
                        f"SELECT DISTINCT location FROM movements WHERE subject IN ({marks})"
                        f" UNION SELECT DISTINCT location FROM movements_archive"
                        f" WHERE subject IN ({marks})",
                        (*wanted, *wanted),
                    )
                }
                for table in (
                    "movements",
                    "movements_archive",
                    "occ_current",
                    "occ_entry_counts",
                    "occ_checkpoint",
                    "occ_checkpoint_counts",
                ):
                    self._connection.execute(
                        f"DELETE FROM {table} WHERE subject IN ({marks})", tuple(wanted)
                    )
                # The deletes may have lowered the log's max seq; re-stamp so
                # a reopen sees applied == max and skips recovery.  This
                # instance's _applied_seq stays put — AUTOINCREMENT never
                # reissues seqs, so the pickup window stays correct.
                self._stamp_applied()
                self._connection.commit()
            except Exception:
                self._connection.rollback()
                raise
            for subject in wanted:
                self._occupancy.forget_subject(subject)
            return sorted(affected)

    # -- reads ---------------------------------------------------------- #
    def history(
        self,
        *,
        subject: Optional[str] = None,
        location: Optional[str] = None,
        window: Optional[TimeInterval] = None,
        include_archived: bool = False,
    ) -> List[MovementRecord]:
        source = "movements"
        if include_archived:
            source = (
                "(SELECT seq, time, subject, location, kind FROM movements_archive"
                " UNION ALL SELECT seq, time, subject, location, kind FROM movements)"
            )
        sql = f"SELECT time, subject, location, kind FROM {source}"
        clauses: List[str] = []
        parameters: List = []
        if subject is not None:
            clauses.append("subject = ?")
            parameters.append(subject_name(subject))
        if location is not None:
            clauses.append("location = ?")
            parameters.append(location_name(location))
        if window is not None:
            clauses.append("time >= ?")
            parameters.append(window.start)
            if not window.is_unbounded:
                clauses.append("time <= ?")
                parameters.append(int(window.end))
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY seq"
        rows = self._connection.execute(sql, tuple(parameters)).fetchall()
        return [MovementRecord(time, subj, loc, MovementKind(kind)) for time, subj, loc, kind in rows]

    def entry_count(
        self, subject: str, location: str, window: Optional[TimeInterval] = None
    ) -> int:
        if window is None:
            return self._occupancy.entry_count(subject_name(subject), location_name(location))
        # SQL-side count over the partial ENTER indexes — O(log n + k) in
        # SQLite.  The archive is counted too (same partial index shape), so
        # windows reaching past a compaction stay exact; an empty archive
        # costs one O(log 1) probe.
        total = 0
        for table in ("movements", "movements_archive"):
            sql = (
                f"SELECT COUNT(*) FROM {table}"
                " WHERE subject = ? AND location = ? AND kind = 'enter' AND time >= ?"
            )
            parameters: List = [subject_name(subject), location_name(location), window.start]
            if not window.is_unbounded:
                sql += " AND time <= ?"
                parameters.append(int(window.end))
            (count,) = self._connection.execute(sql, tuple(parameters)).fetchone()
            total += int(count)
        return total

    def last_movement(self, subject: str, location: str) -> Optional[MovementRecord]:
        record = self._occupancy.last_movement(subject_name(subject), location_name(location))
        if record is not None:
            return record
        # Not seen by this process (reopened database): indexed point
        # lookups, live log first, then the compacted archive.
        for table in ("movements", "movements_archive"):
            row = self._connection.execute(
                f"SELECT time, subject, location, kind FROM {table}"
                " WHERE subject = ? AND location = ? ORDER BY seq DESC LIMIT 1",
                (subject_name(subject), location_name(location)),
            ).fetchone()
            if row is not None:
                time, subj, loc, kind = row
                return MovementRecord(time, subj, loc, MovementKind(kind))
        return None

    def last_entry(self, subject: str, location: str) -> Optional[MovementRecord]:
        record = self._occupancy.last_entry(subject_name(subject), location_name(location))
        if record is not None:
            return record
        for table in ("movements", "movements_archive"):
            row = self._connection.execute(
                f"SELECT time, subject, location FROM {table}"
                " WHERE subject = ? AND location = ? AND kind = 'enter'"
                " ORDER BY seq DESC LIMIT 1",
                (subject_name(subject), location_name(location)),
            ).fetchone()
            if row is not None:
                time, subj, loc = row
                return MovementRecord(time, subj, loc, MovementKind.ENTER)
        return None

    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self._connection.close()

    def __len__(self) -> int:
        (count,) = self._connection.execute("SELECT COUNT(*) FROM movements").fetchone()
        return int(count)
