"""The event-indexed occupancy read model shared by the movement backends.

Every authorization decision consults the location & movements database —
current location, occupants of a location, entries consumed within a window
(Definition 7).  Replaying the movement history on each of those reads makes
the hot path O(n) in the trace length; :class:`OccupancyService` instead
maintains a single incremental projection that both movement-database
backends update on every :meth:`~repro.storage.movement_db.MovementDatabase.record`:

* the **current occupancy map** (subject → location, location → occupant
  set) — O(1) ``current_location`` / ``occupancy`` and O(k) ``occupants``;
* **per-(subject, location) entry counters** — O(1) unwindowed
  ``entry_count`` (Definition 7's budget counter);
* **per-pair entry timelines** (sorted entry times) — O(log n) windowed
  ``entry_count`` via bisection;
* the **last entry / last movement** per pair — O(1) ``last_entry`` and the
  audit trail's "latest movement" read;
* **time-bucketed entry histograms** per location — O(1)-per-event upkeep
  for occupancy-trend and capacity reporting reads.

The projection also normalizes the backends' disagreement about inconsistent
EXIT events: an exit for a subject tracked inside a *different* location (or
not tracked at all) is recorded as an :class:`OccupancyAnomaly` note — and
raises :class:`~repro.errors.StorageError` when the owning database was
opened ``strict=True`` — identically for the in-memory and SQLite backends.

Anomaly notes and entry histograms are **in-process observability state**:
they accumulate for the lifetime of the owning database object and start
empty again when a persistent SQLite file is reopened (the occupancy map
and entry counters, by contrast, are persisted in the derived tables).

**Transactions.**  The backends' write scopes (``bulk()``, a standalone
SQLite ``record_many``, ``import_archived``) bracket their folds with
:meth:`OccupancyService.begin` and :meth:`~OccupancyService.commit` or
:meth:`~OccupancyService.rollback`.  While a transaction is open the fold
journals each key's prior value the first time it touches the key — the
occupancy map and occupant sets (the *previous* location's set included),
the entry counters, last entry/movement, the touched pair's timeline
length, the touched histogram buckets — plus the anomaly list's length.
A transaction therefore costs O(keys touched), not O(projection size).
Rollback writes the prior values back, deletes the keys the transaction
created and truncates the anomaly notes, so the projection equals its state
at ``begin()``: anomaly notes and histogram counts of records committed
*before* the scope survive, those of the rolled-back records do not.
:meth:`~OccupancyService.clear`, :meth:`~OccupancyService.load` and
:meth:`~OccupancyService.forget_subject` are refused while a transaction is
open, because the journal could not undo them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StorageError
from repro.temporal.interval import TimeInterval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.movement_db import MovementRecord

__all__ = ["OccupancyAnomaly", "OccupancyService"]

#: Default width (in chronons) of the entry-histogram buckets.
DEFAULT_HISTOGRAM_BUCKET = 64

#: Journal marker for "the key was absent before the transaction touched it".
_MISSING = object()

_ENTER = None


def _enter_kind():
    """``MovementKind.ENTER``, imported lazily (movement_db imports this module)."""
    global _ENTER
    if _ENTER is None:
        from repro.storage.movement_db import MovementKind

        _ENTER = MovementKind.ENTER
    return _ENTER


def _put(mapping: dict, key, value) -> None:
    """Write a journaled prior value back: delete the key if it was absent."""
    if value is _MISSING:
        mapping.pop(key, None)
    else:
        mapping[key] = value


class _Journal:
    """The undo journal of one open :class:`OccupancyService` transaction.

    It holds references to the service's maps and, before the fold applies
    each record, :meth:`note` saves the prior value of every key the record
    is about to change — only the first time the transaction touches the
    key (:data:`_MISSING` when the key was absent):

    * ``subjects`` — subject → (``_inside``, ``_inside_since``);
    * ``pairs`` — (subject, location) → (``_entry_counts``, ``_last_entry``,
      ``_last_movement``, the ``_timelines`` list's length, or ``None``
      when timelines are off);
    * ``members`` — (location, subject) → membership in ``_occupants``,
      the previous location's set included;
    * ``buckets`` — (location, bucket) → the ``_histograms`` count;
    * ``timeline_copies`` — pair → a copy of the pre-transaction list, taken
      only before an out-of-order entry is inserted mid-list (a length
      cannot undo that).

    ``new_occupant_sets`` / ``new_histograms`` list the locations whose set
    or bucket dict the transaction created, and ``anomaly_mark`` is the
    anomaly list's length at :meth:`OccupancyService.begin`.
    """

    __slots__ = (
        "_inside",
        "_inside_since",
        "_occupants",
        "_entry_counts",
        "_last_entry",
        "_last_movement",
        "_timelines",
        "_histograms",
        "_anomalies",
        "_bucket",
        "subjects",
        "pairs",
        "members",
        "buckets",
        "timeline_copies",
        "new_occupant_sets",
        "new_histograms",
        "anomaly_mark",
    )

    def __init__(self, service: "OccupancyService") -> None:
        self._inside = service._inside
        self._inside_since = service._inside_since
        self._occupants = service._occupants
        self._entry_counts = service._entry_counts
        self._last_entry = service._last_entry
        self._last_movement = service._last_movement
        self._timelines = service._timelines if service._track_timelines else None
        self._histograms = service._histograms
        self._anomalies = service._anomalies
        self._bucket = service._bucket
        self.subjects: Dict[str, tuple] = {}
        self.pairs: Dict[Tuple[str, str], tuple] = {}
        self.members: Dict[Tuple[str, str], bool] = {}
        self.buckets: Dict[Tuple[str, int], object] = {}
        self.timeline_copies: Dict[Tuple[str, str], List[int]] = {}
        self.new_occupant_sets: List[str] = []
        self.new_histograms: List[str] = []
        self.anomaly_mark = len(self._anomalies)

    def size(self) -> int:
        return (
            len(self.subjects)
            + len(self.pairs)
            + len(self.members)
            + len(self.buckets)
            + len(self.timeline_copies)
            + len(self.new_occupant_sets)
            + len(self.new_histograms)
        )

    def note(self, record: "MovementRecord", enter) -> None:
        """Save what folding *record* will change, before it is folded."""
        subject, location = record.subject, record.location
        pair = (subject, location)
        inside = self._inside
        timelines = self._timelines
        if subject not in self.subjects:
            self.subjects[subject] = (
                inside.get(subject, _MISSING),
                self._inside_since.get(subject, _MISSING),
            )
        if pair not in self.pairs:
            if timelines is None:
                length = None
            else:
                timeline = timelines.get(pair)
                length = _MISSING if timeline is None else len(timeline)
            self.pairs[pair] = (
                self._entry_counts.get(pair, _MISSING),
                self._last_entry.get(pair, _MISSING),
                self._last_movement.get(pair, _MISSING),
                length,
            )
        tracked = inside.get(subject)
        occupants = self._occupants
        members = self.members
        if record.kind is enter:
            if tracked is not None and (tracked, subject) not in members:
                members[(tracked, subject)] = subject in occupants[tracked]
            current = occupants.get(location)
            if current is None:
                self.new_occupant_sets.append(location)
            if (location, subject) not in members:
                members[(location, subject)] = current is not None and subject in current
            histogram = self._histograms.get(location)
            if histogram is None:
                self.new_histograms.append(location)
                histogram = {}
            key = (location, record.time // self._bucket)
            if key not in self.buckets:
                self.buckets[key] = histogram.get(key[1], _MISSING)
            if timelines is not None and pair not in self.timeline_copies:
                timeline = timelines.get(pair)
                length = self.pairs[pair][3]
                if timeline and timeline[-1] > record.time and length is not _MISSING:
                    # Until now the transaction only appended to this list,
                    # so its first *length* times are the pre-transaction list.
                    self.timeline_copies[pair] = timeline[:length]
        elif tracked == location and (location, subject) not in members:
            current = occupants.get(location)
            if current is not None:
                members[(location, subject)] = subject in current

    def undo(self) -> None:
        """Write every saved value back and delete the keys the transaction made."""
        for subject, (location, since) in self.subjects.items():
            _put(self._inside, subject, location)
            _put(self._inside_since, subject, since)
        occupants = self._occupants
        for (location, subject), was_member in self.members.items():
            if was_member:
                occupants[location].add(subject)
            else:
                occupants[location].discard(subject)
        for location in self.new_occupant_sets:
            del occupants[location]
        timelines = self._timelines
        for pair, (count, entry, movement, length) in self.pairs.items():
            _put(self._entry_counts, pair, count)
            _put(self._last_entry, pair, entry)
            _put(self._last_movement, pair, movement)
            if length is _MISSING:
                timelines.pop(pair, None)
            elif length is not None:
                del timelines[pair][length:]
        if timelines is not None:
            timelines.update(self.timeline_copies)
        histograms = self._histograms
        for (location, bucket), count in self.buckets.items():
            _put(histograms[location], bucket, count)
        for location in self.new_histograms:
            del histograms[location]
        del self._anomalies[self.anomaly_mark :]


@dataclass(frozen=True)
class OccupancyAnomaly:
    """A movement event that contradicts the tracked occupancy state."""

    time: int
    subject: str
    location: str
    note: str

    def __str__(self) -> str:
        return f"[t={self.time}] {self.subject} @ {self.location}: {self.note}"


class OccupancyService:
    """Incremental occupancy projection over a stream of movement records.

    Parameters
    ----------
    track_timelines:
        Keep per-pair sorted entry-time lists for O(log n) windowed entry
        counts.  The SQLite backend disables this and answers windowed
        counts with an indexed SQL ``COUNT(*)`` instead, so a reopened
        database does not need an O(n) replay.
    histogram_bucket:
        Width, in chronons, of the per-location entry-histogram buckets.
    """

    __slots__ = (
        "_track_timelines",
        "_bucket",
        "_inside",
        "_inside_since",
        "_occupants",
        "_entry_counts",
        "_last_entry",
        "_last_movement",
        "_timelines",
        "_histograms",
        "_anomalies",
        "_journal",
    )

    def __init__(
        self,
        *,
        track_timelines: bool = True,
        histogram_bucket: int = DEFAULT_HISTOGRAM_BUCKET,
    ) -> None:
        if not isinstance(histogram_bucket, int) or histogram_bucket < 1:
            raise StorageError(
                f"histogram bucket width must be a positive integer, got {histogram_bucket!r}"
            )
        self._track_timelines = track_timelines
        self._bucket = histogram_bucket
        self._journal: Optional[_Journal] = None
        self.clear()

    # ------------------------------------------------------------------ #
    # Projection upkeep
    # ------------------------------------------------------------------ #
    def check_exit(self, record: "MovementRecord") -> Optional[OccupancyAnomaly]:
        """The anomaly an EXIT record would introduce, without applying it."""
        if record.kind is _enter_kind():
            return None
        tracked = self._inside.get(record.subject)
        if tracked is None:
            return OccupancyAnomaly(
                record.time,
                record.subject,
                record.location,
                "exit observed but the subject is not tracked inside any location",
            )
        if tracked != record.location:
            return OccupancyAnomaly(
                record.time,
                record.subject,
                record.location,
                f"exit observed while the subject is tracked inside {tracked!r}",
            )
        return None

    def apply(self, record: "MovementRecord") -> None:
        """Fold one movement record into the projection (O(log n) worst case)."""
        self.apply_many((record,))

    def apply_many(self, records: Iterable["MovementRecord"]) -> None:
        """Fold a batch of records, in order — the one fold loop.

        :meth:`apply` is this loop over a one-record batch.  The loop body is
        inlined with every instance attribute bound to a local once per
        batch: at tracker line rate the per-record attribute and method
        dispatch dominates the actual dict work.  While a transaction is
        open (:meth:`begin`), the journal notes each record's keys before
        the record is folded.
        """
        enter = _enter_kind()
        inside = self._inside
        inside_since = self._inside_since
        occupants = self._occupants
        entry_counts = self._entry_counts
        last_entry = self._last_entry
        last_movement = self._last_movement
        timelines = self._timelines if self._track_timelines else None
        histograms = self._histograms
        bucket_width = self._bucket
        anomalies = self._anomalies
        insort = bisect.insort
        journal = self._journal
        for record in records:
            if journal is not None:
                journal.note(record, enter)
            subject = record.subject
            location = record.location
            time = record.time
            pair = (subject, location)
            if record.kind is enter:
                previous = inside.get(subject)
                if previous is not None:
                    occupants[previous].discard(subject)
                inside[subject] = location
                inside_since[subject] = time
                members = occupants.get(location)
                if members is None:
                    occupants[location] = {subject}
                else:
                    members.add(subject)
                entry_counts[pair] = entry_counts.get(pair, 0) + 1
                last_entry[pair] = record
                if timelines is not None:
                    timeline = timelines.get(pair)
                    if timeline is None:
                        timelines[pair] = [time]
                    elif timeline[-1] <= time:
                        timeline.append(time)
                    else:  # out-of-order arrival: keep the timeline sorted
                        insort(timeline, time)
                histogram = histograms.get(location)
                if histogram is None:
                    histogram = histograms[location] = {}
                bucket = time // bucket_width
                histogram[bucket] = histogram.get(bucket, 0) + 1
            else:
                tracked = inside.get(subject)
                if tracked != location:
                    # The bogus exit is noted but does not evict the subject
                    # from wherever they are actually tracked (if anywhere).
                    if tracked is None:
                        note = "exit observed but the subject is not tracked inside any location"
                    else:
                        note = f"exit observed while the subject is tracked inside {tracked!r}"
                    anomalies.append(OccupancyAnomaly(time, subject, location, note))
                    last_movement[pair] = record
                    continue
                del inside[subject]
                inside_since.pop(subject, None)
                members = occupants.get(location)
                if members is not None:
                    members.discard(subject)
            last_movement[pair] = record

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    def begin(self) -> None:
        """Open a transaction: journal every key the fold touches from now on.

        The journal holds each touched key's prior value, recorded the first
        time the key is touched, so a transaction costs O(keys touched) —
        never O(projection size).  Transactions do not nest.
        """
        if self._journal is not None:
            raise StorageError("an occupancy transaction is already open")
        self._journal = _Journal(self)

    def commit(self) -> None:
        """Close the open transaction, keeping its changes (no-op when none is open)."""
        self._journal = None

    def rollback(self) -> None:
        """Undo every fold since :meth:`begin` and close the transaction.

        Journaled keys get their prior values back, keys the transaction
        created are deleted, and anomaly notes it added are dropped — the
        projection is then equal to its state at :meth:`begin`.
        """
        journal = self._journal
        if journal is None:
            raise StorageError("no occupancy transaction is open")
        self._journal = None
        journal.undo()

    @property
    def journal_size(self) -> int:
        """Entries the open transaction's journal holds (0 when none is open)."""
        journal = self._journal
        return 0 if journal is None else journal.size()

    def forget_subject(self, subject: str) -> None:
        """Drop every trace of *subject* from the projection.

        The partition-handoff path: when a subject migrates to another
        partition, the source must stop answering occupancy reads for it —
        a stale ``WHO IS IN`` row on the old owner would double-count the
        subject across the fabric.  Anomaly notes for the subject are
        dropped with it; per-location histograms are aggregate counters and
        deliberately keep the subject's past entries.  Refused while a
        transaction is open: the journal could not undo it.
        """
        self._refuse_in_transaction("forget a subject")
        location = self._inside.pop(subject, None)
        self._inside_since.pop(subject, None)
        if location is not None:
            members = self._occupants.get(location)
            if members is not None:
                members.discard(subject)
        for mapping in (
            self._entry_counts,
            self._last_entry,
            self._last_movement,
            self._timelines,
        ):
            for pair in [pair for pair in mapping if pair[0] == subject]:
                del mapping[pair]
        if any(anomaly.subject == subject for anomaly in self._anomalies):
            self._anomalies = [a for a in self._anomalies if a.subject != subject]

    def clear(self) -> None:
        """Reset the projection to the empty state (refused inside a transaction)."""
        self._refuse_in_transaction("clear the projection")
        self._inside: Dict[str, str] = {}
        self._inside_since: Dict[str, int] = {}
        self._occupants: Dict[str, Set[str]] = {}
        self._entry_counts: Dict[Tuple[str, str], int] = {}
        self._last_entry: Dict[Tuple[str, str], "MovementRecord"] = {}
        self._last_movement: Dict[Tuple[str, str], "MovementRecord"] = {}
        self._timelines: Dict[Tuple[str, str], List[int]] = {}
        self._histograms: Dict[str, Dict[int, int]] = {}
        self._anomalies: List[OccupancyAnomaly] = []

    def load(
        self,
        *,
        inside: Dict[str, Tuple[str, int]],
        entry_counts: Dict[Tuple[str, str], Tuple[int, Optional[int]]],
    ) -> None:
        """Prime the projection from persisted derived state.

        Used by the SQLite backend on reopen: *inside* maps subject →
        (location, since) and *entry_counts* maps (subject, location) →
        (count, last entry time).  Timelines and histograms are not primed —
        a timeline-less service answers windowed counts through the backend.
        """
        from repro.storage.movement_db import MovementKind, MovementRecord

        self.clear()
        for subject, (location, since) in inside.items():
            self._inside[subject] = location
            self._inside_since[subject] = since
            self._occupants.setdefault(location, set()).add(subject)
        self._entry_counts.update((pair, count) for pair, (count, _) in entry_counts.items())
        # The last-entry records come from the store's own rows, so each
        # distinct name is validated once (see MovementRecord._from_rows).
        entered = [
            (pair, last_time)
            for pair, (_, last_time) in entry_counts.items()
            if last_time is not None
        ]
        self._last_entry.update(
            zip(
                (pair for pair, _ in entered),
                MovementRecord._from_rows(
                    (last_time, subject, location, MovementKind.ENTER)
                    for (subject, location), last_time in entered
                ),
            )
        )

    def snapshot(self) -> tuple:
        """A full, independent copy of the projection state, as a tuple.

        Checkpoints persist it (``checkpoint_state``) and tests compare two
        of them for equality.  It costs O(projection size); transactions use
        the journal instead (:meth:`begin`).
        """
        return (
            dict(self._inside),
            dict(self._inside_since),
            {location: set(members) for location, members in self._occupants.items()},
            dict(self._entry_counts),
            dict(self._last_entry),
            dict(self._last_movement),
            {pair: list(times) for pair, times in self._timelines.items()},
            {location: dict(buckets) for location, buckets in self._histograms.items()},
            list(self._anomalies),
        )

    def _refuse_in_transaction(self, action: str) -> None:
        if self._journal is not None:
            raise StorageError(f"cannot {action} inside an open occupancy transaction")

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def current_location(self, subject: str) -> Optional[str]:
        """The location *subject* is tracked inside, or ``None`` — O(1)."""
        return self._inside.get(subject)

    def inside_since(self, subject: str) -> Optional[int]:
        """The entry time of the subject's current stay, or ``None`` — O(1)."""
        return self._inside_since.get(subject)

    def occupants(self, location: str) -> List[str]:
        """Sorted subjects currently inside *location* — O(k log k)."""
        return sorted(self._occupants.get(location, ()))

    def occupancy(self, location: str) -> int:
        """Number of subjects currently inside *location* — O(1)."""
        return len(self._occupants.get(location, ()))

    def subjects_inside(self) -> Dict[str, str]:
        """A copy of the current subject → location occupancy map."""
        return dict(self._inside)

    def entry_count(
        self, subject: str, location: str, window: Optional[TimeInterval] = None
    ) -> int:
        """Entries of *subject* into *location*, optionally within *window*.

        O(1) without a window; O(log n) with one (bisection over the pair's
        entry timeline).  Raises :class:`StorageError` for windowed queries
        when timelines are disabled — the owning backend answers those.
        """
        pair = (subject, location)
        if window is None:
            return self._entry_counts.get(pair, 0)
        if not self._track_timelines:
            raise StorageError(
                "windowed entry counts need timelines; this projection was "
                "built with track_timelines=False (the backend answers these)"
            )
        timeline = self._timelines.get(pair)
        if not timeline:
            return 0
        lo = bisect.bisect_left(timeline, window.start)
        if window.is_unbounded:
            return len(timeline) - lo
        return bisect.bisect_right(timeline, int(window.end)) - lo

    def entry_counts(self) -> Dict[Tuple[str, str], int]:
        """A copy of the per-(subject, location) entry counters."""
        return dict(self._entry_counts)

    def last_entry(self, subject: str, location: str) -> Optional["MovementRecord"]:
        """The most recent ENTER of *subject* into *location* — O(1)."""
        return self._last_entry.get((subject, location))

    def last_movement(self, subject: str, location: str) -> Optional["MovementRecord"]:
        """The most recent movement (either kind) of the pair — O(1)."""
        return self._last_movement.get((subject, location))

    def entry_histogram(self, location: str) -> Dict[int, int]:
        """Entries into *location* per time bucket (bucket index → count)."""
        return dict(self._histograms.get(location, ()))

    @property
    def histogram_bucket(self) -> int:
        """The width, in chronons, of the histogram buckets."""
        return self._bucket

    @property
    def anomalies(self) -> Tuple[OccupancyAnomaly, ...]:
        """Every inconsistent-exit note recorded so far."""
        return tuple(self._anomalies)
