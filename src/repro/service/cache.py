"""The decision cache: hot read traffic skips the pipeline entirely.

A production gate fleet re-checks the same (subject, location) pairs far
more often than the underlying state changes.  :class:`DecisionCache` keys
decisions by ``(subject, location, action, time bucket)`` and serves repeat
requests without re-running the decision pipeline — while staying
**parity-correct** through event-wise invalidation:

* the cache :meth:`connect`\\ s to the movement database's mutation
  notifications (:meth:`~repro.storage.movement_db.MovementDatabase.subscribe`)
  and, for every applied movement, evicts **only the keys of the locations
  that movement can affect** — the record's location (entry counters and
  occupancy) and, for an ENTER while the subject was tracked elsewhere, the
  previous location (its occupancy changed too).  Hot keys elsewhere in the
  building survive;
* administrative mutations (grant/revoke) invalidate through the
  :meth:`~repro.api.pdp.DecisionPoint` hook points (pair-wise) or
  :meth:`clear`.

The default ``bucket=1`` caches at chronon granularity — exact: a hit is a
request with the very same (subject, location, action, time).  A wider
bucket trades exactness for hit rate: every request inside a bucket is
served the decision computed for the first one, which is only safe when the
deployment's entry windows and budgets are aligned to bucket multiples.

Entries optionally carry a *payload*, opaque to the cache — the network
server stores the decision's wire forms there (each form encoded the first
time a connection asks for it, so a miss encodes only the reply it sends),
so cache hits skip response re-encoding too (the dominant cost once the
pipeline is skipped), on every negotiated framing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional, Sequence, Set, Tuple

from repro.service.errors import ServiceError
from repro.service.telemetry import trace_event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.decision import Decision
    from repro.core.requests import AccessRequest
    from repro.storage.movement_db import MovementDatabase, MovementNotice

__all__ = ["CachedDecision", "DecisionCache", "DEFAULT_ACTION", "FLIGHT_TIMEOUT"]

#: The one action the paper's model knows; the key slot exists so a
#: multi-action deployment (enter/exit/stay) can share one cache.
DEFAULT_ACTION = "enter"

#: How long a single-flight follower waits for the leader's store before
#: giving up and evaluating itself (a leader that died or whose store was
#: generation-dropped must not strand its followers).
FLIGHT_TIMEOUT = 2.0


class Flight:
    """One key's in-progress pipeline evaluation (see :meth:`DecisionCache.flight`).

    Exactly one caller per key holds ``leader=True`` at a time: it runs the
    pipeline and MUST call :meth:`done` afterwards (success or not).
    Followers :meth:`wait` for the leader, then re-check the cache — a hit
    reuses the leader's stored entry without re-running the pipeline; a
    miss (the leader's store raced an invalidation and was dropped) falls
    back to evaluating normally.
    """

    __slots__ = ("leader", "_event", "_release")

    def __init__(self, leader: bool, event: threading.Event, release) -> None:
        self.leader = leader
        self._event = event
        self._release = release

    def wait(self, timeout: Optional[float] = FLIGHT_TIMEOUT) -> bool:
        """Block (followers only) until the leader finished; True if it did."""
        return self._event.wait(timeout)

    def done(self) -> None:
        """Leader only: release the key and wake every follower."""
        if self.leader:
            self._release()
            self._event.set()


class CachedDecision(NamedTuple):
    """One cache entry: the decision plus an opaque owner-attached payload
    (the server stores pre-serialized wire fragments there).

    *generation* is the invalidation token captured before the decision was
    evaluated — the entry's **originating generation**.  The server's
    ``enforce`` op attests cache hits with it, so the audit log names the
    exact invalidation era a re-served decision was computed in.
    """

    decision: "Decision"
    payload: Optional[Any]
    generation: Optional[Tuple[int, int]] = None


class DecisionCache:
    """LRU decision cache with event-wise, location-scoped invalidation.

    Parameters
    ----------
    bucket:
        Width, in chronons, of the time bucket in the key.  The default of
        ``1`` is exact (see the module note on wider buckets).
    maxsize:
        Entry cap; least-recently-used entries are evicted beyond it.

    Thread safety: all operations take one internal lock — lookups run on
    the serving thread while invalidations arrive from ingest writer
    threads.
    """

    def __init__(self, *, bucket: int = 1, maxsize: int = 65536) -> None:
        if not isinstance(bucket, int) or isinstance(bucket, bool) or bucket < 1:
            raise ServiceError(f"cache bucket width must be a positive integer, got {bucket!r}")
        if not isinstance(maxsize, int) or isinstance(maxsize, bool) or maxsize < 1:
            raise ServiceError(f"cache maxsize must be a positive integer, got {maxsize!r}")
        self._bucket = bucket
        self._maxsize = maxsize
        self._entries: "OrderedDict[Tuple[str, str, str, int], CachedDecision]" = OrderedDict()
        self._by_location: Dict[str, Set[Tuple[str, str, str, int]]] = {}
        self._lock = threading.Lock()
        # Invalidation generations: bumped per location on every eviction
        # (and on every movement notice, cached keys or not) so an in-flight
        # store computed from pre-invalidation state can be detected and
        # dropped (see :meth:`generation` / the ``generation=`` store knob).
        self._generations: Dict[str, int] = {}
        self._epoch = 0
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._stale_stores = 0
        self._invalidated = 0
        self._evicted = 0
        # Single-flight registry: one Event per key currently being
        # evaluated, so N concurrent misses for one key run the pipeline
        # once (see :meth:`flight`).
        self._flights: Dict[Tuple[str, str, str, int], threading.Event] = {}
        self._flights_led = 0
        self._flights_joined = 0

    # ------------------------------------------------------------------ #
    # Core get/put
    # ------------------------------------------------------------------ #
    def _key(self, subject: str, location: str, time: int, action: str) -> Tuple[str, str, str, int]:
        return (subject, location, action, time // self._bucket)

    def get(
        self,
        subject: str,
        location: str,
        time: int,
        *,
        action: str = DEFAULT_ACTION,
        quiet: bool = False,
    ) -> Optional[CachedDecision]:
        """The cached entry for the key, or ``None`` (counts hit/miss).

        ``quiet`` skips the per-lookup trace event — batch callers doing
        thousands of lookups per request record one aggregate event
        instead of flooding the span tree (and the hot path) per item.
        """
        key = self._key(subject, location, time, action)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                # Tiered subclasses may promote a spilled entry back into
                # RAM here; a promotion counts as a hit (it skipped the
                # pipeline and, with persisted fragments, the re-encoding).
                entry = self._promote_locked(key)
                if entry is None:
                    self._misses += 1
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        # Trace events outside the lock: a thread-local read when no trace
        # is active, never contention on the cache's hot lock.
        if entry is None:
            if not quiet:
                trace_event("cache.miss", subject=subject, location=location)
            return None
        if not quiet:
            trace_event("cache.hit", subject=subject, location=location)
        return entry

    def generation(self, location: str) -> Tuple[int, int]:
        """An invalidation token for *location*, to be captured **before**
        evaluating a decision and handed back to :meth:`put`/:meth:`store`.

        Evaluation and invalidation race: a decision computed from
        pre-movement state must not be cached after the movement's eviction
        already ran (it would never be evicted again for that movement).
        The token is compared at store time; a moved generation drops the
        store instead.
        """
        with self._lock:
            return (self._epoch, self._generations.get(location, 0))

    def put(
        self,
        subject: str,
        location: str,
        time: int,
        decision: "Decision",
        *,
        payload: Optional[Dict[str, Any]] = None,
        action: str = DEFAULT_ACTION,
        generation: Optional[Tuple[int, int]] = None,
    ) -> bool:
        """Cache *decision* (and optionally its wire encoding) for the key.

        With a *generation* token from :meth:`generation`, the store is
        dropped (returning ``False``) when the location was invalidated
        since the token was captured — the decision may predate the
        mutation that evicted it.
        """
        key = self._key(subject, location, time, action)
        with self._lock:
            if generation is not None and generation != (
                self._epoch,
                self._generations.get(key[1], 0),
            ):
                self._stale_stores += 1
                return False
            entry = CachedDecision(decision, payload, generation)
            self._admit_locked(key, entry)
            self._stores += 1
            self._persist_locked(key, entry)
            return True

    def _admit_locked(self, key: Tuple[str, str, str, int], entry: CachedDecision) -> None:
        """Insert *entry* as most-recently-used, evicting the LRU at capacity."""
        if key not in self._entries and len(self._entries) >= self._maxsize:
            old_key, old_entry = self._entries.popitem(last=False)
            self._discard_index(old_key)
            self._evicted += 1
            self._demoted_locked(old_key, old_entry)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._by_location.setdefault(key[1], set()).add(key)

    def _discard_index(self, key: Tuple[str, str, str, int]) -> None:
        keys = self._by_location.get(key[1])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_location[key[1]]

    # ------------------------------------------------------------------ #
    # Tier hooks (no-ops here; the persistent tiered cache of
    # :mod:`repro.service.cache_store` overrides them).  All run under
    # ``self._lock``.
    # ------------------------------------------------------------------ #
    def _promote_locked(self, key: Tuple[str, str, str, int]) -> Optional[CachedDecision]:
        """A RAM miss: load the key from a lower tier, or ``None``."""
        return None

    def _persist_locked(self, key: Tuple[str, str, str, int], entry: CachedDecision) -> None:
        """A store was admitted: write it through to a lower tier."""

    def _demoted_locked(self, key: Tuple[str, str, str, int], entry: CachedDecision) -> None:
        """A still-valid entry was LRU-evicted from RAM (spill accounting)."""

    def _purge_location_locked(self, location: str) -> None:
        """The location was invalidated: tombstone its lower-tier rows."""

    def _purge_pair_locked(self, subject: str, location: str) -> None:
        """The pair was invalidated: tombstone its lower-tier rows."""

    def _purge_subject_locked(self, subject: str) -> None:
        """The subject was invalidated: tombstone its lower-tier rows."""

    def _purge_all_locked(self) -> None:
        """The cache was cleared: tombstone every lower-tier row."""

    def _extra_stats_locked(self) -> Dict[str, int]:
        """Tier counters merged into :attr:`stats` by subclasses."""
        return {}

    # ------------------------------------------------------------------ #
    # PDP hook points (duck-typed: the PDP never imports this module)
    # ------------------------------------------------------------------ #
    def lookup(self, request: "AccessRequest") -> Optional["Decision"]:
        """The cached decision for *request*, or ``None``."""
        entry = self.get(request.subject, request.location, request.time)
        return entry.decision if entry is not None else None

    def store(
        self,
        request: "AccessRequest",
        decision: "Decision",
        *,
        generation: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Cache the decision just computed for *request*.

        Pass the :meth:`generation` token captured before evaluation so a
        store racing an invalidation is dropped, not resurrected.  An
        existing entry for the key is left alone: it is still valid (an
        invalidation would have evicted it), decisions for an equal key are
        parity-equal, and it may carry a server-attached wire payload this
        payload-less store must not demote.
        """
        key = self._key(request.subject, request.location, request.time, DEFAULT_ACTION)
        with self._lock:
            if key in self._entries:
                return
        self.put(
            request.subject, request.location, request.time, decision, generation=generation
        )

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #
    def invalidate_location(self, location: str) -> int:
        """Evict every key of *location*; returns how many were evicted."""
        with self._lock:
            return self._invalidate_location_locked(location)

    def _invalidate_location_locked(self, location: str) -> int:
        # Bump the generation even when nothing is cached: an in-flight
        # evaluation for this location may be about to store.
        self._generations[location] = self._generations.get(location, 0) + 1
        self._purge_location_locked(location)
        keys = self._by_location.pop(location, None)
        if not keys:
            return 0
        for key in keys:
            self._entries.pop(key, None)
        self._invalidated += len(keys)
        return len(keys)

    def invalidate_pair(self, subject: str, location: str) -> int:
        """Evict the keys of one (subject, location) pair (grant/revoke hook)."""
        with self._lock:
            self._generations[location] = self._generations.get(location, 0) + 1
            self._purge_pair_locked(subject, location)
            keys = self._by_location.get(location)
            if not keys:
                return 0
            doomed = [key for key in keys if key[0] == subject]
            for key in doomed:
                self._entries.pop(key, None)
                keys.discard(key)
            if not keys:
                del self._by_location[location]
            self._invalidated += len(doomed)
            return len(doomed)

    def invalidate_subject(self, subject: str) -> int:
        """Evict every key of one subject, whatever the location.

        The fabric's migration hook: after ``forget_subjects`` hands a
        subject to another partition, no decision about it may be re-served
        here — including spilled rows at locations the subject never
        physically moved through (cached denials).  Bumps the generations of
        the affected locations so racing stores drop, exactly like the
        location-wise paths.
        """
        with self._lock:
            doomed = [key for key in self._entries if key[0] == subject]
            for location in {key[1] for key in doomed}:
                self._generations[location] = self._generations.get(location, 0) + 1
            for key in doomed:
                self._entries.pop(key, None)
                self._discard_index(key)
            self._invalidated += len(doomed)
            self._purge_subject_locked(subject)
            return len(doomed)

    def clear(self) -> int:
        """Evict everything (coarse invalidation for bulk admin changes)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._by_location.clear()
            self._generations.clear()
            self._epoch += 1
            self._invalidated += count
            self._purge_all_locked()
            return count

    # ------------------------------------------------------------------ #
    # Event-wise invalidation from the movement store
    # ------------------------------------------------------------------ #
    def on_movements(self, notices: Sequence["MovementNotice"]) -> int:
        """Movement-mutation listener: evict only the locations a batch touches."""
        affected: Set[str] = set()
        for notice in notices:
            affected.update(notice.affected_locations)
        evicted = 0
        with self._lock:
            for location in affected:
                evicted += self._invalidate_location_locked(location)
        return evicted

    def connect(self, movement_db: "MovementDatabase"):
        """Subscribe to *movement_db*'s mutations; returns the unsubscriber."""
        return movement_db.subscribe(self.on_movements)

    # ------------------------------------------------------------------ #
    # Single-flight: one pipeline evaluation per concurrent-miss key
    # ------------------------------------------------------------------ #
    def flight(
        self, subject: str, location: str, time: int, *, action: str = DEFAULT_ACTION
    ) -> Flight:
        """Claim (or join) the in-progress evaluation for one key.

        The cold-cache thundering-herd fix: N concurrent identical misses —
        the first seconds after a restart, exactly when the pipeline is the
        bottleneck — elect one *leader* that runs the pipeline while the
        followers :meth:`~Flight.wait` and reuse the stored entry.  The
        caller that gets ``leader=True`` **must** call :meth:`~Flight.done`
        when its store attempt finished, stored or dropped.
        """
        key = self._key(subject, location, time, action)
        with self._lock:
            event = self._flights.get(key)
            if event is None:
                event = threading.Event()
                self._flights[key] = event
                self._flights_led += 1

                def release() -> None:
                    with self._lock:
                        self._flights.pop(key, None)

                trace_event("cache.flight", role="leader", subject=subject, location=location)
                return Flight(True, event, release)
            self._flights_joined += 1
        trace_event("cache.flight", role="follower", subject=subject, location=location)
        return Flight(False, event, lambda: None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def bucket(self) -> int:
        """The time-bucket width (chronons) of the cache key."""
        return self._bucket

    @property
    def maxsize(self) -> int:
        """The entry cap."""
        return self._maxsize

    @property
    def stats(self) -> Dict[str, int]:
        """Counters: hits, misses, stores, stale_stores, invalidated,
        evicted, flights led/joined, size — plus the tier counters (spilled,
        disk_hits, promoted, readmitted, tombstoned, disk_size) on the
        persistent tiered cache."""
        with self._lock:
            counters = {
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "stale_stores": self._stale_stores,
                "invalidated": self._invalidated,
                "evicted": self._evicted,
                "flights_led": self._flights_led,
                "flights_joined": self._flights_joined,
                "size": len(self._entries),
            }
            counters.update(self._extra_stats_locked())
            return counters

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
