"""The durable decision-cache tier: disk spill + warm restart.

PRs 4–7 made the cached decide path the fleet's hot path, but the
:class:`~repro.service.cache.DecisionCache` is RAM-only: every server
restart, reshard or replica recovery starts cold exactly when the fleet is
most fragile, and the hot set is bounded by memory.  This module adds the
persistence layer underneath it:

* :class:`CacheStore` — a SQLite **sidecar file** holding cache entries
  keyed ``(subject, location, action, time_bucket)`` with their originating
  generation, the movement-log *position* they were valid at, and the
  **pre-serialized wire fragments verbatim** (JSON eagerly, binary when it
  was ever computed) — a disk hit skips the pipeline *and* re-encoding;
* :class:`TieredDecisionCache` — a drop-in ``DecisionCache`` whose LRU
  evictions *demote* (the row is already on disk via write-through, so the
  hot set is no longer bounded by RAM), whose RAM misses *promote* spilled
  rows back, and whose every invalidation — movement notices, admin
  mutations, bus-driven evictions through the
  :class:`~repro.service.bus.CoherentDecisionCache` wrapper, fabric
  ``forget_subjects`` — synchronously **tombstones** the disk rows too.
  The resulting invariant carries the whole design: *a row that is still
  on disk was never invalidated*, so promotion needs no re-validation;
* the **warm-restart path** (:meth:`TieredDecisionCache.warm`) — on
  startup, re-admit persisted entries whose position survives a
  ``pickup()``-style validation against the movement store's current state
  (:meth:`~repro.storage.movement_db.MovementDatabase.touch_marks_since`),
  dropping anything a foreign write invalidated while the server was down.
  Configuration drift (edited authorizations, changed capacities or
  layout) is caught by an engine **fingerprint** stamped into the sidecar:
  a mismatch purges rather than risks a stale decision.

Generation-token fencing (PR 4/5) stays the correctness backbone: a store
racing an invalidation is dropped *before* the write-through, so the disk
tier can never resurrect what the RAM tier refused.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.core.serialization import authorization_to_dict
from repro.service import wire
from repro.service.cache import CachedDecision, DecisionCache
from repro.service.errors import ServiceError
from repro.service.protocol import decision_from_dict, decision_to_dict, elide_decision

__all__ = ["CacheStore", "TieredDecisionCache", "WireFragments", "engine_fingerprint"]

#: Cache-key tuple: (subject, location, action, time_bucket).
Key = Tuple[str, str, str, int]


def _dumps(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


class WireFragments:
    """One cached decision's pre-serialized wire forms, JSON and binary.

    The JSON pair is computed eagerly at prime time.  The binary pair is
    filled from the same encoded dict when a binary connection primes the
    entry (``binary=True``), or else on first use by a binary connection,
    so JSON-only deployments never pay the pure-Python encode.  The fill is
    idempotent — two racing connections compute identical bytes — so no
    lock is needed.

    This is the payload the server attaches to cache entries *and* the
    value the persistent tier stores verbatim: a promoted or re-admitted
    entry serves the exact bytes the original evaluation produced.
    """

    __slots__ = ("json_full", "json_elided", "bin_full", "bin_elided")

    def __init__(self, encoded: Dict[str, Any], *, binary: bool = False) -> None:
        self.json_full = _dumps(encoded)
        self.json_elided = _dumps(elide_decision(encoded))
        self.bin_full: Optional[bytes] = None
        self.bin_elided: Optional[bytes] = None
        if binary:
            self._fill_binary(encoded)

    @classmethod
    def from_stored(
        cls,
        json_full: str,
        json_elided: str,
        bin_full: Optional[bytes],
        bin_elided: Optional[bytes],
    ) -> "WireFragments":
        """Rehydrate fragments exactly as persisted — no re-encoding."""
        fragments = cls.__new__(cls)
        fragments.json_full = json_full
        fragments.json_elided = json_elided
        fragments.bin_full = bin_full
        fragments.bin_elided = bin_elided
        return fragments

    def binary(self, decision, include_trace: bool) -> bytes:
        fragment = self.bin_full if include_trace else self.bin_elided
        if fragment is None:
            self._fill_binary(decision_to_dict(decision))
            fragment = self.bin_full if include_trace else self.bin_elided
        return fragment

    def _fill_binary(self, encoded: Dict[str, Any]) -> None:
        self.bin_full = wire.encode_value(encoded)
        self.bin_elided = wire.encode_value(elide_decision(encoded))


def engine_fingerprint(engine) -> str:
    """A digest of the engine configuration a cached decision depends on.

    Covers the authorization list, the capacity limits, the primitive
    location set and the derivation rules — the boot-time inputs that can
    change *between* runs without leaving a trace in the movement log.  A
    persisted cache whose stamp differs is purged wholesale on
    :meth:`TieredDecisionCache.warm` rather than re-validated row by row.
    (Custom pipeline stages are still not fingerprinted — deployments
    changing those should ``repro cache purge``.)
    """
    # Semantic identity only: auto-generated ids, creation stamps and
    # derivation back-references differ between identically configured
    # engines, and a restart must not read as a config change.
    _instance_keys = ("auth_id", "created_at", "derived_from", "rule_id")
    auths = sorted(
        _dumps(
            {
                key: value
                for key, value in authorization_to_dict(authorization).items()
                if key not in _instance_keys
            }
        )
        for authorization in engine.authorization_db.all()
    )
    capacities = getattr(getattr(engine, "monitor", None), "_capacity_limits", {}) or {}
    hierarchy = getattr(engine, "hierarchy", None)
    names = getattr(hierarchy, "primitive_names", None)
    locations = sorted(names()) if callable(names) else []
    # Rules canonicalize to (valid_from, base id, operator-tuple repr):
    # every operator repr is semantic (WHENEVER, UNION([10, 30]), a custom
    # operator's label), while rule_id/description are instance trivia that
    # must not read as a config change.  A rule edit therefore flips the
    # fingerprint and invalidates warm restarts.
    rules = sorted(
        _dumps(
            {
                "valid_from": int(rule.valid_from),
                "base": str(rule.base_id),
                "operators": str(rule.operators),
            }
        )
        for rule in getattr(engine, "rules", ()) or ()
    )
    canonical = _dumps(
        {
            "auths": auths,
            "capacities": {str(k): int(v) for k, v in sorted(capacities.items())},
            "locations": [str(name) for name in locations],
            "rules": rules,
        }
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CacheStore:
    """The SQLite sidecar file behind :class:`TieredDecisionCache`.

    One table of entries (primary-keyed by the cache key) plus a meta
    table carrying the format version, the key's time-bucket width and the
    engine fingerprint.  A sidecar opened with a different format version
    or bucket width is purged — never reinterpreted.

    The store is an **availability optimisation, not a source of truth**:
    rows are written through synchronously (WAL, ``synchronous=NORMAL``) so
    a lost *tombstone* cannot happen while the process lives, and a crash
    that loses recent *puts* merely costs warm coverage.
    """

    #: v2 added ``last_access`` — the monotonic access stamp the spill trim
    #: orders by (v1 trimmed by ``rowid``, i.e. insertion order, which
    #: evicted just-promoted hot rows while stale cold ones survived).
    FORMAT_VERSION = 2

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS cache_meta (
            key   TEXT PRIMARY KEY,
            value TEXT NOT NULL
        );
        CREATE TABLE IF NOT EXISTS cache_entries (
            subject     TEXT NOT NULL,
            location    TEXT NOT NULL,
            action      TEXT NOT NULL,
            bucket      INTEGER NOT NULL,
            gen_epoch   INTEGER,
            gen_counter INTEGER,
            position    INTEGER NOT NULL,
            json_full   TEXT NOT NULL,
            json_elided TEXT NOT NULL,
            bin_full    BLOB,
            bin_elided  BLOB,
            last_access INTEGER NOT NULL DEFAULT 0,
            PRIMARY KEY (subject, location, action, bucket)
        );
        CREATE INDEX IF NOT EXISTS idx_cache_location ON cache_entries (location);
        CREATE INDEX IF NOT EXISTS idx_cache_subject ON cache_entries (subject);
    """

    def __init__(self, path: str, *, bucket: int = 1) -> None:
        if not isinstance(bucket, int) or isinstance(bucket, bool) or bucket < 1:
            raise ServiceError(f"cache bucket width must be a positive integer, got {bucket!r}")
        self._path = path
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.execute("PRAGMA busy_timeout=5000")
        self._connection.executescript(self._SCHEMA)
        columns = {
            row[1] for row in self._connection.execute("PRAGMA table_info(cache_entries)")
        }
        if "last_access" not in columns:
            # A v1 sidecar: add the column so the purge below runs against
            # a consistent schema (the rows themselves are dropped anyway).
            self._connection.execute(
                "ALTER TABLE cache_entries ADD COLUMN last_access INTEGER NOT NULL DEFAULT 0"
            )
        self._connection.execute(
            "CREATE INDEX IF NOT EXISTS idx_cache_access ON cache_entries (last_access)"
        )
        self._connection.commit()
        stored_version = self.get_meta("format_version")
        stored_bucket = self.get_meta("bucket")
        if (stored_version is not None and int(stored_version) != self.FORMAT_VERSION) or (
            stored_bucket is not None and int(stored_bucket) != bucket
        ):
            # A foreign format or a different bucket width: the persisted
            # keys mean something else — entries must never resurrect
            # across bucket geometries.
            self.delete_all()
        self.set_meta("format_version", str(self.FORMAT_VERSION))
        self.set_meta("bucket", str(bucket))
        # The access clock is a plain in-store counter, seeded past every
        # persisted stamp — deterministic (no wall clock) and monotonic
        # across restarts.
        (top,) = self._connection.execute(
            "SELECT MAX(last_access) FROM cache_entries"
        ).fetchone()
        self._access_clock = int(top) if top is not None else 0

    @property
    def path(self) -> str:
        """The sidecar file path."""
        return self._path

    @classmethod
    def peek(cls, path: str) -> Dict[str, Any]:
        """Inspect a sidecar file without opening (or mutating) it.

        The constructor purges on a bucket/format mismatch — correct for a
        serving cache, wrong for an operator who just wants to look.  This
        reads the meta and the row count with a throwaway read connection;
        a file that is not a cache sidecar yields an empty report.
        """
        connection = sqlite3.connect(path)
        try:
            try:
                meta = {
                    str(key): str(value)
                    for key, value in connection.execute(
                        "SELECT key, value FROM cache_meta"
                    )
                }
                (count,) = connection.execute(
                    "SELECT COUNT(*) FROM cache_entries"
                ).fetchone()
                (min_position,) = connection.execute(
                    "SELECT MIN(position) FROM cache_entries"
                ).fetchone()
                (max_position,) = connection.execute(
                    "SELECT MAX(position) FROM cache_entries"
                ).fetchone()
            except sqlite3.OperationalError:
                return {}
        finally:
            connection.close()
        return {
            "meta": meta,
            "entries": int(count),
            "min_position": int(min_position) if min_position is not None else None,
            "max_position": int(max_position) if max_position is not None else None,
        }

    # -- meta ------------------------------------------------------------ #
    def get_meta(self, key: str) -> Optional[str]:
        with self._lock:
            row = self._connection.execute(
                "SELECT value FROM cache_meta WHERE key = ?", (key,)
            ).fetchone()
        return str(row[0]) if row is not None else None

    def set_meta(self, key: str, value: str) -> None:
        with self._lock:
            self._connection.execute(
                "INSERT INTO cache_meta (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, value),
            )
            self._connection.commit()

    # -- entries --------------------------------------------------------- #
    def put(
        self,
        key: Key,
        *,
        position: int,
        generation: Optional[Tuple[int, int]],
        json_full: str,
        json_elided: str,
        bin_full: Optional[bytes] = None,
        bin_elided: Optional[bytes] = None,
    ) -> None:
        subject, location, action, bucket = key
        gen_epoch, gen_counter = generation if generation is not None else (None, None)
        with self._lock:
            self._access_clock += 1
            self._connection.execute(
                "INSERT OR REPLACE INTO cache_entries"
                " (subject, location, action, bucket, gen_epoch, gen_counter,"
                "  position, json_full, json_elided, bin_full, bin_elided, last_access)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    subject,
                    location,
                    action,
                    bucket,
                    gen_epoch,
                    gen_counter,
                    position,
                    json_full,
                    json_elided,
                    bin_full,
                    bin_elided,
                    self._access_clock,
                ),
            )
            self._connection.commit()

    def get(self, key: Key) -> Optional[Tuple]:
        """``(position, gen_epoch, gen_counter, json_full, json_elided,
        bin_full, bin_elided)`` for *key*, or ``None``.

        A hit refreshes the row's access stamp — reads keep rows alive
        under the LRU spill trim.
        """
        subject, location, action, bucket = key
        with self._lock:
            row = self._connection.execute(
                "SELECT position, gen_epoch, gen_counter, json_full, json_elided,"
                " bin_full, bin_elided FROM cache_entries"
                " WHERE subject = ? AND location = ? AND action = ? AND bucket = ?",
                (subject, location, action, bucket),
            ).fetchone()
            if row is not None:
                self._touch_locked(subject, location, action, bucket)
                self._connection.commit()
            return row

    def touch(self, key: Key) -> None:
        """Refresh *key*'s access stamp without reading it (demotions: an
        entry falling out of RAM was, until now, the hot tier's — it must
        not be the disk trim's first victim)."""
        subject, location, action, bucket = key
        with self._lock:
            self._touch_locked(subject, location, action, bucket)
            self._connection.commit()

    def _touch_locked(self, subject: str, location: str, action: str, bucket: int) -> None:
        self._access_clock += 1
        self._connection.execute(
            "UPDATE cache_entries SET last_access = ?"
            " WHERE subject = ? AND location = ? AND action = ? AND bucket = ?",
            (self._access_clock, subject, location, action, bucket),
        )

    def fill_binary(self, key: Key, bin_full: bytes, bin_elided: bytes) -> None:
        """Backfill the lazily computed binary fragments onto the row."""
        subject, location, action, bucket = key
        with self._lock:
            self._connection.execute(
                "UPDATE cache_entries SET bin_full = ?, bin_elided = ?"
                " WHERE subject = ? AND location = ? AND action = ? AND bucket = ?"
                " AND bin_full IS NULL",
                (bin_full, bin_elided, subject, location, action, bucket),
            )
            self._connection.commit()

    def _delete(self, sql: str, params: Tuple) -> int:
        with self._lock:
            cursor = self._connection.execute(sql, params)
            self._connection.commit()
            return cursor.rowcount

    def delete_key(self, key: Key) -> int:
        return self._delete(
            "DELETE FROM cache_entries WHERE subject = ? AND location = ?"
            " AND action = ? AND bucket = ?",
            key,
        )

    def delete_location(self, location: str) -> int:
        return self._delete("DELETE FROM cache_entries WHERE location = ?", (location,))

    def delete_pair(self, subject: str, location: str) -> int:
        return self._delete(
            "DELETE FROM cache_entries WHERE subject = ? AND location = ?",
            (subject, location),
        )

    def delete_subject(self, subject: str) -> int:
        return self._delete("DELETE FROM cache_entries WHERE subject = ?", (subject,))

    def delete_all(self) -> int:
        return self._delete("DELETE FROM cache_entries", ())

    def trim(self, max_rows: int) -> int:
        """Drop the least-recently-used rows beyond *max_rows* (the spill
        cap).  Recency is the ``last_access`` stamp — refreshed by reads,
        writes and demotions — with ``rowid`` (insertion order) breaking
        ties, so a just-promoted row outlives rows nothing has read."""
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM cache_entries"
            ).fetchone()
            excess = int(count) - max_rows
            if excess <= 0:
                return 0
            self._connection.execute(
                "DELETE FROM cache_entries WHERE rowid IN"
                " (SELECT rowid FROM cache_entries ORDER BY last_access, rowid LIMIT ?)",
                (excess,),
            )
            self._connection.commit()
            return excess

    def count(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM cache_entries"
            ).fetchone()
        return int(count)

    def min_position(self) -> Optional[int]:
        with self._lock:
            (position,) = self._connection.execute(
                "SELECT MIN(position) FROM cache_entries"
            ).fetchone()
        return int(position) if position is not None else None

    def rows(self, *, newest_first: bool = True) -> List[Tuple]:
        """Every row: ``(subject, location, action, bucket, position,
        gen_epoch, gen_counter, json_full, json_elided, bin_full,
        bin_elided)`` — in write order (newest first by default)."""
        order = "DESC" if newest_first else "ASC"
        with self._lock:
            return self._connection.execute(
                "SELECT subject, location, action, bucket, position, gen_epoch,"
                " gen_counter, json_full, json_elided, bin_full, bin_elided"
                f" FROM cache_entries ORDER BY rowid {order}"
            ).fetchall()

    def close(self) -> None:
        with self._lock:
            self._connection.close()


class TieredDecisionCache(DecisionCache):
    """A :class:`~repro.service.cache.DecisionCache` with a disk tier.

    Parameters
    ----------
    path:
        The sidecar SQLite file (created on first use).
    bucket, maxsize:
        As on the base class; *maxsize* bounds only the RAM tier.
    spill:
        Optional cap on **disk** rows; beyond it the least-recently-used
        rows are trimmed (see :meth:`CacheStore.trim`).  ``None``
        (default) leaves the disk tier unbounded.

    Tiering is write-through: every admitted store lands on disk in the
    same call (stamped with the movement store's
    :attr:`~repro.storage.movement_db.MovementDatabase.applied_position`),
    so LRU eviction is a pure *demotion* — the evicted-but-valid entry is
    already durable and promotes back on the next hit.  Every invalidation
    path tombstones the disk rows synchronously; see the module docstring
    for why that makes promotion validation-free.
    """

    def __init__(
        self,
        path: str,
        *,
        bucket: int = 1,
        maxsize: int = 65536,
        spill: Optional[int] = None,
    ) -> None:
        super().__init__(bucket=bucket, maxsize=maxsize)
        if spill is not None and (
            not isinstance(spill, int) or isinstance(spill, bool) or spill < 1
        ):
            raise ServiceError(f"cache spill cap must be a positive integer, got {spill!r}")
        self._store = CacheStore(path, bucket=bucket)
        self._spill_limit = spill
        self._closed = False
        self._unsubscribe = None
        self._position_source = None
        self._spilled = 0
        self._disk_hits = 0
        self._promoted = 0
        self._readmitted = 0
        self._tombstoned = 0
        self._trimmed = 0

    @property
    def sidecar(self) -> CacheStore:
        """The sidecar store (inspection / CLI surface).

        Named ``sidecar`` rather than ``store`` because ``store()`` is the
        base cache's write entry point and must stay callable.
        """
        return self._store

    def connect(self, movement_db):
        """Subscribe for invalidation AND adopt *movement_db* as the
        position source stamped onto persisted rows."""
        self._position_source = movement_db
        self._unsubscribe = super().connect(movement_db)
        return self._unsubscribe

    def close(self) -> None:
        """Close the sidecar file and drop the movement subscription.

        The RAM tier stays usable; the disk tier degrades to a no-op so a
        late notification (a subscriber the owner forgot to detach) evicts
        RAM without touching the closed connection.
        """
        self._closed = True
        if self._unsubscribe is not None:
            try:
                self._unsubscribe()
            finally:
                self._unsubscribe = None
        self._store.close()

    # -- tier hooks (all called under the cache lock) -------------------- #
    def _current_position(self) -> int:
        source = self._position_source
        if source is None:
            return 0
        return int(source.applied_position)

    def _fragments_for(self, entry: CachedDecision) -> WireFragments:
        payload = entry.payload
        if isinstance(payload, WireFragments):
            return payload
        # Engine-attached stores (the PDP's payload-less ``store()``) still
        # persist servable fragments: the durability write is where the
        # one-time encode happens.
        return WireFragments(decision_to_dict(entry.decision))

    def _persist_locked(self, key: Key, entry: CachedDecision) -> None:
        if self._closed:
            return
        fragments = self._fragments_for(entry)
        self._store.put(
            key,
            position=self._current_position(),
            generation=entry.generation,
            json_full=fragments.json_full,
            json_elided=fragments.json_elided,
            bin_full=fragments.bin_full,
            bin_elided=fragments.bin_elided,
        )
        if self._spill_limit is not None:
            self._trimmed += self._store.trim(max(self._spill_limit, self._maxsize))

    def _promote_locked(self, key: Key) -> Optional[CachedDecision]:
        if self._closed:
            return None
        row = self._store.get(key)
        if row is None:
            return None
        position, gen_epoch, gen_counter, json_full, json_elided, bin_full, bin_elided = row
        try:
            decision = decision_from_dict(json.loads(json_full))
        except Exception:  # noqa: BLE001 - a corrupt row is a miss, not a crash
            self._store.delete_key(key)
            return None
        fragments = WireFragments.from_stored(json_full, json_elided, bin_full, bin_elided)
        # The tombstone invariant: a surviving row was never invalidated,
        # so the location's *current* generation still covers it (within a
        # process the stored and current tokens are equal; across restarts
        # the stored token names a dead epoch and is re-based here).
        generation = (self._epoch, self._generations.get(key[1], 0))
        entry = CachedDecision(decision, fragments, generation)
        self._admit_locked(key, entry)
        self._disk_hits += 1
        self._promoted += 1
        return entry

    def _demoted_locked(self, key: Key, entry: CachedDecision) -> None:
        # Write-through already persisted the row; eviction is a demotion.
        # Opportunistically backfill binary fragments a binary connection
        # computed since the row was written.
        if self._closed:
            return
        payload = entry.payload
        if (
            isinstance(payload, WireFragments)
            and payload.bin_full is not None
            and payload.bin_elided is not None
        ):
            self._store.fill_binary(key, payload.bin_full, payload.bin_elided)
        # Until this instant the entry lived in the hot tier — refresh its
        # stamp so the LRU trim ranks it by *that* recency, not its
        # original write.
        self._store.touch(key)
        self._spilled += 1

    def _purge_location_locked(self, location: str) -> None:
        if self._closed:
            return
        self._tombstoned += self._store.delete_location(location)

    def _purge_pair_locked(self, subject: str, location: str) -> None:
        if self._closed:
            return
        self._tombstoned += self._store.delete_pair(subject, location)

    def _purge_subject_locked(self, subject: str) -> None:
        if self._closed:
            return
        self._tombstoned += self._store.delete_subject(subject)

    def _purge_all_locked(self) -> None:
        if self._closed:
            return
        self._tombstoned += self._store.delete_all()

    def _extra_stats_locked(self) -> Dict[str, int]:
        return {
            "spilled": self._spilled,
            "disk_hits": self._disk_hits,
            "promoted": self._promoted,
            "readmitted": self._readmitted,
            "tombstoned": self._tombstoned,
            "spill_trimmed": self._trimmed,
            "disk_size": 0 if self._closed else self._store.count(),
        }

    # -- warm restart ---------------------------------------------------- #
    def warm(self, movement_db=None, *, fingerprint: Optional[str] = None) -> Dict[str, int]:
        """Validate the persisted rows against the movement store and
        re-admit the survivors — the restart-latency-cliff killer.

        *movement_db* defaults to the :meth:`connect`-ed store.  With a
        *fingerprint* (see :func:`engine_fingerprint`), a stamp mismatch
        purges everything — the engine configuration changed while the
        cache was cold.  Rows are then validated per entry: each must have
        been stored at a position the log still reaches, with **no
        movement past that position that could touch its location**
        (:meth:`~repro.storage.movement_db.MovementDatabase.touch_marks_since`).
        Survivors are re-admitted newest-first up to ``maxsize``; the rest
        stay on disk as the spill tier.  Returns a report of counts.
        """
        report = {"examined": 0, "readmitted": 0, "dropped": 0, "retained_on_disk": 0}
        with self._lock:
            stored_print = self._store.get_meta("fingerprint")
            if fingerprint is not None:
                self._store.set_meta("fingerprint", fingerprint)
                if stored_print is not None and stored_print != fingerprint:
                    report["dropped"] = self._store.delete_all()
                    self._tombstoned += report["dropped"]
                    return report
            if movement_db is None:
                movement_db = self._position_source
            rows = self._store.rows(newest_first=True)
            report["examined"] = len(rows)
            if not rows:
                return report
            if movement_db is None:
                # Nothing to validate against: a stale row would be served
                # forever, so the only safe warm is a purge.
                report["dropped"] = self._store.delete_all()
                self._tombstoned += report["dropped"]
                return report
            high_water = int(movement_db.high_water)
            floor = min(int(row[4]) for row in rows)
            marks = movement_db.touch_marks_since(min(floor, high_water))
            survivors: List[Tuple[Key, int, str, str, Optional[bytes], Optional[bytes]]] = []
            for subject, location, action, bucket, position, _, _, jf, je, bf, be in rows:
                key = (subject, location, action, bucket)
                position = int(position)
                valid = (
                    position <= high_water
                    and marks is not None
                    and marks.get(location, 0) <= position
                )
                if not valid:
                    self._store.delete_key(key)
                    self._tombstoned += 1
                    report["dropped"] += 1
                    continue
                survivors.append((key, position, jf, je, bf, be))
            admit = survivors[: self._maxsize]
            # Oldest of the chosen first, so RAM recency mirrors disk
            # recency (the newest row ends up most-recently-used).
            for key, _, jf, je, bf, be in reversed(admit):
                try:
                    decision = decision_from_dict(json.loads(jf))
                except Exception:  # noqa: BLE001 - a corrupt row must not kill boot
                    self._store.delete_key(key)
                    self._tombstoned += 1
                    report["dropped"] += 1
                    continue
                fragments = WireFragments.from_stored(jf, je, bf, be)
                generation = (self._epoch, self._generations.get(key[1], 0))
                self._admit_locked(key, CachedDecision(decision, fragments, generation))
                self._readmitted += 1
                report["readmitted"] += 1
            report["retained_on_disk"] = len(survivors) - report["readmitted"]
            return report
