"""Storage layer: the three databases of the Figure 3 architecture.

* :mod:`repro.storage.authorization_db` — the Authorization Database,
* :mod:`repro.storage.movement_db` — the Location & Movements Database,
* :mod:`repro.storage.profile_db` — the User Profile Database,

each with an in-memory and an SQLite backend behind a shared interface, plus
the indexes used for time-based authorization lookups.

Architecture note — the occupancy read model
--------------------------------------------

Every authorization decision reads the movement database (Definition 7);
those reads are served by an **event-indexed projection**, not by replaying
history:

* :class:`~repro.storage.occupancy.OccupancyService` is the single
  incremental projection both movement backends fold every record into —
  the current occupancy map, per-(subject, location) entry counters, entry
  timelines, last entry/movement per pair, and per-location time-bucketed
  entry histograms.  The raw movement log stays the source of truth.
* The in-memory backend answers every occupancy read from the projection:
  O(1) ``current_location`` / ``occupancy`` / unwindowed ``entry_count``,
  O(log n) windowed ``entry_count`` (timeline bisection).
* The SQLite backend mirrors the projection into derived tables
  (``occ_current``, ``occ_entry_counts``) **in the same transaction** as
  each insert, primes the in-process projection from them on reopen
  (O(#pairs), no O(n) replay), and answers windowed entry counts with an
  SQL ``COUNT(*)`` over a partial index on ENTER rows.
  ``record_many()`` batches inserts with ``executemany`` and one commit.
* :class:`~repro.storage.indexes.IntervalIndex` is an augmented interval
  tree (AVL + max-end) giving the authorization database O(log n + k)
  stabbing and overlap queries over entry durations; removals tombstone
  in O(log n) and compact amortized, so revocation churn never rebuilds
  per call.

Scaling the projection — checkpoints, streaming
-----------------------------------------------

Two knobs turn the single-projection read model into the ingest-scale
subsystem of a production deployment:

* **Checkpoint/compaction**:
  :meth:`~repro.storage.movement_db.MovementDatabase.checkpoint` persists
  the projection snapshot (SQLite: ``occ_checkpoint`` tables; memory: a
  pickle-free tuple) and archives the covered log prefix, so ``history()``
  replays and SQLite crash recovery cost O(events since the checkpoint)
  instead of O(all time).  ``history(include_archived=True)`` and windowed
  entry counts still see the full log (the archive keeps the same partial
  indexes).  The CLI exposes this as ``repro checkpoint --db ...``.
* **Streaming ingest** (:mod:`repro.storage.ingest`):
  :class:`~repro.storage.ingest.MovementIngestor` is a bounded-queue
  group-commit writer — trackers ``submit()`` at line rate, batches flush
  by size or max latency into ``record_many``/``observe_many``, and a
  rejected batch is dropped whole (all-or-nothing sinks) and surfaced on
  ``flush()``/``close()``.  ``Ltam.observe_stream()`` wires it to the PEP.

Which PDP stage consumes which index:

=============================  ==============================================
Pipeline stage                 Index consulted
=============================  ==============================================
``known-location``             hierarchy primitive set (hash)
``candidate-lookup``           authorization hash index on (subject, location)
``entry-window``               candidates' entry durations (``IntervalIndex``
                               backs time-valid lookups / ``enterable_at``)
``capacity``                   ``OccupancyService`` occupancy map (O(1))
``entry-budget``               ``OccupancyService`` entry counters/timelines
=============================  ==============================================
"""

from repro.storage.authorization_db import (
    AuthorizationDatabase,
    InMemoryAuthorizationDatabase,
    SqliteAuthorizationDatabase,
)
from repro.storage.indexes import IntervalIndex
from repro.storage.ingest import BatchFailure, CheckpointPolicy, MovementIngestor
from repro.storage.movement_db import (
    Checkpoint,
    InMemoryMovementDatabase,
    MovementDatabase,
    MovementKind,
    MovementNotice,
    MovementRecord,
    SqliteMovementDatabase,
)
from repro.storage.occupancy import OccupancyAnomaly, OccupancyService
from repro.storage.profile_db import (
    InMemoryUserProfileDatabase,
    SqliteUserProfileDatabase,
    UserProfileDatabase,
)

__all__ = [
    "IntervalIndex",
    "OccupancyAnomaly",
    "OccupancyService",
    "MovementIngestor",
    "BatchFailure",
    "CheckpointPolicy",
    "Checkpoint",
    "MovementNotice",
    "AuthorizationDatabase",
    "InMemoryAuthorizationDatabase",
    "SqliteAuthorizationDatabase",
    "MovementDatabase",
    "MovementKind",
    "MovementRecord",
    "InMemoryMovementDatabase",
    "SqliteMovementDatabase",
    "UserProfileDatabase",
    "InMemoryUserProfileDatabase",
    "SqliteUserProfileDatabase",
]
