"""Checkpoint/compaction: bounded replay, crash-recovery parity, archives.

The contract under test: a checkpoint persists the projection snapshot and
(compacting) archives the covered log prefix, after which

* every occupancy read — windowed entry counts included — is unchanged,
* ``history()`` scans only events since the checkpoint while
  ``history(include_archived=True)`` still replays the full log,
* a stale SQLite database (a writer that bypassed the derived tables, the
  crash-recovery shape) reprimes by replaying only the post-checkpoint
  suffix, landing on exactly the state a full-log oracle reaches.
"""

import sqlite3

import pytest

from repro.errors import StorageError
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.storage.movement_db import (
    InMemoryMovementDatabase,
    MovementKind,
    MovementRecord,
    SqliteMovementDatabase,
)
from repro.temporal.interval import TimeInterval


@pytest.fixture(scope="module")
def trace():
    hierarchy = LocationHierarchy(grid_building("B", 4, 4))
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=31)
    subjects = generate_subjects(40)
    return hierarchy, subjects, generator.movement_events(subjects, 4_000)


def assert_state_parity(database, oracle, subjects, locations):
    assert database.subjects_inside() == oracle.subjects_inside()
    window = TimeInterval(0, 10_000)
    for subject in subjects:
        for location in locations:
            assert database.entry_count(subject, location) == oracle.entry_count(
                subject, location
            ), (subject, location)
            assert database.entry_count(subject, location, window) == oracle.entry_count(
                subject, location, window
            )
    for location in locations:
        assert database.occupants(location) == oracle.occupants(location)


class TestInMemoryCheckpoint:
    def test_reads_unchanged_and_history_bounded(self, trace):
        hierarchy, subjects, events = trace
        database = InMemoryMovementDatabase(hierarchy)
        database.record_many(events[:3_000])
        receipt = database.checkpoint()
        database.record_many(events[3_000:])

        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events)

        locations = sorted({record.location for record in events})[:6]
        assert_state_parity(database, oracle, subjects[:15], locations)
        assert receipt.position == 3_000
        assert receipt.archived == 3_000
        assert database.archived_count == 3_000
        assert len(database) == 1_000
        assert database.events_since_checkpoint == 1_000
        assert database.history() == events[3_000:]
        assert database.history(include_archived=True) == events
        assert database.history(subject=subjects[0], include_archived=True) == [
            record for record in events if record.subject == subjects[0]
        ]

    def test_clear_resets_checkpoint_and_archive(self, trace):
        hierarchy, _, events = trace
        database = InMemoryMovementDatabase(hierarchy)
        database.record_many(events[:1_000])
        database.checkpoint()
        database.record_many(events[1_000:1_100])
        database.clear()
        assert len(database) == 0
        assert database.archived_count == 0
        assert database.history(include_archived=True) == []
        assert database.subjects_inside() == {}

    def test_checkpoint_state_is_a_plain_tuple_snapshot(self, trace):
        hierarchy, _, events = trace
        database = InMemoryMovementDatabase(hierarchy)
        database.record_many(events[:500])
        database.checkpoint()
        assert isinstance(database.checkpoint_state, tuple)
        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events[:500])
        assert database.checkpoint_state == oracle.occupancy_service.snapshot()

    def test_non_compacting_checkpoint_keeps_the_log(self, trace):
        hierarchy, _, events = trace
        database = InMemoryMovementDatabase(hierarchy)
        database.record_many(events[:100])
        receipt = database.checkpoint(compact=False)
        assert receipt.archived == 0
        assert len(database) == 100
        assert database.archived_count == 0
        assert database.events_since_checkpoint == 0

    def test_repeated_checkpoints_accumulate_archive(self, trace):
        hierarchy, _, events = trace
        database = InMemoryMovementDatabase(hierarchy)
        database.record_many(events[:100])
        database.checkpoint()
        database.record_many(events[100:250])
        receipt = database.checkpoint()
        assert receipt.position == 250
        assert receipt.archived == 150
        assert database.archived_count == 250
        assert database.history(include_archived=True) == events[:250]

    def test_base_class_without_checkpoint_support_raises(self, trace):
        # The default MovementDatabase.checkpoint raises for exotic backends.
        from repro.storage.movement_db import MovementDatabase

        class Duck(MovementDatabase):
            def record(self, record):  # pragma: no cover - unused
                return record

            def clear(self):  # pragma: no cover - unused
                pass

            def history(self, **kwargs):  # pragma: no cover - unused
                return []

        with pytest.raises(StorageError):
            Duck().checkpoint()


class TestSqliteCheckpoint:
    def test_checkpoint_then_reopen_matches_full_replay_oracle(self, tmp_path, trace):
        hierarchy, subjects, events = trace
        path = str(tmp_path / "movements.db")
        database = SqliteMovementDatabase(path, hierarchy)
        database.record_many(events[:3_000])
        receipt = database.checkpoint()
        database.record_many(events[3_000:])
        assert receipt.archived == 3_000
        assert database.archived_count == 3_000
        assert database.events_since_checkpoint == 1_000
        database.close()

        reopened = SqliteMovementDatabase(path, hierarchy)
        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events)
        locations = sorted({record.location for record in events})[:6]
        assert_state_parity(reopened, oracle, subjects[:15], locations)
        assert reopened.history() == events[3_000:]
        assert reopened.history(include_archived=True) == events
        reopened.close()

    def test_crash_recovery_replays_only_the_suffix(self, tmp_path, trace):
        """A foreign writer appends raw log rows; reopen must self-heal.

        The recovery replay is primed from the checkpoint tables, so only
        the post-checkpoint rows are folded — verified here by state parity
        with a full-log oracle (the bounded *cost* is the benchmark's job).
        """
        hierarchy, subjects, events = trace
        path = str(tmp_path / "crashed.db")
        database = SqliteMovementDatabase(path, hierarchy)
        database.record_many(events[:3_000])
        database.checkpoint()
        database.close()

        # Simulate a crashed/legacy writer: movements rows land without the
        # derived tables or the applied_seq stamp being maintained.
        raw = sqlite3.connect(path)
        raw.executemany(
            "INSERT INTO movements (time, subject, location, kind) VALUES (?, ?, ?, ?)",
            [(r.time, r.subject, r.location, r.kind.value) for r in events[3_000:]],
        )
        raw.commit()
        raw.close()

        reopened = SqliteMovementDatabase(path, hierarchy)
        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events)
        locations = sorted({record.location for record in events})[:6]
        assert_state_parity(reopened, oracle, subjects[:15], locations)
        reopened.close()

    def test_recovery_without_checkpoint_still_full_replays(self, tmp_path, trace):
        hierarchy, subjects, events = trace
        path = str(tmp_path / "legacy.db")
        raw = sqlite3.connect(path)
        seed = SqliteMovementDatabase(path, hierarchy)  # creates the schema
        seed.close()
        raw.executemany(
            "INSERT INTO movements (time, subject, location, kind) VALUES (?, ?, ?, ?)",
            [(r.time, r.subject, r.location, r.kind.value) for r in events[:1_000]],
        )
        raw.commit()
        raw.close()
        reopened = SqliteMovementDatabase(path, hierarchy)
        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events[:1_000])
        assert reopened.subjects_inside() == oracle.subjects_inside()
        reopened.close()

    def test_windowed_counts_span_the_archive_boundary(self, trace):
        hierarchy, subjects, events = trace
        database = SqliteMovementDatabase(":memory:", hierarchy)
        database.record_many(events)
        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events)
        database.checkpoint()  # everything archived; live log empty
        assert len(database) == 0
        window = TimeInterval(0, 10_000)
        for subject in subjects[:15]:
            location = oracle.current_location(subject)
            if location is None:
                continue
            assert database.entry_count(subject, location, window) == oracle.entry_count(
                subject, location, window
            )
        database.close()

    def test_last_reads_fall_back_to_the_archive(self, tmp_path, trace):
        hierarchy, subjects, events = trace
        path = str(tmp_path / "archive-reads.db")
        database = SqliteMovementDatabase(path, hierarchy)
        database.record_many(events)
        database.checkpoint()
        database.close()
        reopened = SqliteMovementDatabase(path, hierarchy)
        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events)
        hits = 0
        for subject in subjects:
            for location in sorted({record.location for record in events})[:4]:
                expected_last = oracle.last_movement(subject, location)
                expected_entry = oracle.last_entry(subject, location)
                if expected_last is None and expected_entry is None:
                    continue
                hits += 1
                assert reopened.last_movement(subject, location) == expected_last
                assert reopened.last_entry(subject, location) == expected_entry
        assert hits > 0
        reopened.close()

    def test_checkpoint_inside_bulk_scope_is_rejected(self, trace):
        hierarchy, _, events = trace
        database = SqliteMovementDatabase(":memory:", hierarchy)
        database.record_many(events[:10])
        with pytest.raises(StorageError):
            with database.bulk():
                database.checkpoint()
        database.close()

    def test_clear_resets_checkpoint_and_archive(self, trace):
        hierarchy, _, events = trace
        database = SqliteMovementDatabase(":memory:", hierarchy)
        database.record_many(events[:200])
        database.checkpoint()
        database.record_many(events[200:300])
        database.clear()
        assert len(database) == 0
        assert database.archived_count == 0
        assert database.events_since_checkpoint == 0
        assert database.history(include_archived=True) == []
        # The database keeps working after the reset.
        database.record_many(events[:50])
        assert len(database) == 50
        database.close()


class TestCheckpointRegressions:
    """Receipts stay truthful across repeated and snapshot-only checkpoints."""

    def test_repeated_non_compacting_checkpoints_do_not_double_count(self, trace):
        hierarchy, _, events = trace
        database = InMemoryMovementDatabase(hierarchy)
        database.record_many(events[:3])
        first = database.checkpoint(compact=False)
        second = database.checkpoint(compact=False)
        assert first.position == 3
        assert second.position == 3
        assert database.events_since_checkpoint == 0
        third = database.checkpoint()  # compacting, still 3 events ever
        assert third.position == 3
        assert third.archived == 3

    def test_in_memory_bulk_scope_rolls_back_storage(self, trace):
        hierarchy, _, events = trace
        database = InMemoryMovementDatabase(hierarchy, strict=True)
        database.record_many(events[:100])
        before_len = len(database)
        before_state = database.subjects_inside()
        location = sorted(hierarchy.primitive_names)[0]
        with pytest.raises(StorageError):
            with database.bulk():
                database.record(events[100])
                # A strict-mode inconsistent exit aborts the scope...
                database.record(MovementRecord(9_999, "Nobody", location, MovementKind.EXIT))
        # ...and the records landed inside it are rolled back whole.
        assert len(database) == before_len
        assert database.subjects_inside() == before_state
        assert database.events_since_checkpoint == before_len

    def test_in_memory_checkpoint_inside_bulk_scope_is_rejected(self, trace):
        hierarchy, _, events = trace
        database = InMemoryMovementDatabase(hierarchy)
        database.record_many(events[:10])
        with pytest.raises(StorageError):
            with database.bulk():
                database.checkpoint()
        # The guard kept the archive untouched and the scope intact.
        assert database.archived_count == 0
        assert len(database) == 10
