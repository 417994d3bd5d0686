"""Unit tests for the Location & Movements Database (in-memory and SQLite backends)."""

import pytest

from repro.errors import StorageError
from repro.locations.layouts import figure4_hierarchy
from repro.storage.movement_db import (
    InMemoryMovementDatabase,
    MovementKind,
    MovementRecord,
    SqliteMovementDatabase,
)
from repro.temporal.interval import TimeInterval


BACKENDS = [InMemoryMovementDatabase, SqliteMovementDatabase]


@pytest.fixture(params=BACKENDS, ids=["memory", "sqlite"])
def db(request):
    if request.param is SqliteMovementDatabase:
        return SqliteMovementDatabase(":memory:")
    return InMemoryMovementDatabase()


def load_sample(db):
    db.record_entry(10, "Alice", "CAIS")
    db.record_entry(16, "Bob", "CHIPES")
    db.record_exit(20, "Bob", "CHIPES")
    db.record_entry(25, "Bob", "CHIPES")
    db.record_exit(40, "Alice", "CAIS")
    return db


class TestMovementRecord:
    def test_normalization_and_str(self):
        record = MovementRecord(5, "Alice", "CAIS", "enter")
        assert record.kind is MovementKind.ENTER
        assert "ENTER" in str(record)

    @pytest.mark.parametrize("bad_time", [-1, 2.5, None])
    def test_invalid_time(self, bad_time):
        with pytest.raises(StorageError):
            MovementRecord(bad_time, "Alice", "CAIS", MovementKind.ENTER)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            MovementRecord(0, "Alice", "CAIS", "teleport")


class TestRecordingAndOccupancy:
    def test_current_location_tracks_last_entry(self, db):
        load_sample(db)
        # Alice exited CAIS at t=40, Bob re-entered CHIPES at t=25.
        assert db.current_location("Alice") is None
        assert db.current_location("Bob") == "CHIPES"
        assert db.current_location("Ghost") is None

    def test_exit_clears_current_location(self, db):
        db.record_entry(1, "Alice", "CAIS")
        db.record_exit(2, "Alice", "CAIS")
        assert db.current_location("Alice") is None

    def test_occupants(self, db):
        load_sample(db)
        assert db.occupants("CAIS") == []
        assert db.occupants("CHIPES") == ["Bob"]
        assert db.occupants("Lab1") == []

    def test_occupants_before_any_exit(self, db):
        db.record_entry(10, "Alice", "CAIS")
        db.record_entry(11, "Carol", "CAIS")
        assert db.occupants("CAIS") == ["Alice", "Carol"]

    def test_subjects_inside(self, db):
        load_sample(db)
        assert db.subjects_inside() == {"Bob": "CHIPES"}

    def test_len_counts_records(self, db):
        load_sample(db)
        assert len(db) == 5

    def test_clear(self, db):
        load_sample(db)
        db.clear()
        assert len(db) == 0
        assert db.current_location("Alice") is None

    def test_hierarchy_validation(self):
        hierarchy = figure4_hierarchy()
        for backend in (InMemoryMovementDatabase(hierarchy), SqliteMovementDatabase(":memory:", hierarchy)):
            backend.record_entry(0, "Alice", "A")
            with pytest.raises(StorageError):
                backend.record_entry(1, "Alice", "NotARoom")


class TestHistoryAndCounting:
    def test_history_filters(self, db):
        load_sample(db)
        assert len(db.history(subject="Bob")) == 3
        assert len(db.history(location="CAIS")) == 2
        assert len(db.history(subject="Bob", location="CHIPES")) == 3
        assert len(db.history(window=TimeInterval(0, 20))) == 3
        assert len(db.history(subject="Bob", window=TimeInterval(18, 26))) == 2

    def test_history_preserves_order(self, db):
        load_sample(db)
        times = [record.time for record in db.history()]
        assert times == sorted(times)

    def test_entry_count(self, db):
        load_sample(db)
        # Definition 7's counter: Bob entered CHIPES twice in total.
        assert db.entry_count("Bob", "CHIPES") == 2
        assert db.entry_count("Bob", "CHIPES", TimeInterval(0, 20)) == 1
        assert db.entry_count("Alice", "CHIPES") == 0

    def test_last_entry(self, db):
        load_sample(db)
        last = db.last_entry("Bob", "CHIPES")
        assert last is not None and last.time == 25
        assert db.last_entry("Alice", "CHIPES") is None


class TestBatchRecording:
    def test_record_many_matches_loop(self, db):
        records = [
            MovementRecord(10, "Alice", "CAIS", MovementKind.ENTER),
            MovementRecord(16, "Bob", "CHIPES", MovementKind.ENTER),
            MovementRecord(20, "Bob", "CHIPES", MovementKind.EXIT),
            MovementRecord(25, "Bob", "CHIPES", MovementKind.ENTER),
            MovementRecord(40, "Alice", "CAIS", MovementKind.EXIT),
        ]
        returned = db.record_many(records)
        assert returned == records
        assert len(db) == 5
        assert db.history() == records
        assert db.current_location("Bob") == "CHIPES"
        assert db.entry_count("Bob", "CHIPES") == 2
        assert db.entry_count("Bob", "CHIPES", TimeInterval(0, 20)) == 1

    def test_record_many_empty(self, db):
        assert db.record_many([]) == []
        assert len(db) == 0

    def test_record_many_rejects_unknown_location_up_front(self):
        hierarchy = figure4_hierarchy()
        for backend in (InMemoryMovementDatabase(hierarchy), SqliteMovementDatabase(":memory:", hierarchy)):
            with pytest.raises(StorageError):
                backend.record_many(
                    [
                        MovementRecord(0, "Alice", "A", MovementKind.ENTER),
                        MovementRecord(1, "Alice", "NotARoom", MovementKind.ENTER),
                    ]
                )
            # Validation happens before anything is written.
            assert len(backend) == 0

    def test_batch_error_names_first_unknown_location(self):
        hierarchy = figure4_hierarchy()
        batch = [
            MovementRecord(1, "Alice", "A", MovementKind.ENTER),
            MovementRecord(2, "Bob", "nowhere", MovementKind.ENTER),
            MovementRecord(3, "Carol", "elsewhere", MovementKind.ENTER),
        ]
        for backend in (InMemoryMovementDatabase(hierarchy), SqliteMovementDatabase(":memory:", hierarchy)):
            with pytest.raises(StorageError, match="'nowhere'"):
                backend.record_many(batch)
            assert len(backend) == 0

    def test_caller_list_is_not_aliased_by_the_log(self):
        # record_many reads a list argument in place; reusing the buffer
        # afterwards must not rewrite what was recorded.
        database = InMemoryMovementDatabase()
        first = [MovementRecord(time, f"s{time}", "CAIS", MovementKind.ENTER) for time in range(5)]
        second = [MovementRecord(time, f"t{time}", "CHIPES", MovementKind.ENTER) for time in range(5, 10)]
        buffer = list(first)
        database.record_many(buffer)
        buffer[:] = second
        assert len(database) == 5
        assert database.history() == first

    def test_bulk_groups_writes(self, db):
        with db.bulk():
            db.record_entry(1, "Alice", "CAIS")
            db.record_entry(2, "Bob", "CAIS")
        assert db.occupants("CAIS") == ["Alice", "Bob"]


class TestOccupancyReads:
    def test_occupancy_counter(self, db):
        load_sample(db)
        assert db.occupancy("CHIPES") == 1
        assert db.occupancy("CAIS") == 0
        assert db.occupancy("Nowhere") == 0

    def test_last_movement(self, db):
        load_sample(db)
        last = db.last_movement("Alice", "CAIS")
        assert last is not None and last.time == 40 and last.kind is MovementKind.EXIT
        assert db.last_movement("Ghost", "CAIS") is None

    def test_mismatched_exit_is_noted(self, db):
        db.record_entry(1, "Alice", "CAIS")
        db.record_exit(2, "Alice", "CHIPES")
        assert db.current_location("Alice") == "CAIS"
        assert len(db.anomalies) == 1
        assert "CAIS" in db.anomalies[0].note

    def test_occupancy_service_exposed(self, db):
        load_sample(db)
        assert db.occupancy_service.subjects_inside() == {"Bob": "CHIPES"}


class TestSqlitePersistence:
    def test_reopen_preserves_history(self, tmp_path):
        path = str(tmp_path / "movements.db")
        first = SqliteMovementDatabase(path)
        load_sample(first)
        first.close()
        second = SqliteMovementDatabase(path)
        assert len(second) == 5
        assert second.entry_count("Bob", "CHIPES") == 2
        second.close()
