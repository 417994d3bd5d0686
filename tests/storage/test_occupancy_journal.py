"""Rollback equivalence for the occupancy projection's undo journal.

Every write scope of the movement backends — memory ``bulk()``, SQLite
``bulk()``, a standalone SQLite ``record_many`` and SQLite
``import_archived`` — is an occupancy transaction.  A scope that fails must
leave ``occupancy_service.snapshot()`` exactly as it was; a scope that
commits must equal a fresh projection folding the same records; and the
journal must grow with the scope, never with the history behind it.

The seeded scopes mix every branch the fold has: moves between locations
(the previous location's occupant set), consistent and anomalous exits,
out-of-order ENTERs that land mid-timeline (the ``insort`` branch) and keys
the history never touched (new subjects, locations, pairs and histogram
buckets).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import StorageError
from repro.storage.movement_db import (
    InMemoryMovementDatabase,
    MovementKind,
    MovementRecord,
    SqliteMovementDatabase,
)
from repro.storage.occupancy import OccupancyService

SUBJECTS = [f"s{index:02d}" for index in range(40)]
LOCATIONS = [f"L{index}" for index in range(10)]
SCOPE_EVENTS = 120
#: Journal entries one event may add: subject, pair, two occupant
#: memberships, a histogram bucket, a timeline copy, a new set, a new dict.
JOURNAL_PER_EVENT = 8
HISTORY_SIZES = (300, 6_000)


class _Boom(Exception):
    """The failure injected into a write scope."""


def _history(size: int, seed: int = 11):
    rng = random.Random(seed)
    probe = OccupancyService()
    records = []
    for time in range(size):
        subject = rng.choice(SUBJECTS)
        tracked = probe.current_location(subject)
        if tracked is not None and rng.random() < 0.4:
            record = MovementRecord(time, subject, tracked, MovementKind.EXIT)
        else:
            record = MovementRecord(time, subject, rng.choice(LOCATIONS), MovementKind.ENTER)
        probe.apply(record)
        records.append(record)
    return records


def _scope(history, seed: int):
    """A seeded scope that provably hits every fold branch (asserted here)."""
    rng = random.Random(seed)
    probe = OccupancyService()
    probe.apply_many(history)
    subjects = SUBJECTS[:10] + ["fresh-a", "fresh-b", "fresh-c"]
    locations = LOCATIONS[:4] + ["Fresh-X", "Fresh-Y"]
    start = history[-1].time + 1 if history else 0
    seen = {"out_of_order": 0, "anomalous": 0, "moves": 0, "consistent_exit": 0}
    records = []
    for step in range(SCOPE_EVENTS):
        time = start + 1_000 + 3 * step
        subject = rng.choice(subjects)
        tracked = probe.current_location(subject)
        roll = rng.random()
        if roll < 0.45:
            location = rng.choice(locations)
            record = MovementRecord(time, subject, location, MovementKind.ENTER)
            if tracked is not None and tracked != location:
                seen["moves"] += 1
        elif roll < 0.65:
            # Predates the pair's newest entry: lands mid-timeline.
            location = rng.choice(locations)
            last = probe.last_entry(subject, location)
            earliest = last.time - 1 if last is not None else time
            record = MovementRecord(
                rng.randrange(0, max(earliest, 1)), subject, location, MovementKind.ENTER
            )
            if last is not None and record.time < last.time:
                seen["out_of_order"] += 1
        elif tracked is not None and roll < 0.85:
            record = MovementRecord(time, subject, tracked, MovementKind.EXIT)
            seen["consistent_exit"] += 1
        else:
            location = rng.choice([loc for loc in locations if loc != tracked])
            record = MovementRecord(time, subject, location, MovementKind.EXIT)
            seen["anomalous"] += 1
        probe.apply(record)
        records.append(record)
    assert all(seen.values()), seen
    touched = {record.subject for record in records}
    assert touched - set(SUBJECTS), "no first-touch subject in the scope"
    assert {record.location for record in records} - set(LOCATIONS)
    return records


def _assert_closed(service):
    """The scope closed its transaction: a new one opens without error."""
    service.begin()
    service.commit()


def _fresh(records, factory=OccupancyService):
    service = factory()
    for record in records:
        service.apply(record)
    return service.snapshot()


@pytest.fixture(params=HISTORY_SIZES, ids=lambda size: f"history{size}")
def history(request):
    return _history(request.param)


# ---------------------------------------------------------------------- #
# The memory backend
# ---------------------------------------------------------------------- #
class TestMemoryBulk:
    def _database(self, history):
        database = InMemoryMovementDatabase()
        database.record_many(history)
        return database

    def test_failing_bulk_fed_by_record_rolls_back(self, history):
        database = self._database(history)
        service = database.occupancy_service
        before, logged = service.snapshot(), len(database)
        scope = _scope(history, seed=1)
        with pytest.raises(_Boom):
            with database.bulk():
                for record in scope:
                    database.record(record)
                assert 0 < service.journal_size <= JOURNAL_PER_EVENT * len(scope)
                raise _Boom
        assert service.snapshot() == before
        assert len(database) == logged
        _assert_closed(service)

    def test_failing_record_many_inside_bulk_rolls_back(self, history):
        database = self._database(history)
        service = database.occupancy_service
        before = service.snapshot()
        scope = _scope(history, seed=2)
        with pytest.raises(_Boom):
            with database.bulk():
                database.record_many(scope)
                assert service.journal_size <= JOURNAL_PER_EVENT * len(scope)
                raise _Boom
        assert service.snapshot() == before

    def test_failing_nested_bulk_rolls_back_the_outer_scope(self, history):
        database = self._database(history)
        service = database.occupancy_service
        before = service.snapshot()
        scope = _scope(history, seed=3)
        half = len(scope) // 2
        with pytest.raises(_Boom):
            with database.bulk():
                for record in scope[:half]:
                    database.record(record)
                with database.bulk():
                    database.record_many(scope[half:])
                    raise _Boom
        assert service.snapshot() == before

    def test_committed_scope_equals_a_fresh_fold(self, history):
        database = self._database(history)
        scope = _scope(history, seed=4)
        with database.bulk():
            for record in scope[:40]:
                database.record(record)
            database.record_many(scope[40:])
        assert database.occupancy_service.snapshot() == _fresh(history + scope)

    def test_rollback_keeps_notes_of_committed_records(self, history):
        database = self._database(history)
        database.record(MovementRecord(10**6, "ghost", "L0", MovementKind.EXIT))
        notes = database.anomalies
        with pytest.raises(_Boom):
            with database.bulk():
                database.record(MovementRecord(10**6 + 1, "ghost", "L1", MovementKind.EXIT))
                assert len(database.anomalies) == len(notes) + 1
                raise _Boom
        assert database.anomalies == notes

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda db: db.clear(),
            lambda db: db.import_archived([MovementRecord(1, "x", "L0", MovementKind.ENTER)]),
            lambda db: db.forget_subjects(["s00"]),
            lambda db: db.checkpoint(),
        ],
        ids=["clear", "import_archived", "forget_subjects", "checkpoint"],
    )
    def test_unjournalable_mutations_are_refused_inside_bulk(self, history, mutation):
        database = self._database(history)
        before, logged = database.occupancy_service.snapshot(), len(database)
        with database.bulk():
            with pytest.raises(StorageError, match="inside an open bulk"):
                mutation(database)
        assert database.occupancy_service.snapshot() == before
        assert len(database) == logged


# ---------------------------------------------------------------------- #
# The SQLite backend
# ---------------------------------------------------------------------- #
def _sqlite(history):
    database = SqliteMovementDatabase()
    database.record_many(history)
    return database


class TestSqliteScopes:
    def test_failing_bulk_rolls_back(self, history):
        database = _sqlite(history)
        service = database.occupancy_service
        before, logged = service.snapshot(), len(database)
        scope = _scope(history, seed=5)
        with pytest.raises(_Boom):
            with database.bulk():
                for record in scope[:50]:
                    database.record(record)
                database.record_many(scope[50:])
                assert 0 < service.journal_size <= JOURNAL_PER_EVENT * len(scope)
                raise _Boom
        assert service.snapshot() == before
        assert len(database) == logged

    def test_failing_standalone_record_many_rolls_back(self, history, monkeypatch):
        database = _sqlite(history)
        service = database.occupancy_service
        before, logged = service.snapshot(), len(database)
        scope = _scope(history, seed=6)
        journal = []

        def fail(**_):
            journal.append(service.journal_size)
            raise _Boom

        monkeypatch.setattr(database, "_sync_derived", fail)
        with pytest.raises(_Boom):
            database.record_many(scope)
        assert 0 < journal[0] <= JOURNAL_PER_EVENT * len(scope)
        assert service.snapshot() == before
        assert len(database) == logged
        _assert_closed(service)

    def test_failing_import_archived_rolls_back(self, history, monkeypatch):
        database = _sqlite(history)
        service = database.occupancy_service
        before = service.snapshot()
        scope = _scope(history, seed=7)
        journal = []

        def fail(**_):
            journal.append(service.journal_size)
            raise _Boom

        monkeypatch.setattr(database, "_sync_checkpoint_tables", fail)
        with pytest.raises(_Boom):
            database.import_archived(scope)
        assert 0 < journal[0] <= JOURNAL_PER_EVENT * len(scope)
        assert service.snapshot() == before
        assert database.archived_count == 0

    def test_committed_scopes_equal_a_fresh_fold(self, history):
        database = _sqlite(history)
        scope = _scope(history, seed=8)
        with database.bulk():
            for record in scope[:40]:
                database.record(record)
            database.record_many(scope[40:80])
        database.record_many(scope[80:])
        assert database.occupancy_service.snapshot() == _fresh(
            history + scope, lambda: OccupancyService(track_timelines=False)
        )

    def test_clear_is_refused_inside_bulk(self, history):
        database = _sqlite(history)
        logged = len(database)
        with database.bulk():
            with pytest.raises(StorageError, match="inside an open bulk"):
                database.clear()
        assert len(database) == logged


# ---------------------------------------------------------------------- #
# The transaction API itself
# ---------------------------------------------------------------------- #
class TestTransactionApi:
    def test_commit_keeps_changes_and_closes(self):
        history = _history(500)
        service = OccupancyService()
        service.begin()
        service.apply_many(history)
        service.commit()
        _assert_closed(service)
        assert service.snapshot() == _fresh(history)
        service.commit()  # no transaction open: a no-op

    def test_misuse_is_refused(self):
        service = OccupancyService()
        with pytest.raises(StorageError):
            service.rollback()
        service.begin()
        with pytest.raises(StorageError):
            service.begin()
        for refused in (
            service.clear,
            lambda: service.forget_subject("s00"),
            lambda: service.load(inside={}, entry_counts={}),
        ):
            with pytest.raises(StorageError, match="transaction"):
                refused()
        service.rollback()
        service.clear()
