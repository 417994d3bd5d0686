"""Checkpoint scheduling on the ingest writer, retry-able batch failures,
and archive retention across the movement backends."""

import time

import pytest

from repro.errors import IngestError, StorageError
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.api import Ltam
from repro.storage.ingest import BatchFailure, CheckpointPolicy, MovementIngestor
from repro.storage.movement_db import (
    InMemoryMovementDatabase,
    MovementKind,
    MovementRecord,
    SqliteMovementDatabase,
)


@pytest.fixture()
def deployment():
    hierarchy = LocationHierarchy(grid_building("B", 3, 3))
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=19)
    subjects = generate_subjects(25)
    return hierarchy, subjects, generator.movement_events(subjects, 1_000)


class TestCheckpointPolicyValidation:
    def test_needs_a_trigger(self):
        with pytest.raises(IngestError):
            CheckpointPolicy()

    def test_rejects_bad_values(self):
        with pytest.raises(IngestError):
            CheckpointPolicy(every_events=0)
        with pytest.raises(IngestError):
            CheckpointPolicy(every_seconds=0)
        with pytest.raises(IngestError):
            CheckpointPolicy(every_events=10, retain_archived=-1)

    def test_ingestor_requires_checkpoint_callable_with_policy(self):
        database = InMemoryMovementDatabase()
        with pytest.raises(IngestError):
            MovementIngestor(
                database.record_many, checkpoint_policy=CheckpointPolicy(every_events=10)
            )


class TestScheduledCheckpoints:
    def test_every_events_checkpoints_during_the_stream(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)
        policy = CheckpointPolicy(every_events=200)
        with MovementIngestor(
            database.record_many,
            batch_size=100,
            checkpoint_policy=policy,
            checkpoint=lambda: policy.run(database),
        ) as ingestor:
            # Chunked like a tracker stream; each chunk is one flush unit.
            for start in range(0, len(events), 100):
                ingestor.submit_many(events[start : start + 100])
            ingestor.flush()
            assert ingestor.checkpoints >= len(events) // 200 - 1
        assert ingestor.checkpoint_errors == ()
        # The stream was compacted as it flowed: the live log is bounded by
        # the policy interval, the archive holds the rest.
        assert database.archived_count + len(database) == len(events)
        assert database.archived_count >= len(events) - 400
        assert database.events_since_checkpoint <= 400

    def test_every_seconds_checkpoints_an_idle_stream_once(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)
        policy = CheckpointPolicy(every_seconds=0.05)
        with MovementIngestor(
            database.record_many,
            batch_size=10_000,  # never flushes by size
            max_latency=0.01,
            checkpoint_policy=policy,
            checkpoint=lambda: policy.run(database),
        ) as ingestor:
            ingestor.submit_many(events[:100])
            deadline = time.monotonic() + 2.0
            while ingestor.checkpoints == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ingestor.checkpoints >= 1
            # Idle from here on: the writer must not re-checkpoint an
            # unchanged database.
            settled = ingestor.checkpoints
            time.sleep(0.2)
            assert ingestor.checkpoints == settled
        assert database.archived_count == 100

    def test_checkpoint_errors_do_not_stop_ingest(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)

        def broken_checkpoint():
            raise StorageError("checkpoint target unavailable")

        policy = CheckpointPolicy(every_events=100)
        with MovementIngestor(
            database.record_many,
            batch_size=100,
            checkpoint_policy=policy,
            checkpoint=broken_checkpoint,
        ) as ingestor:
            ingestor.submit_many(events)
            ingestor.flush()  # batch failures would raise here; none expected
        assert len(database) == len(events)
        assert ingestor.checkpoints == 0
        assert len(ingestor.checkpoint_errors) >= 1
        assert all(isinstance(e, StorageError) for e in ingestor.checkpoint_errors)

    def test_retention_caps_the_archive(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)
        policy = CheckpointPolicy(every_events=100, retain_archived=150)
        with MovementIngestor(
            database.record_many,
            batch_size=50,
            checkpoint_policy=policy,
            checkpoint=lambda: policy.run(database),
        ) as ingestor:
            for start in range(0, len(events), 50):
                ingestor.submit_many(events[start : start + 50])
            ingestor.flush()
        assert ingestor.checkpoints >= 5
        assert database.archived_count <= 150

    def test_engine_observe_stream_accepts_a_policy(self, deployment):
        hierarchy, _, events = deployment
        engine = Ltam(hierarchy)
        policy = CheckpointPolicy(every_events=250, retain_archived=300)
        with engine.observe_stream(batch_size=125, checkpoint_policy=policy) as stream:
            for start in range(0, len(events), 125):
                stream.submit_many(events[start : start + 125])
            stream.flush()
            assert stream.checkpoints >= 2
        assert engine.movement_db.archived_count <= 300
        assert engine.movement_db.archived_count + len(engine.movement_db) <= len(events)
        # The projection kept every read exact through compaction+retention.
        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events)
        assert engine.movement_db.subjects_inside() == oracle.subjects_inside()


class TestBatchFailureRecords:
    def test_failure_carries_the_rejected_records(self, deployment):
        hierarchy, _, _ = deployment
        database = InMemoryMovementDatabase(hierarchy, strict=True)
        poison = [
            MovementRecord(5, "ghost", "B.R0C0", MovementKind.EXIT),
            MovementRecord(6, "ghost", "B.R0C1", MovementKind.EXIT),
        ]
        ingestor = MovementIngestor(database.record_many, batch_size=10)
        ingestor.submit_many(poison)
        with pytest.raises(IngestError) as excinfo:
            ingestor.flush()
        (failure,) = excinfo.value.failures
        assert isinstance(failure, BatchFailure)
        assert failure.dropped == 2
        assert list(failure.records) == poison
        ingestor.close()

    def test_failed_records_can_be_retried(self, deployment):
        hierarchy, _, _ = deployment
        database = InMemoryMovementDatabase(hierarchy, strict=True)
        ingestor = MovementIngestor(database.record_many, batch_size=10)
        ingestor.submit(MovementRecord(5, "ghost", "B.R0C0", MovementKind.EXIT))
        with pytest.raises(IngestError) as excinfo:
            ingestor.flush()
        (failure,) = excinfo.value.failures
        # Fix the cause (the missing entry), then replay the dropped records.
        ingestor.submit(MovementRecord(4, "ghost", "B.R0C0", MovementKind.ENTER))
        ingestor.submit_many(failure.records)
        ingestor.close()  # raises if the retry failed too
        assert len(database) == 2
        assert database.current_location("ghost") is None


class TestPruneArchive:
    def _trace(self, count=120):
        return [
            MovementRecord(t, f"s{t % 7}", "B.R0C0", MovementKind.ENTER if t % 2 == 0 else MovementKind.EXIT)
            for t in range(count)
        ]

    def _seeded(self, database):
        hierarchy = LocationHierarchy(grid_building("B", 3, 3))
        generator = AuthorizationWorkloadGenerator(hierarchy, seed=3)
        events = generator.movement_events(generate_subjects(9), 120)
        database.record_many(events)
        database.checkpoint()
        return events

    def test_in_memory_prune(self):
        database = InMemoryMovementDatabase()
        events = self._seeded(database)
        assert database.archived_count == len(events)
        assert database.prune_archive(30) == len(events) - 30
        assert database.archived_count == 30
        # The newest archived records survive.
        assert database.history(include_archived=True) == events[-30:]
        assert database.prune_archive(30) == 0  # already at the cap

    def test_sqlite_prune_drops_oldest(self, tmp_path):
        path = str(tmp_path / "prune.db")
        database = SqliteMovementDatabase(path)
        events = self._seeded(database)
        assert database.prune_archive(40) == len(events) - 40
        assert database.archived_count == 40
        kept = database.history(include_archived=True)
        assert kept == events[-40:]
        database.close()

    def test_prune_validates_retention(self):
        database = InMemoryMovementDatabase()
        with pytest.raises(StorageError):
            database.prune_archive(-1)


class TestBackpressure:
    def test_queue_bound_counts_records_not_batches(self):
        """submit_many batches must count record-by-record against queue_size.

        The bound covers records queued behind a busy writer (like the old
        bounded queue, the batch the writer already picked up is not
        counted) — so: park the writer inside the sink, fill the queue to
        the bound with one batch, and check the next batch blocks.
        """
        import threading

        gate = threading.Event()
        in_sink = threading.Event()

        def slow_sink(batch):
            in_sink.set()
            gate.wait(10)

        ingestor = MovementIngestor(slow_sink, batch_size=10, max_latency=60, queue_size=100)
        records = [MovementRecord(t, "s", "L", MovementKind.ENTER) for t in range(80)]
        ingestor.submit_many(records)  # picked up by the writer, parked in the sink
        assert in_sink.wait(5)
        ingestor.submit_many(records)  # 80 queued behind the busy writer: fits

        blocked = threading.Event()
        passed = threading.Event()

        def submit_more():
            blocked.set()
            ingestor.submit_many(records)  # 80 more would exceed 100: must block
            passed.set()

        thread = threading.Thread(target=submit_more, daemon=True)
        thread.start()
        assert blocked.wait(2)
        assert not passed.wait(0.3), "third batch was admitted past the record bound"
        gate.set()  # writer drains; capacity frees; the submitter unblocks
        assert passed.wait(5)
        ingestor.close(raise_failures=False)

    def test_oversized_single_batch_is_admitted_alone(self):
        database = InMemoryMovementDatabase()
        ingestor = MovementIngestor(database.record_many, queue_size=10)
        big = [MovementRecord(t, f"s{t}", "L", MovementKind.ENTER) for t in range(50)]
        assert ingestor.submit_many(big) == 50  # larger than the bound: no deadlock
        ingestor.close()
        assert len(database) == 50
