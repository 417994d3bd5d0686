"""The streaming observe path: flush-on-close, latency flush, rollback.

:class:`~repro.storage.ingest.MovementIngestor` wraps all-or-nothing batch
sinks; what these tests pin down is the durability contract (everything
accepted is written by ``flush()``/``close()``), the group-commit triggers
(batch size and max latency), and the failure semantics (a rejected batch
is dropped whole, leaves the sink untouched, and surfaces as
:class:`~repro.errors.IngestError` at the next flush/close — later batches
keep flowing).
"""

import time

import pytest

from repro.errors import IngestError, StorageError
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.storage.ingest import MovementIngestor
from repro.storage.movement_db import (
    InMemoryMovementDatabase,
    MovementKind,
    MovementRecord,
)


@pytest.fixture()
def deployment():
    hierarchy = LocationHierarchy(grid_building("B", 3, 3))
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=41)
    subjects = generate_subjects(25)
    return hierarchy, subjects, generator.movement_events(subjects, 1_200)


class TestGroupCommit:
    def test_flush_makes_submissions_visible(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)
        ingestor = MovementIngestor(database.record_many, batch_size=64)
        ingestor.submit_many(events)
        ingestor.flush()
        assert len(database) == len(events)
        assert ingestor.written == len(events)
        assert database.history() == events
        ingestor.close()

    def test_close_flushes_pending_records(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)
        # Batch size larger than the trace: nothing flushes by size.
        ingestor = MovementIngestor(database.record_many, batch_size=10_000, max_latency=60)
        ingestor.submit_many(events)
        ingestor.close()
        assert len(database) == len(events)
        assert ingestor.closed

    def test_context_manager_closes_and_flushes(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)
        with MovementIngestor(database.record_many, batch_size=10_000, max_latency=60) as stream:
            accepted = stream.submit_many(events)
        assert accepted == len(events)
        assert len(database) == len(events)

    def test_max_latency_flushes_a_trickle(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)
        ingestor = MovementIngestor(database.record_many, batch_size=10_000, max_latency=0.02)
        ingestor.submit(events[0])
        deadline = time.monotonic() + 2.0
        while len(database) == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(database) == 1  # flushed by age, not by size or close
        ingestor.close()


class TestFailureSemantics:
    def test_rejected_batch_rolls_back_and_surfaces_on_close(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy, strict=True)
        location = sorted(hierarchy.primitive_names)[0]
        poison = MovementRecord(3, "Intruder", location, MovementKind.EXIT)

        ingestor = MovementIngestor(database.record_many, batch_size=10_000, max_latency=60)
        ingestor.submit(poison)
        ingestor.flush(raise_failures=False)
        # The poisoned batch was dropped whole: nothing reached the store.
        assert len(database) == 0
        assert ingestor.dropped == 1
        assert len(ingestor.failures) == 1
        assert isinstance(ingestor.failures[0].error, StorageError)
        with pytest.raises(IngestError) as error:
            ingestor.close()
        assert "1 ingest batch(es) were rejected" in str(error.value)

    def test_later_batches_flow_after_a_failure(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy, strict=True)
        location = sorted(hierarchy.primitive_names)[0]
        poison = MovementRecord(3, "Intruder", location, MovementKind.EXIT)

        ingestor = MovementIngestor(database.record_many, batch_size=10_000, max_latency=60)
        ingestor.submit(poison)
        with pytest.raises(IngestError):
            ingestor.flush()
        good = events[:100]
        ingestor.submit_many(good)
        ingestor.flush()  # the earlier failure was already surfaced
        assert len(database) == len(good)
        ingestor.close()

    def test_flush_reraises_with_cause(self, deployment):
        hierarchy, _, _ = deployment
        database = InMemoryMovementDatabase(hierarchy, strict=True)
        location = sorted(hierarchy.primitive_names)[0]
        ingestor = MovementIngestor(database.record_many, batch_size=1)
        ingestor.submit(MovementRecord(1, "Ghost", location, MovementKind.EXIT))
        with pytest.raises(IngestError) as error:
            ingestor.flush()
        assert isinstance(error.value.__cause__, StorageError)
        ingestor.close()

    def test_submit_after_close_is_rejected(self, deployment):
        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)
        ingestor = MovementIngestor(database.record_many)
        ingestor.close()
        with pytest.raises(IngestError):
            ingestor.submit(events[0])
        with pytest.raises(IngestError):
            ingestor.flush()
        ingestor.close()  # idempotent

    def test_configuration_validation(self, deployment):
        hierarchy, _, _ = deployment
        database = InMemoryMovementDatabase(hierarchy)
        for kwargs in ({"batch_size": 0}, {"max_latency": 0}, {"queue_size": 0}):
            with pytest.raises(IngestError):
                MovementIngestor(database.record_many, **kwargs)


class TestEnginePath:
    def test_observe_stream_monitors_and_audits(self, deployment):
        from repro.api import Ltam, grant

        hierarchy, _, _ = deployment
        location = sorted(hierarchy.primitive_names)[0]
        engine = (
            Ltam.builder()
            .hierarchy(hierarchy)
            .grant(grant("alice").at(location).during(0, 100).entries(5))
            .build()
        )
        with engine.observe_stream(batch_size=16) as stream:
            stream.submit(MovementRecord(5, "alice", location, MovementKind.ENTER))
            stream.submit(MovementRecord(9, "alice", location, MovementKind.EXIT))
            stream.submit(MovementRecord(11, "mallory", location, MovementKind.ENTER))
        assert engine.movement_db.entry_count("alice", location) == 1
        assert engine.occupants(location) == ["mallory"]
        # The unauthorized entry raised an alert through the monitor...
        kinds = [alert.kind.value for alert in engine.alerts.alerts]
        assert "unauthorized_entry" in " ".join(kinds)
        # ...and the audit log recorded the movements.
        assert len(engine.audit) > 0

    def test_observe_stream_on_a_sqlite_backend(self, deployment):
        """Regression: the writer thread drives SQLite connections created
        on the main thread — the stores must allow cross-thread use."""
        from repro.api import Ltam, grant

        hierarchy, _, _ = deployment
        location = sorted(hierarchy.primitive_names)[0]
        engine = (
            Ltam.builder()
            .hierarchy(hierarchy)
            .backend("sqlite")
            .grant(grant("alice").at(location).during(0, 100).entries(5))
            .build()
        )
        with engine.observe_stream(batch_size=4) as stream:
            stream.submit(MovementRecord(5, "alice", location, MovementKind.ENTER))
            stream.submit(MovementRecord(9, "alice", location, MovementKind.EXIT))
        assert engine.movement_db.entry_count("alice", location) == 1
        assert engine.occupants(location) == []


class TestConcurrencyRegressions:
    def test_point_in_time_queries_match_a_replay_of_the_log(self, deployment):
        """The query engine's point-in-time replay early-breaks on the first
        record past the query time; its answer must equal folding the
        records up to that time."""
        from repro.api import Ltam
        from repro.engine.query.evaluator import QueryEngine
        from repro.storage.occupancy import OccupancyService

        hierarchy, _, events = deployment
        engine = Ltam.builder().hierarchy(hierarchy).build()
        engine.movement_db.record_many(events[:400])
        probe_location = events[0].location
        probe_time = events[200].time
        oracle = OccupancyService()
        oracle.apply_many([record for record in events[:400] if record.time <= probe_time])
        rows = QueryEngine(engine).evaluate(f"WHO IS IN {probe_location} AT {probe_time}").rows
        assert rows  # the probe location is occupied at the probe time
        assert rows == tuple((subject,) for subject in oracle.occupants(probe_location))

    def test_checkpoint_concurrent_with_streaming(self, deployment):
        """Regression: checkpoint() racing the writer's bulk() scope must
        serialize on the store's transaction lock, not commit mid-batch."""
        import threading

        from repro.api import Ltam

        hierarchy, _, events = deployment
        engine = Ltam.builder().hierarchy(hierarchy).backend("sqlite").build()
        stop = threading.Event()

        def keep_checkpointing():
            while not stop.is_set():
                engine.checkpoint()

        checkpointer = threading.Thread(target=keep_checkpointing)
        checkpointer.start()
        try:
            with engine.observe_stream(batch_size=16, max_latency=0.005) as stream:
                stream.submit_many(events)
        finally:
            stop.set()
            checkpointer.join()
        engine.checkpoint()
        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events)
        assert engine.movement_db.subjects_inside() == oracle.subjects_inside()
        assert engine.movement_db.archived_count == len(events)

    def test_submissions_racing_close_are_never_lost(self, deployment):
        """Regression: a submit()/flush() that slips in behind _CLOSE is
        drained by the writer — accepted records stay durable, flush()
        callers are released."""
        import threading

        hierarchy, _, events = deployment
        database = InMemoryMovementDatabase(hierarchy)
        ingestor = MovementIngestor(database.record_many, batch_size=64)
        accepted = []

        def producer(chunk):
            for record in chunk:
                try:
                    ingestor.submit(record)
                except IngestError:
                    return
                accepted.append(record)

        chunk_size = len(events) // 3
        producers = [
            threading.Thread(target=producer, args=(events[i * chunk_size : (i + 1) * chunk_size],))
            for i in range(3)
        ]
        for thread in producers:
            thread.start()
        ingestor.close()  # races the producers
        for thread in producers:
            thread.join()
        assert ingestor.written == len(accepted)
        assert len(database) == len(accepted)
