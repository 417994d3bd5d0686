"""Sharded occupancy layer: hash ring, shard-merge parity, parallel ingest.

The sharded projection must be observationally identical to the single
:class:`~repro.storage.occupancy.OccupancyService` it partitions — these
tests drive both with the same traces (the single-shard service is the
oracle) and compare every read, then exercise the genuinely concurrent
paths: multi-threaded ``record_many`` ingest and shard-by-shard
checkpointing.
"""

import threading

import pytest

from repro.errors import StorageError
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.storage.movement_db import (
    InMemoryMovementDatabase,
    MovementKind,
    MovementRecord,
    ShardedInMemoryMovementDatabase,
    SqliteMovementDatabase,
)
from repro.storage.occupancy import OccupancyService
from repro.storage.sharding import (
    HashRing,
    ShardedOccupancyService,
    default_shard_count,
    resolve_shard_count,
    stable_hash,
)
from repro.temporal.interval import TimeInterval


@pytest.fixture(scope="module")
def trace():
    hierarchy = LocationHierarchy(grid_building("B", 4, 4))
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=23)
    subjects = generate_subjects(60)
    return hierarchy, subjects, generator.movement_events(subjects, 5_000)


class TestHashRing:
    def test_deterministic_across_instances(self):
        first, second = HashRing(8), HashRing(8)
        for key in generate_subjects(200):
            assert first.shard_for(key) == second.shard_for(key)

    def test_stable_hash_is_process_independent(self):
        # CRC32 of the UTF-8 bytes — a frozen value, not the salted hash().
        assert stable_hash("Alice") == 3863974723

    def test_distribution_is_roughly_even(self):
        ring = HashRing(4)
        counts = [0] * 4
        for key in generate_subjects(4_000):
            counts[ring.shard_for(key)] += 1
        assert min(counts) > 0.5 * (4_000 / 4)

    def test_consistency_under_growth(self):
        # Growing the ring by one shard remaps a minority of the keys.
        small, grown = HashRing(4), HashRing(5)
        keys = generate_subjects(2_000)
        moved = sum(1 for key in keys if small.shard_for(key) != grown.shard_for(key))
        assert moved < len(keys) / 2

    def test_rejects_bad_configuration(self):
        with pytest.raises(StorageError):
            HashRing(0)
        with pytest.raises(StorageError):
            HashRing(2, virtual_nodes=0)

    def test_resolve_shard_count(self):
        assert resolve_shard_count(None) is None
        assert resolve_shard_count(3) == 3
        assert resolve_shard_count("auto") == default_shard_count()
        for bogus in (0, -1, True, 2.5, "four"):
            with pytest.raises(StorageError):
                resolve_shard_count(bogus)


class TestShardMergeParity:
    """Every sharded read must equal the single-shard oracle's."""

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_reads_match_single_shard_oracle(self, trace, shards):
        hierarchy, subjects, events = trace
        oracle = OccupancyService()
        oracle.apply_many(events)
        sharded = ShardedOccupancyService(shards)
        sharded.apply_many(events)

        assert sharded.subjects_inside() == oracle.subjects_inside()
        assert sharded.entry_counts() == oracle.entry_counts()
        locations = sorted({record.location for record in events})
        for location in locations:
            assert sharded.occupants(location) == oracle.occupants(location)
            assert sharded.occupancy(location) == oracle.occupancy(location)
            assert sharded.entry_histogram(location) == oracle.entry_histogram(location)
        window = TimeInterval(100, 900)
        for subject in subjects:
            assert sharded.current_location(subject) == oracle.current_location(subject)
            assert sharded.inside_since(subject) == oracle.inside_since(subject)
            for location in locations[:5]:
                assert sharded.entry_count(subject, location) == oracle.entry_count(
                    subject, location
                )
                assert sharded.entry_count(subject, location, window) == oracle.entry_count(
                    subject, location, window
                )
                assert sharded.last_entry(subject, location) == oracle.last_entry(
                    subject, location
                )
                assert sharded.last_movement(subject, location) == oracle.last_movement(
                    subject, location
                )

    def test_anomalies_merge_in_time_order(self):
        sharded = ShardedOccupancyService(4)
        sharded.apply(MovementRecord(5, "Alice", "A", MovementKind.EXIT))
        sharded.apply(MovementRecord(9, "Bob", "B", MovementKind.EXIT))
        sharded.apply(MovementRecord(2, "Carol", "C", MovementKind.EXIT))
        assert [anomaly.time for anomaly in sharded.anomalies] == [2, 5, 9]


class TestShardedDatabase:
    def test_state_matches_unsharded_database(self, trace):
        hierarchy, subjects, events = trace
        oracle = InMemoryMovementDatabase(hierarchy)
        oracle.record_many(events)
        sharded = ShardedInMemoryMovementDatabase(hierarchy, shards=4)
        sharded.record_many(events)

        assert len(sharded) == len(oracle)
        assert sharded.subjects_inside() == oracle.subjects_inside()
        for subject in subjects:
            assert sharded.history(subject=subject) == oracle.history(subject=subject)

    def test_parallel_ingest_matches_serial_oracle(self, trace):
        hierarchy, subjects, events = trace
        generator = AuthorizationWorkloadGenerator(hierarchy, seed=23)
        streams = generator.movement_streams(subjects, 5_000, trackers=4)

        oracle = InMemoryMovementDatabase(hierarchy)
        for stream in streams:
            oracle.record_many(stream)

        sharded = ShardedInMemoryMovementDatabase(hierarchy, shards=4)
        threads = [
            threading.Thread(target=sharded.record_many, args=(stream,)) for stream in streams
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(sharded) == sum(len(stream) for stream in streams)
        assert sharded.subjects_inside() == oracle.subjects_inside()
        assert (
            sharded.occupancy_service.entry_counts()
            == oracle.occupancy_service.entry_counts()
        )
        for subject in subjects:
            assert sharded.history(subject=subject) == oracle.history(subject=subject)

    def test_history_is_a_valid_linearization(self, trace):
        hierarchy, subjects, events = trace
        sharded = ShardedInMemoryMovementDatabase(hierarchy, shards=4)
        for start in range(0, len(events), 500):  # several batches
            sharded.record_many(events[start : start + 500])
        merged = sharded.history()
        assert sorted(
            (record.time, record.subject, record.location, record.kind) for record in merged
        ) == sorted((record.time, record.subject, record.location, record.kind) for record in events)
        per_subject = {}
        for record in merged:
            per_subject.setdefault(record.subject, []).append(record)
        for subject in subjects:
            expected = [record for record in events if record.subject == subject]
            assert per_subject.get(subject, []) == expected

    def test_strict_mode_rejects_like_unsharded(self, trace):
        hierarchy, _, _ = trace
        strict_oracle = InMemoryMovementDatabase(hierarchy, strict=True)
        strict_sharded = ShardedInMemoryMovementDatabase(hierarchy, strict=True, shards=4)
        bogus = MovementRecord(5, "Nobody", sorted(hierarchy.primitive_names)[0], MovementKind.EXIT)
        with pytest.raises(StorageError) as oracle_error:
            strict_oracle.record(bogus)
        with pytest.raises(StorageError) as sharded_error:
            strict_sharded.record(bogus)
        assert str(oracle_error.value) == str(sharded_error.value)
        assert len(strict_sharded) == 0

    def test_validation_rejects_unknown_locations(self, trace):
        hierarchy, _, _ = trace
        sharded = ShardedInMemoryMovementDatabase(hierarchy, shards=2)
        with pytest.raises(StorageError):
            sharded.record(MovementRecord(1, "Alice", "nowhere", MovementKind.ENTER))
        assert len(sharded) == 0

    def test_batch_error_names_first_unknown_location(self, trace):
        hierarchy, _, _ = trace
        known = sorted(hierarchy.primitive_names)[0]
        batch = [
            MovementRecord(1, "Alice", known, MovementKind.ENTER),
            MovementRecord(2, "Bob", "nowhere", MovementKind.ENTER),
            MovementRecord(3, "Carol", "elsewhere", MovementKind.ENTER),
        ]
        for database in (
            InMemoryMovementDatabase(hierarchy),
            ShardedInMemoryMovementDatabase(hierarchy, shards=2),
        ):
            with pytest.raises(StorageError, match="'nowhere'"):
                database.record_many(batch)
            assert len(database) == 0

    def test_caller_list_is_not_aliased_by_the_log(self, trace):
        # record_many reads a list argument in place; reusing the buffer
        # afterwards must not rewrite what was recorded.
        hierarchy, subjects, events = trace
        sharded = ShardedInMemoryMovementDatabase(hierarchy, shards=3)
        buffer = list(events[:200])
        sharded.record_many(buffer)
        buffer[:] = events[200:400]
        assert len(sharded) == 200
        for subject in subjects:
            assert sharded.history(subject=subject) == [
                record for record in events[:200] if record.subject == subject
            ]

    def test_partition_is_index_ordered_and_keeps_arrival_order(self, trace):
        _, _, events = trace
        service = ShardedOccupancyService(4)
        partitions = service.partition(events[:500])
        assert list(partitions) == sorted(partitions)
        assert all(partitions.values())
        for index, records in partitions.items():
            assert records == [r for r in events[:500] if service.shard_for(r.subject) == index]

    def test_locked_shards_holds_every_lock_and_releases_on_error(self):
        service = ShardedOccupancyService(4)
        with pytest.raises(RuntimeError):
            with service.locked_shards([3, 1]) as projections:
                assert list(projections) == [1, 3]
                assert service._locks[1].locked() and service._locks[3].locked()
                assert not service._locks[0].locked()
                raise RuntimeError("boom")
        assert not any(lock.locked() for lock in service._locks)

    def test_clear_resets_everything(self, trace):
        hierarchy, _, events = trace
        sharded = ShardedInMemoryMovementDatabase(hierarchy, shards=3)
        sharded.record_many(events[:1_000])
        sharded.checkpoint()
        sharded.record_many(events[1_000:1_100])
        sharded.clear()
        assert len(sharded) == 0
        assert sharded.archived_count == 0
        assert sharded.history(include_archived=True) == []
        assert sharded.subjects_inside() == {}

    def test_sqlite_projection_sharding_parity(self, trace):
        hierarchy, subjects, events = trace
        plain = SqliteMovementDatabase(":memory:", hierarchy)
        plain.record_many(events)
        sharded = SqliteMovementDatabase(":memory:", hierarchy, shards=4)
        sharded.record_many(events)
        assert sharded.shard_count == 4
        assert sharded.subjects_inside() == plain.subjects_inside()
        window = TimeInterval(0, 2_000)
        for subject in subjects[:20]:
            location = plain.current_location(subject)
            if location is None:
                continue
            assert sharded.entry_count(subject, location) == plain.entry_count(subject, location)
            assert sharded.entry_count(subject, location, window) == plain.entry_count(
                subject, location, window
            )
