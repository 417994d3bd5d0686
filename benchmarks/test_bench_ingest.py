"""E-ingest — batched ingest and checkpoint-bounded recovery.

Two scale properties of the plain in-memory and SQLite movement stores:

* **Batched ingest** — a 120k-event trace split into 4 tracker streams and
  landed with one ``record_many`` per stream on a plain
  :class:`~repro.storage.movement_db.InMemoryMovementDatabase` must run
  **≥2x** the throughput of one ``record()`` per event on the same store.
  The single variable is the batch: same trace, same store class, one
  thread.  The ratio is the median of interleaved pairs (the order flips
  each pair) with the cyclic garbage collector paused inside the timed
  regions, so a collection landing in one path does not decide the gate.
* **Bounded recovery** — three SQLite databases with the *same* 110k-event
  total log but checkpoints covering different prefixes must recover
  (stale derived tables, the crash shape) in time that tracks **events
  since the checkpoint**, not total log length: replaying 10k costs
  measurably less than replaying 110k on an identically sized database.
"""

import gc
import sqlite3
import statistics
import time as _time

import pytest

from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.storage.movement_db import InMemoryMovementDatabase, SqliteMovementDatabase

EVENT_COUNT = 120_000
SUBJECT_COUNT = 400
TRACKERS = 4
PAIRS = 7
SPEEDUP_FLOOR = 2.0

RECOVERY_BASE = 100_000
RECOVERY_TAIL = 10_000


@pytest.fixture(scope="module")
def trace():
    hierarchy = LocationHierarchy(grid_building("B", 6, 6))
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=47)
    subjects = generate_subjects(SUBJECT_COUNT)
    events = generator.movement_events(subjects, EVENT_COUNT)
    streams = AuthorizationWorkloadGenerator(hierarchy, seed=47).movement_streams(
        subjects, EVENT_COUNT, trackers=TRACKERS
    )
    assert len(events) == EVENT_COUNT
    assert sum(len(stream) for stream in streams) == EVENT_COUNT
    return hierarchy, subjects, events, streams


def _timed(ingest, database):
    """Wall time of ``ingest(database)`` with the cyclic collector paused."""
    gc.collect()
    gc.disable()
    try:
        started = _time.perf_counter()
        ingest(database)
        return _time.perf_counter() - started
    finally:
        gc.enable()


def _per_event(events):
    def ingest(database):
        record = database.record
        for event in events:
            record(event)

    return ingest


def _batched(streams):
    def ingest(database):
        for stream in streams:
            database.record_many(stream)

    return ingest


def test_batched_ingest_beats_per_event_record(trace, table_printer):
    hierarchy, _, events, streams = trace
    paths = [("per_event", _per_event(events)), ("batched", _batched(streams))]
    times = {name: [] for name, _ in paths}
    databases = {}
    for pair in range(PAIRS):
        for name, ingest in paths if pair % 2 == 0 else paths[::-1]:
            databases[name] = InMemoryMovementDatabase(hierarchy)
            times[name].append(_timed(ingest, databases[name]))

    ratios = sorted(serial / batched for serial, batched in zip(times["per_event"], times["batched"]))
    speedup = statistics.median(ratios)
    serial_time = statistics.median(times["per_event"])
    batched_time = statistics.median(times["batched"])
    table_printer(
        f"Ingest throughput, {EVENT_COUNT} events ({TRACKERS} tracker streams, "
        f"median of {PAIRS} interleaved pairs, gc paused)",
        ["path", "seconds", "events/s"],
        [
            ["record() per event", f"{serial_time:.3f}", f"{EVENT_COUNT / serial_time:,.0f}"],
            [
                f"record_many per stream ({TRACKERS} batches)",
                f"{batched_time:.3f}",
                f"{EVENT_COUNT / batched_time:,.0f}",
            ],
            ["speedup", f"{speedup:.2f}x", f"(floor {SPEEDUP_FLOOR}x; pairs {ratios[0]:.2f}x-{ratios[-1]:.2f}x)"],
        ],
    )
    serial_db, batched_db = databases["per_event"], databases["batched"]
    assert len(batched_db) == len(serial_db) == EVENT_COUNT
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched ingest only {speedup:.2f}x over per-event record() "
        f"(floor {SPEEDUP_FLOOR}x, median of {PAIRS} pairs: {ratios})"
    )
    # Throughput without correctness is meaningless: same final state.
    assert batched_db.subjects_inside() == serial_db.subjects_inside()
    assert (
        batched_db.occupancy_service.entry_counts()
        == serial_db.occupancy_service.entry_counts()
    )


def _build_recovery_db(path, hierarchy, events, *, checkpoint_after):
    """A 110k-event SQLite log whose checkpoint covers *checkpoint_after* events.

    The first *checkpoint_after* events are checkpointed; the rest of the
    base lands normally; the tail is appended by a raw connection that
    maintains neither the derived tables nor the applied stamp — exactly
    the stale shape a crashed or legacy writer leaves behind.
    """
    database = SqliteMovementDatabase(path, hierarchy)
    base, tail = events[:RECOVERY_BASE], events[RECOVERY_BASE:]
    if checkpoint_after:
        database.record_many(base[:checkpoint_after])
        database.checkpoint()
        database.record_many(base[checkpoint_after:])
    else:
        database.record_many(base)
    database.close()
    raw = sqlite3.connect(path)
    raw.executemany(
        "INSERT INTO movements (time, subject, location, kind) VALUES (?, ?, ?, ?)",
        [(r.time, r.subject, r.location, r.kind.value) for r in tail],
    )
    raw.commit()
    raw.close()


def _measure_recovery(path, hierarchy, repeats=3):
    """Best-of-N stale-reopen time (re-staling the stamp between rounds)."""
    best = float("inf")
    for _ in range(repeats):
        raw = sqlite3.connect(path)
        raw.execute("UPDATE occ_meta SET value = 0 WHERE key = 'applied_seq'")
        raw.commit()
        raw.close()
        started = _time.perf_counter()
        database = SqliteMovementDatabase(path, hierarchy)
        best = min(best, _time.perf_counter() - started)
        database.close()
    return best


def test_recovery_cost_tracks_events_since_checkpoint(tmp_path, trace, table_printer):
    hierarchy, subjects, events, _ = trace
    events = events[: RECOVERY_BASE + RECOVERY_TAIL]
    total = len(events)

    scenarios = [
        ("checkpoint @ 100k (replay 10k)", RECOVERY_BASE, RECOVERY_TAIL),
        ("checkpoint @ 50k  (replay 60k)", 50_000, 60_000),
        ("no checkpoint     (replay 110k)", 0, total),
    ]
    timings = []
    for label, checkpoint_after, replay_span in scenarios:
        path = str(tmp_path / f"recovery-{checkpoint_after}.db")
        _build_recovery_db(path, hierarchy, events, checkpoint_after=checkpoint_after)
        elapsed = _measure_recovery(path, hierarchy)
        timings.append((label, checkpoint_after, replay_span, elapsed))

    table_printer(
        f"Stale reopen (crash recovery), identical {total}-event logs",
        ["scenario", "events since checkpoint", "seconds"],
        [[label, str(replay), f"{elapsed:.4f}"] for label, _, replay, elapsed in timings],
    )

    near, mid, none = (elapsed for _, _, _, elapsed in timings)
    # Cost must track the replay span (10k < 60k < 110k)...
    assert near < mid < none
    # ...and the headline claim: a near-tip checkpoint makes recovery on an
    # identically sized log at least 2x cheaper than the full replay.
    assert near < none / 2, (
        f"recovery after a 100k checkpoint took {near:.4f}s vs {none:.4f}s without "
        "one — replay cost is not bounded by events-since-checkpoint"
    )

    # Recovered state must equal a full-replay oracle's.
    oracle = InMemoryMovementDatabase(hierarchy)
    oracle.record_many(events)
    for _, checkpoint_after, _, _ in timings:
        path = str(tmp_path / f"recovery-{checkpoint_after}.db")
        database = SqliteMovementDatabase(path, hierarchy)
        assert database.subjects_inside() == oracle.subjects_inside()
        for subject in subjects[:25]:
            location = oracle.current_location(subject)
            if location is not None:
                assert database.entry_count(subject, location) == oracle.entry_count(
                    subject, location
                )
        database.close()
