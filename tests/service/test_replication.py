"""Replica-coherent serving and the PEP-routed ``enforce`` op.

Two kinds of properties are proven here:

* **enforce semantics** — every remote enforcement (cached or not) lands in
  the audit log, cache hits carry a ``CACHED`` generation marker, and
  denials re-emit their alert;
* **replica coherence** — two ``LtamServer`` replicas over one SQLite file
  with an invalidation bus serve parity-correct decisions after the other
  replica's observes and admin mutations, including across replica restarts.

The cross-topology conformance suite (``tests/conformance``) exercises the
same topology against full workload traces; these tests pin the individual
mechanisms.
"""

from __future__ import annotations

import time

import pytest

from repro.engine.alerts import AlertKind
from repro.engine.audit import AuditEntryKind
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.api import Ltam
from repro.service import (
    ConnectionPool,
    DecisionCache,
    InvalidationBus,
    LtamServer,
    RemotePep,
    ServiceClient,
)

SUBJECT_COUNT = 30


def _hierarchy() -> LocationHierarchy:
    return LocationHierarchy(grid_building("B", 4, 4))


def _seeded_engine(hierarchy=None, *, path=None) -> Ltam:
    hierarchy = hierarchy if hierarchy is not None else _hierarchy()
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=11)
    subjects = generate_subjects(SUBJECT_COUNT)
    builder = Ltam.builder().hierarchy(hierarchy)
    if path is not None:
        builder = builder.backend("sqlite", path)
    engine = builder.build()
    engine.grant_all(generator.authorizations(subjects))
    engine.movement_db.record_many(generator.movement_events(subjects, 1_000))
    return engine


def _granted_request(engine, count=80, seed=23):
    generator = AuthorizationWorkloadGenerator(engine.hierarchy, seed=seed)
    for candidate in generator.requests(generate_subjects(SUBJECT_COUNT), count):
        if engine.decide(candidate).granted:
            return candidate
    raise AssertionError("no granted request in the pool")


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestEnforceOp:
    def test_every_enforcement_is_audited_and_hits_are_marked_cached(self):
        engine = _seeded_engine()
        with LtamServer(engine, cache=DecisionCache()) as running:
            with ServiceClient(*running.address) as client:
                request = _granted_request(engine)
                base = len(engine.audit.of_kind(AuditEntryKind.DECISION))
                first, first_cached = client.enforce_detail(request)
                second, second_cached = client.enforce_detail(request)
                assert first.granted and second.granted
                assert not first_cached and second_cached
                decisions = engine.audit.of_kind(AuditEntryKind.DECISION)
                assert len(decisions) == base + 2  # the hit was re-audited
                notes = [
                    entry
                    for entry in engine.audit.of_kind(AuditEntryKind.NOTE)
                    if "CACHED" in str(entry.payload)
                ]
                assert len(notes) == 1
                assert "generation" in str(notes[0].payload)
                assert notes[0].subject == request.subject

    def test_cached_denial_re_emits_its_alert(self):
        engine = _seeded_engine()
        with LtamServer(engine, cache=DecisionCache()) as running:
            with ServiceClient(*running.address) as client:
                request = (5, "intruder", "B.R0C0")
                before = len(engine.alerts.of_kind(AlertKind.DENIED_REQUEST))
                first, first_cached = client.enforce_detail(request)
                second, second_cached = client.enforce_detail(request)
                assert not first.granted and not second.granted
                assert not first_cached and second_cached
                after = len(engine.alerts.of_kind(AlertKind.DENIED_REQUEST))
                assert after == before + 2  # the guards see every attempt

    def test_enforce_matches_the_embedded_pep(self):
        engine = _seeded_engine()
        oracle = _seeded_engine()
        generator = AuthorizationWorkloadGenerator(engine.hierarchy, seed=31)
        pool = generator.requests(generate_subjects(SUBJECT_COUNT), 60)
        with LtamServer(engine) as running:  # uncached: pure PEP routing
            with ServiceClient(*running.address) as client:
                for request in pool:
                    remote = client.enforce(request)
                    local = oracle.pep.enforce(request)
                    assert remote.granted == local.granted
                    assert remote.reason == local.reason
                    assert remote.entries_used == local.entries_used
        assert len(engine.audit.of_kind(AuditEntryKind.DECISION)) == len(pool)

    def test_remote_pep_enforce_facade(self):
        engine = _seeded_engine()
        with LtamServer(engine, cache=DecisionCache()) as running:
            with RemotePep(*running.address) as pep:
                request = _granted_request(engine)
                assert pep.enforce(request).granted
                assert engine.audit.of_kind(AuditEntryKind.DECISION)

    def test_decide_stays_unaudited(self):
        engine = _seeded_engine()
        with LtamServer(engine, cache=DecisionCache()) as running:
            with ServiceClient(*running.address) as client:
                request = _granted_request(engine)
                before = len(engine.audit)
                client.decide(request)
                client.decide(request)
                assert len(engine.audit) == before  # decide is the pure op


class TestPickupBeforeWrite:
    def test_behind_writer_folds_foreign_rows_before_writing(self, tmp_path):
        """A replica that both reads and writes must fold foreign committed
        rows before its own insert moves the applied seq past them —
        otherwise they fall outside the pickup window forever."""
        from repro.storage.movement_db import (
            MovementKind,
            MovementRecord,
            SqliteMovementDatabase,
        )

        path = str(tmp_path / "multi.db")
        a = SqliteMovementDatabase(path)
        b = SqliteMovementDatabase(path)
        a.record_entry(1, "alice", "L1")
        # b is behind (applied 0); its write would take seq 2.
        b.record_entry(2, "bob", "L2")
        assert b.current_location("alice") == "L1"
        assert b.applied_position == b.high_water == 2
        # Same through the batch and bulk() paths, in both directions.
        a.record_many([MovementRecord(3, "carol", "L1", MovementKind.ENTER)])
        assert a.current_location("bob") == "L2"
        with b.bulk():
            b.record_entry(4, "dave", "L2")
        assert b.current_location("carol") == "L1"
        assert a.pickup() and a.current_location("dave") == "L2"
        a.close()
        b.close()


class TestSyncOp:
    def test_standalone_sync_reports_positions(self):
        engine = _seeded_engine()
        with LtamServer(engine) as running:
            with ServiceClient(*running.address) as client:
                receipt = client.sync()
                assert receipt["applied"] == 0
                assert receipt["position"] == receipt["high_water"]

    def test_sync_picks_up_foreign_sqlite_writes(self, tmp_path):
        path = str(tmp_path / "shared.db")
        hierarchy = _hierarchy()
        writer = _seeded_engine(hierarchy, path=path)
        reader = Ltam.builder().hierarchy(hierarchy).backend("sqlite", path).build()
        with LtamServer(reader) as running:
            with ServiceClient(*running.address) as client:
                # The writer appends outside the server; a plain (bus-less)
                # server still catches up through the sync op.
                subject = "late-arrival"
                writer.movement_db.record_entry(999, subject, "B.R0C0")
                receipt = client.sync()
                assert receipt["applied"] >= 1
                assert reader.movement_db.current_location(subject) == "B.R0C0"


@pytest.fixture
def replica_pair(tmp_path):
    """Two cached server replicas over one SQLite file, bus-coherent."""
    path = str(tmp_path / "shared.db")
    hierarchy = _hierarchy()
    engine_a = _seeded_engine(hierarchy, path=path)
    engine_b = Ltam.builder().hierarchy(hierarchy).backend("sqlite", path).build()
    bus = InvalidationBus()
    server_a = LtamServer(engine_a, cache=DecisionCache(), bus=bus, replica_id="a")
    server_a.start()
    server_b = LtamServer(
        engine_b, cache=DecisionCache(), bus=bus.address, replica_id="b"
    )
    server_b.start()
    try:
        # Each replica's first bus connection runs a full resync (pickup
        # plus a cache clear) on the link thread; wait for both, or a test
        # that warms a cache right away can have the resync wipe it.
        assert wait_until(
            lambda: server_a.coherence.stats["recoveries"] >= 1
            and server_b.coherence.stats["recoveries"] >= 1
        )
        yield server_a, server_b
    finally:
        server_b.stop()
        server_a.stop()


class TestReplicaCoherence:
    def test_observes_on_one_replica_evict_and_update_the_other(self, replica_pair):
        server_a, server_b = replica_pair
        engine_a = server_a.engine
        generator = AuthorizationWorkloadGenerator(engine_a.hierarchy, seed=77)
        subjects = generate_subjects(SUBJECT_COUNT)
        pool = generator.requests(subjects, 120)
        future = generator.movement_events(subjects, 600, start_time=10)
        # Same single-generator seeding discipline as _seeded_engine: the
        # movement trace is drawn from the RNG state the grants left behind.
        oracle = _seeded_engine(engine_a.hierarchy)
        with ServiceClient(*server_a.address) as client_a, ServiceClient(
            *server_b.address
        ) as client_b:
            for round_index in range(3):
                # Warm b's cache, observe through a, barrier, re-decide on b.
                client_b.decide_many(pool)
                chunk = future[round_index * 200 : (round_index + 1) * 200]
                client_a.observe_batch(chunk, mode="record", wait=True)
                oracle.movement_db.record_many(chunk)
                client_b.sync()
                remote = client_b.decide_many(pool)
                local = oracle.decide_many(pool)
                for r, l in zip(remote, local):
                    assert r.granted == l.granted and r.reason == l.reason
            stats = server_b.cache.stats
            assert stats["hits"] > 0, "b never served from its cache"
            assert stats["invalidated"] > 0, "the bus never evicted anything on b"

    def test_admin_mutation_on_one_replica_evicts_the_other(self, replica_pair):
        server_a, server_b = replica_pair
        engine_a = server_a.engine
        request = _granted_request(engine_a)
        with ServiceClient(*server_b.address) as client_b:
            first = client_b.decide(request)
            assert first.granted
            # Revoke through replica a's engine: the publishing cache
            # wrapper fans the eviction out over the bus.
            engine_a.revoke(first.authorization.auth_id)
            assert wait_until(
                lambda: server_b.cache.stats["invalidated"] > 0
                or server_b.cache.stats["size"] == 0
            )
            client_b.sync()
            after = client_b.decide(request)
            local = engine_a.decide(request)
            assert after.granted == local.granted
            assert not after.granted

    def test_replica_restart_recovers_coherence(self, replica_pair, tmp_path):
        server_a, server_b = replica_pair
        engine_a = server_a.engine
        generator = AuthorizationWorkloadGenerator(engine_a.hierarchy, seed=99)
        subjects = generate_subjects(SUBJECT_COUNT)
        pool = generator.requests(subjects, 60)
        with ServiceClient(*server_b.address) as client_b:
            client_b.decide_many(pool)  # warm the soon-to-be-stale cache
        recoveries_before = server_b.coherence.stats["recoveries"]
        server_b.stop()
        # While b is down, a keeps observing — b's cache is now stale and
        # the bus frames announcing it are long gone.
        with ServiceClient(*server_a.address) as client_a:
            client_a.observe_batch(
                generator.movement_events(subjects, 300, start_time=50),
                mode="record",
                wait=True,
            )
        server_b.start()
        assert wait_until(
            lambda: server_b.coherence.stats["recoveries"] > recoveries_before
        )
        with ServiceClient(*server_b.address) as client_b:
            client_b.sync()
            remote = client_b.decide_many(pool)
        local = engine_a.decide_many(pool)
        for r, l in zip(remote, local):
            assert r.granted == l.granted and r.reason == l.reason

    def test_strict_sync_recovers_when_the_bus_is_unreachable(self, replica_pair):
        """A barrier that cannot drain the bus must not pretend: it falls
        back to pickup + cache clear (missed admin evictions are otherwise
        unrecoverable while the link is down)."""
        server_a, server_b = replica_pair
        coherence = server_b.coherence
        with ServiceClient(*server_b.address) as client_b:
            request = _granted_request(server_a.engine)
            client_b.decide(request)  # warm an entry
        assert len(server_b.cache.inner) > 0
        server_a.coherence.bus.stop()  # the hub dies; b's link goes down
        try:
            assert wait_until(lambda: not coherence.stats.get("connected", True))
            recoveries = coherence.stats["recoveries"]
            coherence.sync()  # strict: must recover, not silently succeed
            assert coherence.stats["recoveries"] == recoveries + 1
            assert len(server_b.cache.inner) == 0
        finally:
            server_a.coherence.bus.start()

    def test_failed_server_start_does_not_leak_the_coherence_machinery(self):
        import socket as socket_module

        engine = _seeded_engine()
        blocker = socket_module.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        _, taken_port = blocker.getsockname()
        bus = InvalidationBus()
        server = LtamServer(engine, port=taken_port, bus=bus, replica_id="leaky")
        try:
            with pytest.raises(Exception):
                server.start()  # bind fails: the port is taken
            # The hosted bus and the link/ticker threads were torn down, so
            # a retry on a free port works instead of "already started".
            assert bus.started is False
        finally:
            blocker.close()
            server.stop()

    def test_health_reports_coherence(self, replica_pair):
        _, server_b = replica_pair
        with ServiceClient(*server_b.address) as client_b:
            health = client_b.health()
        coherence = health["coherence"]
        assert coherence["replica"] == "b"
        assert coherence["connected"] is True
        assert "applied_position" in coherence


class TestPoolLivenessProbe:
    def test_alive_detects_a_dead_server(self):
        engine = _seeded_engine()
        server = LtamServer(engine)
        server.start()
        client = ServiceClient(*server.address)
        try:
            assert client.alive()
            server.stop()
            assert wait_until(lambda: not client.alive())
        finally:
            client.close()

    def test_lease_after_server_restart_hands_out_a_live_connection(self):
        """Regression: a pooled connection killed by a server restart used to
        surface as a ServiceConnectionError on the next request, depending on
        pool-miss timing; the checkout probe must absorb the restart."""
        engine = _seeded_engine()
        server = LtamServer(engine)
        server.start()
        host, port = server.address
        pool = ConnectionPool(host, port, size=2)
        try:
            with pool.lease() as client:
                assert client.health()["status"] == "ok"
            server.stop()  # the pooled connection is now a corpse
            restarted = LtamServer(engine, host=host, port=port)
            restarted.start()
            try:
                with pool.lease() as client:  # must not raise
                    assert client.health()["status"] == "ok"
            finally:
                restarted.stop()
        finally:
            pool.close()
            server.stop()
