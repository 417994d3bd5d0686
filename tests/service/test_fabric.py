"""The partitioned serving fabric: map, router, reshard, wire host.

Router tests build two partition servers plus an identically seeded
embedded oracle and require routed answers to match the oracle exactly —
the same parity bar the single-server suite sets, now across a subject
split, a scatter-gather, and a live migration.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Ltam
from repro.engine.query.evaluator import QueryEngine
from repro.locations.multilevel import LocationHierarchy
from repro.service import (
    DecisionCache,
    FabricRouter,
    LtamServer,
    PartitionMap,
    ProtocolError,
    RouterServer,
    ServiceClient,
    ServiceError,
)
from repro.service.fabric import DEFAULT_ROUTER_PORT
from repro.service.protocol import request_to_dict
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.storage.sharding import DEFAULT_VIRTUAL_NODES

SUBJECT_COUNT = 24
HISTORY_EVENTS = 600


def _hierarchy() -> LocationHierarchy:
    return LocationHierarchy(grid_building("B", 4, 4))


def _fresh_engine(hierarchy, authorizations) -> Ltam:
    engine = Ltam.builder().hierarchy(hierarchy).build()
    engine.grant_all(authorizations)
    return engine


# --------------------------------------------------------------------- #
# PartitionMap
# --------------------------------------------------------------------- #
class TestPartitionMap:
    def test_rejects_empty_and_bad_addresses(self):
        with pytest.raises(ServiceError):
            PartitionMap({})
        with pytest.raises(ServiceError):
            PartitionMap({"a": "no-port-here"})
        with pytest.raises(ServiceError):
            PartitionMap({"a": "host:not-a-number"})
        with pytest.raises(ServiceError):
            PartitionMap({"a": "h:1"}, version=0)

    def test_owner_is_deterministic_and_total(self):
        pmap = PartitionMap({"a": "h:1", "b": "h:2", "c": "h:3"})
        again = PartitionMap({"c": "h:3", "a": "h:1", "b": "h:2"})
        for index in range(200):
            subject = f"user-{index:03d}"
            assert pmap.owner(subject) in pmap.names
            assert pmap.owner(subject) == again.owner(subject)

    def test_single_partition_owns_everything(self):
        pmap = PartitionMap({"solo": "h:1"})
        assert all(pmap.owner(f"s{i}") == "solo" for i in range(50))
        assert pmap.describe("solo")["coverage"] == 1.0

    def test_assignment_pins_beat_the_ring(self):
        pmap = PartitionMap({"a": "h:1", "b": "h:2"})
        subject = "user-000"
        natural = pmap.owner(subject)
        other = "b" if natural == "a" else "a"
        pinned = pmap.with_assignment(subject, other)
        assert pinned.owner(subject) == other
        assert pinned.version == pmap.version + 1
        # every other subject keeps its owner
        for index in range(1, 100):
            name = f"user-{index:03d}"
            assert pinned.owner(name) == pmap.owner(name)
        with pytest.raises(ServiceError):
            pmap.with_assignment(subject, "nope")

    def test_with_partitions_keeps_surviving_pins(self):
        pmap = PartitionMap({"a": "h:1", "b": "h:2"}).with_assignment("s", "a")
        grown = pmap.with_partitions({"a": "h:1", "b": "h:2", "c": "h:3"})
        assert grown.owner("s") == "a"
        shrunk = pmap.with_partitions({"b": "h:2"})
        assert "s" not in shrunk.assignments  # pin to the departed "a" dropped
        assert shrunk.owner("s") == "b"

    def test_wire_and_file_roundtrip(self, tmp_path):
        pmap = PartitionMap(
            {"a": "h:1", "b": "h:2"}, version=7, virtual_nodes=16
        ).with_assignment("hot", "a")
        clone = PartitionMap.from_wire(pmap.to_wire())
        assert clone.version == pmap.version
        assert clone.names == pmap.names
        assert all(clone.owner(f"x{i}") == pmap.owner(f"x{i}") for i in range(100))
        path = tmp_path / "map.json"
        pmap.save(str(path))
        loaded = PartitionMap.load(str(path))
        assert loaded.to_wire() == pmap.to_wire()
        with pytest.raises(ServiceError):
            PartitionMap.load(str(tmp_path / "missing.json"))
        with pytest.raises(ServiceError):
            PartitionMap.from_wire({"version": 1})

    def test_describe_coverage_partitions_the_ring(self):
        pmap = PartitionMap({"a": "h:1", "b": "h:2", "c": "h:3"})
        total = sum(pmap.describe(name)["coverage"] for name in pmap.names)
        assert total == pytest.approx(1.0, abs=1e-4)
        with pytest.raises(ServiceError):
            pmap.describe("nope")


class TestMinimalRemapProperties:
    """Growing/shrinking the fleet must remap only the minimal subject set."""

    @given(
        partitions=st.integers(min_value=1, max_value=6),
        subjects=st.integers(min_value=10, max_value=120),
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_map_growth_moves_subjects_only_to_the_new_partition(
        self, partitions, subjects
    ):
        old = PartitionMap(
            {f"p{i}": f"h:{i + 1}" for i in range(partitions)}, virtual_nodes=32
        )
        grown = old.with_partitions(
            {f"p{i}": f"h:{i + 1}" for i in range(partitions + 1)}
        )
        for index in range(subjects):
            subject = f"user-{index:03d}"
            before, after = old.owner(subject), grown.owner(subject)
            if before != after:
                assert after == f"p{partitions}", (
                    f"{subject} moved {before} -> {after}, not to the joining partition"
                )

    @given(
        partitions=st.integers(min_value=2, max_value=6),
        removed=st.integers(min_value=0, max_value=5),
        subjects=st.integers(min_value=10, max_value=120),
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_map_shrink_moves_only_the_departed_partitions_subjects(
        self, partitions, removed, subjects
    ):
        removed = removed % partitions
        old = PartitionMap(
            {f"p{i}": f"h:{i + 1}" for i in range(partitions)}, virtual_nodes=32
        )
        shrunk = old.with_partitions(
            {f"p{i}": f"h:{i + 1}" for i in range(partitions) if i != removed}
        )
        for index in range(subjects):
            subject = f"user-{index:03d}"
            before = old.owner(subject)
            if before != f"p{removed}":
                assert shrunk.owner(subject) == before

    def test_partition_map_and_default_ring_agree_on_the_construction(self):
        """The map places the shared default number of points per partition."""
        assert DEFAULT_VIRTUAL_NODES == PartitionMap({"a": "h:1"}).virtual_nodes


# --------------------------------------------------------------------- #
# Routed serving vs the embedded oracle
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fabric():
    """Two cached partition servers + router + an identically seeded oracle."""
    hierarchy = _hierarchy()
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=29)
    subjects = generate_subjects(SUBJECT_COUNT)
    authorizations = generator.authorizations(subjects)
    events = generator.movement_events(subjects, HISTORY_EVENTS)
    requests = AuthorizationWorkloadGenerator(hierarchy, seed=31).requests(
        subjects, 200
    )

    oracle = _fresh_engine(hierarchy, authorizations)
    servers = []
    addresses = {}
    for name in ("east", "west"):
        server = LtamServer(
            _fresh_engine(hierarchy, authorizations),
            cache=DecisionCache(),
            partition=name,
        )
        server.start()
        servers.append(server)
        addresses[name] = "%s:%d" % server.address
    router = FabricRouter(PartitionMap(addresses))

    oracle.observe_many(events)
    router.observe_batch(events, mode="monitor", wait=True)

    yield {
        "hierarchy": hierarchy,
        "oracle": oracle,
        "oracle_queries": QueryEngine(oracle),
        "router": router,
        "servers": dict(zip(("east", "west"), servers)),
        "subjects": subjects,
        "events": events,
        "requests": requests,
    }
    router.close()
    for server in servers:
        server.stop()


class TestRoutedServing:
    def test_point_decides_match_the_oracle(self, fabric):
        for request in fabric["requests"][:40]:
            routed = fabric["router"].decide(request)
            local = fabric["oracle"].decide(request)
            assert routed.granted == local.granted
            assert str(routed.reason) == str(local.reason)

    def test_decide_many_preserves_caller_order(self, fabric):
        routed = fabric["router"].decide_many(fabric["requests"])
        local = fabric["oracle"].decide_many(fabric["requests"])
        assert len(routed) == len(local)
        for ours, theirs in zip(routed, local):
            assert ours.granted == theirs.granted
            assert ours.request.subject == theirs.request.subject

    def test_subject_queries_route_to_the_owner(self, fabric):
        for subject in fabric["subjects"][:6]:
            text = f"WHERE IS {subject}"
            routed = fabric["router"].query(text)
            local = fabric["oracle_queries"].evaluate(text)
            assert routed.rows == local.rows

    def test_who_is_in_merges_across_partitions(self, fabric):
        for location in sorted(fabric["hierarchy"].primitive_names)[:6]:
            text = f"WHO IS IN {location}"
            routed = fabric["router"].query(text)
            local = fabric["oracle_queries"].evaluate(text)
            assert routed.rows == local.rows, location

    def test_global_violations_merge_canonically(self, fabric):
        routed = fabric["router"].query("VIOLATIONS")
        local = fabric["oracle_queries"].evaluate("VIOLATIONS")
        assert sorted(routed.rows) == sorted(local.rows)
        assert routed.rows == tuple(sorted(routed.rows))  # canonical order

    def test_layout_only_route_query_is_answered(self, fabric):
        locations = sorted(fabric["hierarchy"].primitive_names)
        routed = fabric["router"].query(f"ROUTE FROM {locations[0]} TO {locations[1]}")
        local = fabric["oracle_queries"].evaluate(
            f"ROUTE FROM {locations[0]} TO {locations[1]}"
        )
        assert routed.rows == local.rows

    def test_health_reports_the_map_and_every_partition(self, fabric):
        report = fabric["router"].health()
        assert report["status"] == "ok"
        assert report["role"] == "router"
        assert set(report["map"]["partitions"]) == {"east", "west"}
        for name, server in fabric["servers"].items():
            assert report["partitions"][name]["partition"]["name"] == name
        assert report["stats"]["routed"] > 0

    def test_dispatch_rejects_unknown_ops(self, fabric):
        with pytest.raises(ProtocolError):
            fabric["router"].dispatch({"op": "frobnicate"})

    def test_observe_batch_merges_receipts(self, fabric):
        receipt = fabric["router"].observe_batch([], mode="monitor", wait=True)
        assert receipt["accepted"] == 0
        # a waited empty batch is a flush barrier: it reaches every partition
        assert set(receipt["partitions"]) == {"east", "west"}

    def test_decide_many_empty_is_empty(self, fabric):
        assert fabric["router"].decide_many([]) == []


# --------------------------------------------------------------------- #
# Live migration
# --------------------------------------------------------------------- #
class TestReshard:
    def _build(self, partitions=("east", "west")):
        hierarchy = _hierarchy()
        generator = AuthorizationWorkloadGenerator(hierarchy, seed=47)
        subjects = generate_subjects(12)
        authorizations = generator.authorizations(subjects)
        events = generator.movement_events(subjects, 300)
        servers, addresses = {}, {}
        for name in partitions:
            server = LtamServer(
                _fresh_engine(hierarchy, authorizations),
                cache=DecisionCache(),
                partition=name,
            )
            server.start()
            servers[name] = server
            addresses[name] = "%s:%d" % server.address
        router = FabricRouter(PartitionMap(addresses))
        router.observe_batch(events, mode="monitor", wait=True)
        return hierarchy, subjects, events, servers, router

    def test_reshard_moves_exactly_the_remapped_subject(self):
        hierarchy, subjects, events, servers, router = self._build()
        try:
            hot = subjects[0]
            old_map = router.partition_map
            source = old_map.owner(hot)
            target = next(n for n in old_map.names if n != source)
            hot_alerts = [
                a for a in servers[source].engine.alerts.alerts if a.subject == hot
            ]
            hot_history = servers[source].engine.movement_db.history(
                subject=hot, include_archived=True
            )
            where = servers[source].engine.where_is(hot)

            summary = router.reshard(old_map.with_assignment(hot, target))
            assert summary["version"] == old_map.version + 1
            assert summary["subjects"] == [hot]
            assert summary["transfers"] == {f"{source}->{target}": 1}

            # the destination now holds the full history, alerts, and stay
            dst = servers[target].engine
            moved = dst.movement_db.history(subject=hot, include_archived=True)
            assert [
                (r.time, r.location, r.kind) for r in moved
            ] == [(r.time, r.location, r.kind) for r in hot_history]
            assert dst.where_is(hot) == where
            assert [
                (a.time, a.kind, a.location)
                for a in dst.alerts.alerts
                if a.subject == hot
            ] == [(a.time, a.kind, a.location) for a in hot_alerts]
            assert dst.monitor.sessions.current(hot) is not None or where is None

            # the source forgot everything
            src = servers[source].engine
            assert src.movement_db.history(subject=hot, include_archived=True) == []
            assert not [a for a in src.alerts.alerts if a.subject == hot]
            assert src.monitor.sessions.current(hot) is None

            # routed reads still work and reach the new owner
            assert router.partition_map.owner(hot) == target
            routed = router.query(f"WHERE IS {hot}")
            assert routed.scalar == where
        finally:
            router.close()
            for server in servers.values():
                server.stop()

    def test_per_partition_cache_sidecars_survive_a_reshard(self, tmp_path):
        """Each partition's durable cache file stays *valid* across a
        migration: the source's disk rows for the moved subject are
        tombstoned by the handoff, so a later warm restart of that
        partition can never resurrect a migrated subject's decisions."""
        from repro.service import TieredDecisionCache, engine_fingerprint

        hierarchy = _hierarchy()
        generator = AuthorizationWorkloadGenerator(hierarchy, seed=47)
        subjects = generate_subjects(12)
        authorizations = generator.authorizations(subjects)
        events = generator.movement_events(subjects, 300)
        servers, caches, addresses = {}, {}, {}
        for name in ("east", "west"):
            cache = TieredDecisionCache(str(tmp_path / f"{name}.cache.db"))
            server = LtamServer(
                _fresh_engine(hierarchy, authorizations), cache=cache, partition=name
            )
            server.start()
            servers[name], caches[name] = server, cache
            addresses[name] = "%s:%d" % server.address
        router = FabricRouter(PartitionMap(addresses))
        try:
            router.observe_batch(events, mode="monitor", wait=True)
            hot = subjects[0]
            old_map = router.partition_map
            source = old_map.owner(hot)
            target = next(n for n in old_map.names if n != source)
            locations = sorted(hierarchy.primitive_names)[:4]
            for time in (500, 600):
                for location in locations:
                    router.decide((time, hot, location))

            def _hot_rows(cache):
                return [row for row in cache.sidecar.rows() if row[0] == hot]

            assert _hot_rows(caches[source]), "priming persisted nothing"
            router.reshard(old_map.with_assignment(hot, target))
            assert not _hot_rows(caches[source]), (
                "the handoff left the migrated subject's rows in the "
                "source partition's cache file"
            )

            # Simulate a source-partition process restart over the same
            # sidecar: whatever warms back, none of it is the moved subject.
            engine = servers[source].engine
            caches[source].close()
            reopened = TieredDecisionCache(str(tmp_path / f"{source}.cache.db"))
            try:
                report = reopened.warm(
                    engine.movement_db, fingerprint=engine_fingerprint(engine)
                )
                assert report["examined"] == (
                    report["readmitted"] + report["dropped"] + report["retained_on_disk"]
                )
                assert not _hot_rows(reopened)
            finally:
                reopened.close()
            caches[source] = None

            # The destination keeps answering for the moved subject.
            routed = router.decide((700, hot, locations[0]))
            assert routed.request.subject == hot
        finally:
            router.close()
            for name, server in servers.items():
                server.stop()
                if caches[name] is not None:
                    caches[name].close()

    def test_warm_restart_under_a_simultaneous_map_change(self, tmp_path):
        """The collision of the two durability stories: a partition that
        restarts *right after* a reshard must come back with a sidecar
        that is both warm (kept subjects hit without re-evaluation) and
        clean (the migrated subject's rows never resurrect)."""
        from repro.service import TieredDecisionCache, engine_fingerprint

        hierarchy = _hierarchy()
        generator = AuthorizationWorkloadGenerator(hierarchy, seed=47)
        subjects = generate_subjects(12)
        authorizations = generator.authorizations(subjects)
        events = generator.movement_events(subjects, 300)
        servers, caches, addresses = {}, {}, {}
        for name in ("east", "west"):
            cache = TieredDecisionCache(str(tmp_path / f"{name}.cache.db"))
            server = LtamServer(
                _fresh_engine(hierarchy, authorizations), cache=cache, partition=name
            )
            server.start()
            servers[name], caches[name] = server, cache
            addresses[name] = "%s:%d" % server.address
        router = FabricRouter(PartitionMap(addresses))
        try:
            router.observe_batch(events, mode="monitor", wait=True)
            hot = subjects[0]
            old_map = router.partition_map
            source = old_map.owner(hot)
            target = next(n for n in old_map.names if n != source)
            kept = next(
                s for s in subjects[1:] if old_map.owner(s) == source and s != hot
            )
            locations = sorted(hierarchy.primitive_names)[:2]
            for location in locations:
                router.decide((500, hot, location))

            # the map change: hot migrates away mid-flight
            router.reshard(old_map.with_assignment(hot, target))
            assert router.partition_map.owner(kept) == source

            # prime the kept subject AFTER the handoff, so its cached
            # positions postdate every write the migration made
            kept_requests = [(600, kept, location) for location in locations]
            for request in kept_requests:
                router.decide(request)

            # ... and now the restart, over the very same sidecar file
            host, port = servers[source].address
            engine = servers[source].engine
            servers[source].stop()
            caches[source].close()
            reopened = TieredDecisionCache(str(tmp_path / f"{source}.cache.db"))
            caches[source] = reopened
            report = reopened.warm(
                engine.movement_db, fingerprint=engine_fingerprint(engine)
            )
            assert report["readmitted"] >= len(kept_requests), (
                "the kept subject's rows did not survive the reshard+restart"
            )
            assert not [row for row in reopened.sidecar.rows() if row[0] == hot], (
                "the migrated subject's rows resurrected through the restart"
            )
            servers[source] = LtamServer(
                engine, cache=reopened, host=host, port=port, partition=source
            )
            servers[source].start()

            # kept subjects answer warm: the routed repeats are cache hits
            hits_before = reopened.stats["hits"]
            for request in kept_requests:
                router.decide(request)
            assert reopened.stats["hits"] - hits_before == len(kept_requests)

            # the moved subject keeps answering from its new owner
            routed = router.decide((700, hot, locations[0]))
            assert routed.request.subject == hot
            assert router.partition_map.owner(hot) == target
        finally:
            router.close()
            for name, server in servers.items():
                server.stop()
                caches[name].close()

    def test_reshard_rejects_stale_maps(self):
        _, _, _, servers, router = self._build()
        try:
            with pytest.raises(ServiceError):
                router.reshard(router.partition_map)  # same version
        finally:
            router.close()
            for server in servers.values():
                server.stop()

    def test_reshard_survives_checkpointed_history(self):
        """A migrated subject's archived slice lands below the live slice."""
        hierarchy, subjects, events, servers, router = self._build()
        try:
            router.checkpoint_raw()  # archive everything so far
            more = AuthorizationWorkloadGenerator(hierarchy, seed=53).movement_events(
                subjects, 120
            )
            base = max(r.time for r in events)
            shifted = [
                type(r)(r.time + base, r.subject, r.location, r.kind) for r in more
            ]
            router.observe_batch(shifted, mode="monitor", wait=True)

            hot = subjects[0]
            old_map = router.partition_map
            source = old_map.owner(hot)
            target = next(n for n in old_map.names if n != source)
            expected = [
                (r.time, r.location, r.kind)
                for r in servers[source].engine.movement_db.history(
                    subject=hot, include_archived=True
                )
            ]
            assert expected, "the hot subject needs history for this test to bite"

            router.reshard(old_map.with_assignment(hot, target))
            landed = [
                (r.time, r.location, r.kind)
                for r in servers[target].engine.movement_db.history(
                    subject=hot, include_archived=True
                )
            ]
            assert landed == expected
        finally:
            router.close()
            for server in servers.values():
                server.stop()


# --------------------------------------------------------------------- #
# ConnectionPool under partition restart
# --------------------------------------------------------------------- #
class _CountingClient(ServiceClient):
    created = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)


def test_partition_restart_costs_one_reconnect(monkeypatch):
    """Router traffic across a partition restart reconnects exactly once."""
    hierarchy = _hierarchy()
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=61)
    subjects = generate_subjects(6)
    authorizations = generator.authorizations(subjects)

    server = LtamServer(_fresh_engine(hierarchy, authorizations), partition="solo")
    server.start()
    host, port = server.address

    monkeypatch.setattr("repro.service.client.ServiceClient", _CountingClient)
    _CountingClient.created = 0
    router = FabricRouter(PartitionMap({"solo": f"{host}:{port}"}), pool_size=1)
    try:
        request = (10, subjects[0], sorted(hierarchy.primitive_names)[0])
        for _ in range(5):
            router.decide(request)
        assert _CountingClient.created == 1  # one pooled connection, reused

        server.stop()
        server = LtamServer(
            _fresh_engine(hierarchy, authorizations),
            host=host,
            port=port,
            partition="solo",
        )
        server.start()

        for _ in range(5):
            router.decide(request)
        # the restart killed the pooled socket; the checkout liveness probe
        # discarded it and dialed exactly one replacement
        assert _CountingClient.created == 2
    finally:
        router.close()
        server.stop()


# --------------------------------------------------------------------- #
# The standalone router process (RouterServer)
# --------------------------------------------------------------------- #
class TestRouterServer:
    def test_wire_parity_and_errors(self):
        hierarchy = _hierarchy()
        generator = AuthorizationWorkloadGenerator(hierarchy, seed=67)
        subjects = generate_subjects(8)
        authorizations = generator.authorizations(subjects)
        events = generator.movement_events(subjects, 200)

        servers, addresses = [], {}
        for name in ("east", "west"):
            server = LtamServer(_fresh_engine(hierarchy, authorizations), partition=name)
            server.start()
            servers.append(server)
            addresses[name] = "%s:%d" % server.address
        router = FabricRouter(PartitionMap(addresses))
        hosted = RouterServer(router, port=0)
        hosted.start()
        client = ServiceClient(*hosted.address)
        try:
            assert hosted.address[1] != DEFAULT_ROUTER_PORT  # port=0 picked a free one
            client.call(
                "observe_batch",
                records=[[r.time, r.subject, r.location, r.kind.value] for r in events],
                mode="monitor",
                wait=True,
            )
            oracle = _fresh_engine(hierarchy, authorizations)
            oracle.observe_many(events)
            request = (events[-1].time + 1, subjects[0], sorted(hierarchy.primitive_names)[0])
            remote = client.call("decide", request=request_to_dict(oracle.decide(request).request))
            assert remote["granted"] == oracle.decide(request).granted

            report = client.call("health")
            assert report["role"] == "router"
            assert report["map"]["version"] == 1

            # a reshard over the wire: pin a subject and watch the version move
            hot = subjects[0]
            new_map = router.partition_map.with_assignment(
                hot,
                next(
                    n
                    for n in router.partition_map.names
                    if n != router.partition_map.owner(hot)
                ),
            )
            summary = client.call("reshard", map=new_map.to_wire())
            assert summary["version"] == 2
            assert client.call("health")["map"]["version"] == 2

            with pytest.raises(ProtocolError):
                client.call("frobnicate")
        finally:
            client.close()
            hosted.stop()
            router.close()
            for server in servers:
                server.stop()

    def test_concurrent_clients_scatter_without_interference(self):
        hierarchy = _hierarchy()
        generator = AuthorizationWorkloadGenerator(hierarchy, seed=71)
        subjects = generate_subjects(10)
        authorizations = generator.authorizations(subjects)

        servers, addresses = [], {}
        for name in ("east", "west"):
            server = LtamServer(_fresh_engine(hierarchy, authorizations), partition=name)
            server.start()
            servers.append(server)
            addresses[name] = "%s:%d" % server.address
        router = FabricRouter(PartitionMap(addresses))
        hosted = RouterServer(router, port=0)
        hosted.start()

        requests = AuthorizationWorkloadGenerator(hierarchy, seed=73).requests(
            subjects, 40
        )
        oracle = _fresh_engine(hierarchy, authorizations)
        expected = [d.granted for d in oracle.decide_many(requests)]
        failures = []

        def worker():
            client = ServiceClient(*hosted.address)
            try:
                raw = client.call(
                    "decide_many",
                    requests=[request_to_dict(oracle.decide(r).request) for r in requests],
                    trace=False,
                )
                granted = [d["granted"] for d in raw["decisions"]]
                if granted != expected:
                    failures.append(granted)
            finally:
                client.close()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert not failures
        finally:
            hosted.stop()
            router.close()
            for server in servers:
                server.stop()
