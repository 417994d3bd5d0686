"""Tests for the batch decision API: parity with per-request evaluation."""

import pytest

from repro.api import Ltam, grant
from repro.core.requests import AccessRequest
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import (
    AuthorizationWorkloadGenerator,
    WorkloadConfig,
    generate_subjects,
)


@pytest.fixture
def deployment():
    hierarchy = LocationHierarchy(grid_building("B", 4, 4))
    engine = Ltam.builder().hierarchy(hierarchy).build()
    subjects = generate_subjects(12)
    generator = AuthorizationWorkloadGenerator(
        hierarchy,
        config=WorkloadConfig(horizon=300, coverage=0.7, max_entries=2, unlimited_fraction=0.1),
        seed=11,
    )
    engine.grant_all(generator.authorizations(subjects))
    # Consume some entry budget so the budget stage has real counts to check.
    for request in generator.requests(subjects, 150):
        if engine.decide(request).granted:
            engine.observe_entry(request.time, request.subject, request.location)
            engine.observe_exit(request.time, request.subject, request.location)
    requests = generator.requests(subjects, 600)
    return engine, requests


class TestDecideMany:
    def test_parity_with_per_request_loop(self, deployment):
        engine, requests = deployment
        loop = [engine.decide(request) for request in requests]
        batch = engine.decide_many(requests)
        assert len(batch) == len(loop)
        for single, batched in zip(loop, batch):
            assert batched.request is single.request or batched.request == single.request
            assert batched.granted == single.granted
            assert batched.reason == single.reason
            assert batched.entries_used == single.entries_used
            if single.granted:
                assert batched.authorization.auth_id == single.authorization.auth_id

    def test_preserves_request_order(self, deployment):
        engine, requests = deployment
        batch = engine.decide_many(requests)
        assert [decision.request for decision in batch] == requests

    def test_every_decision_carries_a_trace(self, deployment):
        engine, requests = deployment
        for decision in engine.decide_many(requests):
            assert decision.trace
            assert decision.deciding_stage is not None

    def test_is_pure(self, deployment):
        engine, requests = deployment
        engine.decide_many(requests)
        assert len(engine.audit.decisions()) == 0

    def test_empty_batch(self, deployment):
        engine, _ = deployment
        assert engine.decide_many([]) == []

    def test_accepts_triples(self):
        hierarchy = LocationHierarchy(grid_building("B", 2, 2))
        engine = Ltam.builder().hierarchy(hierarchy).build()
        decisions = engine.decide_many([(5, "alice", "B.R0C0"), (6, "alice", "B.R0C1")])
        assert all(isinstance(d.request, AccessRequest) for d in decisions)


class TestBatchSnapshot:
    """decide_many memoizes PIP reads only where that pays: always on
    SQLite-backed stores, and in memory when the batch repeats pairs."""

    @staticmethod
    def _count_candidate_reads(engine):
        info = engine.pdp.info
        reads = []
        live = info.candidates_for

        def counted(subject, location):
            reads.append((subject, location))
            return live(subject, location)

        info.candidates_for = counted
        return reads

    @staticmethod
    def _engine(backend=None):
        builder = Ltam.builder().hierarchy(LocationHierarchy(grid_building("B", 3, 3)))
        if backend is not None:
            builder = builder.backend(backend)
        engine = builder.build()
        for row in range(3):
            engine.grant(grant("alice").at(f"B.R{row}C0").during(0, 100))
        return engine

    def test_memory_backend_reads_distinct_pairs_live(self):
        engine = self._engine()
        assert not engine.pdp.info.snapshot_pays
        reads = self._count_candidate_reads(engine)
        requests = [AccessRequest(10, "alice", f"B.R{row}C0") for row in range(3)]
        assert all(decision.granted for decision in engine.decide_many(requests))
        assert len(reads) == 3

    def test_memory_backend_memoizes_a_batch_of_repeated_pairs(self):
        engine = self._engine()
        reads = self._count_candidate_reads(engine)
        requests = [AccessRequest(time, "alice", "B.R0C0") for time in range(10, 30)]
        decisions = engine.decide_many(requests)
        assert [d.granted for d in decisions] == [engine.decide(r).granted for r in requests]
        assert reads.count(("alice", "B.R0C0")) == 1 + len(requests)  # batch once, loop 20x

    def test_sqlite_backend_always_memoizes(self):
        engine = self._engine("sqlite")
        assert engine.pdp.info.snapshot_pays
        reads = self._count_candidate_reads(engine)
        requests = [AccessRequest(10, "alice", f"B.R{row}C0") for row in range(3)] * 2
        assert all(decision.granted for decision in engine.decide_many(requests))
        assert len(reads) == 3
