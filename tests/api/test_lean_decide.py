"""``trace=False`` is a hint, not a second evaluator.

The PDP has one evaluator; ``decide(request, trace=False)`` and
``decide_many(requests, trace=False)`` must answer exactly as the default
call does on every workload — same grant, same reason, same authorization,
same budget arithmetic — on the default pipeline, the time-first pipeline
and a capacity-extended one.  Eliding traces from a response is the wire
encoder's job (``tests/service/test_server.py`` covers that side).
"""

from __future__ import annotations

from repro.core.requests import AccessRequest
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.api import Ltam
from repro.api.stages import (
    CandidateLookupStage,
    CapacityStage,
    EntryBudgetStage,
    EntryWindowStage,
    KnownLocationStage,
)


def _engine(*, time_first: bool = False, capacity: bool = False) -> Ltam:
    hierarchy = LocationHierarchy(grid_building("B", 5, 5))
    builder = Ltam.builder().hierarchy(hierarchy)
    if time_first:
        builder.pipeline(
            KnownLocationStage(),
            CandidateLookupStage(time_first=True),
            EntryWindowStage(),
            EntryBudgetStage(),
        )
    if capacity:
        builder.stage(CapacityStage())
        for row in range(5):
            builder.capacity(f"B.R{row}C0", 1)
    engine = builder.build()
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=11)
    subjects = generate_subjects(160)
    engine.grant_all(generator.authorizations(subjects))
    engine.movement_db.record_many(generator.movement_events(subjects, 12_000))
    return engine


def _requests(engine, count=500, seed=23):
    generator = AuthorizationWorkloadGenerator(engine.hierarchy, seed=seed)
    return generator.requests(generate_subjects(160), count)


def _auth_key(authorization):
    if authorization is None:
        return None
    return (
        authorization.subject,
        authorization.location,
        str(authorization.entry_duration),
        str(authorization.exit_duration),
        authorization.max_entries,
    )


def assert_equivalent(hinted, traced):
    assert hinted.granted == traced.granted
    assert hinted.reason == traced.reason
    assert hinted.entries_used == traced.entries_used
    assert _auth_key(hinted.authorization) == _auth_key(traced.authorization)


def assert_point_and_batch_parity(engine, requests):
    for request in requests:
        assert_equivalent(engine.pdp.decide(request, trace=False), engine.pdp.decide(request))
    hinted_batch = engine.pdp.decide_many(requests, trace=False)
    traced_batch = engine.pdp.decide_many(requests)
    assert len(hinted_batch) == len(traced_batch) == len(requests)
    for hinted, traced in zip(hinted_batch, traced_batch):
        assert_equivalent(hinted, traced)


class TestLeanParity:
    def test_default_pipeline_parity_on_workload(self):
        engine = _engine()
        assert_point_and_batch_parity(engine, _requests(engine))

    def test_time_first_pipeline_parity_on_workload(self):
        engine = _engine(time_first=True)
        assert_point_and_batch_parity(engine, _requests(engine, seed=29))

    def test_unknown_location_and_unknown_subject(self):
        engine = _engine()
        off_map = AccessRequest(50, "user-000", "B.Nowhere")
        unknown = AccessRequest(50, "nobody", "B.R0C0")
        assert_point_and_batch_parity(engine, [off_map, unknown])

    def test_capacity_pipeline_parity_on_workload(self):
        engine = _engine(capacity=True)
        requests = _requests(engine, count=150, seed=31)
        assert_point_and_batch_parity(engine, requests)
        # The hint never strips the trace: it names the deciding stage.
        for request in requests:
            decision = engine.pdp.decide(request, trace=False)
            assert decision.trace and decision.deciding_stage is not None

    def test_decide_many_threads_trace_flag(self):
        engine = _engine()
        requests = _requests(engine, count=200, seed=37)
        for hinted, point in zip(
            engine.pdp.decide_many(requests, trace=False),
            (engine.pdp.decide(request) for request in requests),
        ):
            assert_equivalent(hinted, point)
            assert hinted.trace == point.trace
