"""Tests for the PDP: stage pipeline, traces, and extension stages."""

import pytest

from repro.errors import EnforcementError
from repro.core.authorization import LocationTemporalAuthorization
from repro.core.requests import AccessDecision, AccessRequest, DenialReason
from repro.api import (
    CandidateLookupStage,
    CapacityStage,
    ConflictResolutionStage,
    Decision,
    DecisionPoint,
    EntryBudgetStage,
    EntryWindowStage,
    KnownLocationStage,
    Ltam,
    StageOutcome,
    default_pipeline,
    grant,
)
from repro.locations.layouts import ntu_campus_hierarchy
from repro.paper import fixtures as paper


@pytest.fixture
def engine():
    built = Ltam.builder().hierarchy(ntu_campus_hierarchy()).build()
    built.grant_all(paper.section5_authorizations())
    return built


class TestClassicPipeline:
    def test_decision_is_an_access_decision(self, engine):
        decision = engine.decide((15, "Alice", "CAIS"))
        assert isinstance(decision, Decision)
        assert isinstance(decision, AccessDecision)
        assert decision.granted

    def test_trace_names_the_granting_stage(self, engine):
        decision = engine.decide((15, "Alice", "CAIS"))
        assert decision.deciding_stage == "entry-budget"
        assert [result.stage for result in decision.trace] == [
            "known-location",
            "candidate-lookup",
            "entry-window",
            "entry-budget",
        ]
        assert decision.trace[-1].outcome is StageOutcome.GRANT
        assert decision.trace[-1].authorization is decision.authorization

    def test_unknown_location_denied_by_first_stage(self, engine):
        decision = engine.decide((15, "Alice", "Narnia"))
        assert decision.reason is DenialReason.UNKNOWN_LOCATION
        assert decision.deciding_stage == "known-location"
        assert len(decision.trace) == 1

    def test_no_authorization_denied_by_lookup_stage(self, engine):
        decision = engine.decide((15, "Mallory", "CAIS"))
        assert decision.reason is DenialReason.NO_AUTHORIZATION
        assert decision.deciding_stage == "candidate-lookup"

    def test_outside_window_denied_by_window_stage(self, engine):
        decision = engine.decide((5, "Alice", "CAIS"))
        assert decision.reason is DenialReason.OUTSIDE_ENTRY_DURATION
        assert decision.deciding_stage == "entry-window"

    def test_exhausted_budget_denied_by_budget_stage(self, engine):
        engine.observe_entry(11, "Alice", "CAIS")
        engine.observe_exit(12, "Alice", "CAIS")
        engine.observe_entry(13, "Alice", "CAIS")
        engine.observe_exit(14, "Alice", "CAIS")
        decision = engine.decide((15, "Alice", "CAIS"))
        assert decision.reason is DenialReason.ENTRY_LIMIT_EXHAUSTED
        assert decision.deciding_stage == "entry-budget"
        assert decision.entries_used == 2

    def test_explain_renders_every_stage(self, engine):
        text = engine.decide((15, "Alice", "CAIS")).explain()
        for stage in ("known-location", "candidate-lookup", "entry-window", "entry-budget"):
            assert stage in text


class TestPipelineConfiguration:
    def test_pipeline_must_end_with_a_verdict(self):
        hierarchy = ntu_campus_hierarchy()
        engine = Ltam(hierarchy)
        pdp = DecisionPoint.for_components(
            hierarchy,
            engine.authorization_db,
            engine.movement_db,
            stages=[KnownLocationStage()],
        )
        with pytest.raises(EnforcementError):
            pdp.decide(AccessRequest(5, "Alice", "CAIS"))

    def test_empty_pipeline_rejected(self):
        engine = Ltam(ntu_campus_hierarchy())
        with pytest.raises(EnforcementError):
            DecisionPoint(engine.pdp.info, stages=[])

    def test_non_stage_rejected(self):
        engine = Ltam(ntu_campus_hierarchy())
        with pytest.raises(EnforcementError):
            DecisionPoint(engine.pdp.info, stages=[object()])

    def test_default_pipeline_shape(self):
        names = [stage.name for stage in default_pipeline()]
        assert names == ["known-location", "candidate-lookup", "entry-window", "entry-budget"]


class TestCapacityStage:
    @pytest.fixture
    def engine(self):
        built = (
            Ltam.builder()
            .hierarchy(ntu_campus_hierarchy())
            .stage(CapacityStage())
            .capacity("CAIS", 1)
            .build()
        )
        for subject in ("Alice", "Bob"):
            built.grant(grant(subject).at("CAIS").during(0, 100))
        return built

    def test_denies_when_full(self, engine):
        assert engine.decide((10, "Alice", "CAIS")).granted
        engine.observe_entry(10, "Alice", "CAIS")
        decision = engine.decide((11, "Bob", "CAIS"))
        assert not decision.granted
        assert decision.reason is DenialReason.OVER_CAPACITY
        assert decision.deciding_stage == "capacity"

    def test_admits_again_after_exit(self, engine):
        engine.observe_entry(10, "Alice", "CAIS")
        engine.observe_exit(12, "Alice", "CAIS")
        assert engine.decide((13, "Bob", "CAIS")).granted

    def test_skips_unlimited_locations(self, engine):
        decision = engine.decide((10, "Alice", "CAIS"))
        skipped = {result.stage: result.outcome for result in decision.trace}
        assert skipped["capacity"] is StageOutcome.CONTINUE
        engine.grant(grant("Alice").at("CHIPES").during(0, 100))
        other = engine.decide((10, "Alice", "CHIPES"))
        outcomes = {result.stage: result.outcome for result in other.trace}
        assert outcomes["capacity"] is StageOutcome.SKIP


class TestConflictResolutionStage:
    def test_merges_overlapping_candidates(self):
        engine = (
            Ltam.builder()
            .hierarchy(ntu_campus_hierarchy())
            .stage(ConflictResolutionStage())
            .grant(grant("Alice").at("CAIS").during(0, 10).entries(1))
            .grant(grant("Alice").at("CAIS").during(5, 20).entries(1))
            .build()
        )
        # t=7 lies in both entry windows, so both candidates are admissible
        # and the stage merges them into their hull.
        decision = engine.decide((7, "Alice", "CAIS"))
        assert decision.granted
        conflict_result = next(r for r in decision.trace if r.stage == "conflict-resolution")
        assert "resolved" in conflict_result.detail
        assert decision.authorization.entry_duration.start == 0
        assert int(decision.authorization.entry_duration.end) == 20

    def test_skips_single_candidate(self):
        engine = (
            Ltam.builder()
            .hierarchy(ntu_campus_hierarchy())
            .stage(ConflictResolutionStage())
            .grant(grant("Alice").at("CAIS").during(0, 10))
            .build()
        )
        decision = engine.decide((5, "Alice", "CAIS"))
        outcomes = {result.stage: result.outcome for result in decision.trace}
        assert outcomes["conflict-resolution"] is StageOutcome.SKIP


class TestTimeFirstCandidateLookup:
    """CandidateLookupStage(time_first=True): interval-stab candidate lookup.

    Decisions (outcome, reason, granting authorization) must match the
    storage-order pipeline on every request; the expired grants are simply
    never materialized.
    """

    def _engines(self, grants):
        classic = Ltam.builder().hierarchy(ntu_campus_hierarchy()).build()
        time_first = (
            Ltam.builder()
            .hierarchy(ntu_campus_hierarchy())
            .pipeline(
                KnownLocationStage(),
                CandidateLookupStage(time_first=True),
                EntryWindowStage(),
                EntryBudgetStage(),
            )
            .build()
        )
        for engine in (classic, time_first):
            engine.grant_all(list(grants))
        return classic, time_first

    def _many_expired_grants(self):
        grants = []
        for index in range(40):  # long-dead windows
            grants.append(
                grant("alice")
                .at("CAIS")
                .during(index, index + 1)
                .entries(1)
                .with_id(f"expired-{index}")
                .build()
            )
        grants.append(
            grant("alice").at("CAIS").during(500, 600).entries(2).with_id("live").build()
        )
        return grants

    def test_decision_parity_across_a_request_sweep(self):
        classic, time_first = self._engines(self._many_expired_grants())
        for time in range(0, 700, 7):
            lhs = classic.decide((time, "alice", "CAIS"))
            rhs = time_first.decide((time, "alice", "CAIS"))
            assert lhs.granted == rhs.granted, time
            if lhs.granted:
                assert lhs.authorization.auth_id == rhs.authorization.auth_id
            else:
                assert lhs.reason == rhs.reason

    def test_expired_grants_are_not_materialized(self):
        _, time_first = self._engines(self._many_expired_grants())
        decision = time_first.decide((550, "alice", "CAIS"))
        assert decision.granted
        lookup = next(r for r in decision.trace if r.stage == "candidate-lookup")
        assert "time-first" in lookup.detail
        assert "1 candidate(s)" in lookup.detail  # 40 expired grants pruned

    def test_denial_reasons_survive_the_fast_path(self):
        classic, time_first = self._engines(self._many_expired_grants())
        # All grants expired at t=300: outside-entry-duration, not no-auth.
        for engine in (classic, time_first):
            decision = engine.decide((300, "alice", "CAIS"))
            assert not decision.granted
            assert decision.reason is DenialReason.OUTSIDE_ENTRY_DURATION
        # No grants at all for Bob at CAIS.
        for engine in (classic, time_first):
            decision = engine.decide((300, "bob", "CAIS"))
            assert not decision.granted
            assert decision.reason is DenialReason.NO_AUTHORIZATION

    def test_grant_selection_follows_storage_order(self):
        # Two live overlapping grants: the first stored must win on both paths.
        grants = [
            grant("alice").at("CAIS").during(0, 100).entries(1).with_id("first").build(),
            grant("alice").at("CAIS").during(0, 100).entries(1).with_id("second").build(),
        ]
        classic, time_first = self._engines(grants)
        assert classic.decide((10, "alice", "CAIS")).authorization.auth_id == "first"
        assert time_first.decide((10, "alice", "CAIS")).authorization.auth_id == "first"

    def test_parity_after_revocation(self):
        classic, time_first = self._engines(self._many_expired_grants())
        for engine in (classic, time_first):
            engine.revoke("live")
        for engine in (classic, time_first):
            decision = engine.decide((550, "alice", "CAIS"))
            assert not decision.granted
            assert decision.reason is DenialReason.OUTSIDE_ENTRY_DURATION

    def test_batch_path_memoizes_time_first_lookups(self):
        _, time_first = self._engines(self._many_expired_grants())
        requests = [AccessRequest(550, "alice", "CAIS") for _ in range(100)]
        decisions = time_first.decide_many(requests)
        assert all(decision.granted for decision in decisions)

    def test_time_first_without_pip_support_falls_back(self):
        from repro.api.pdp import PolicyInformationPoint
        from repro.api.stages import EvaluationContext

        info = PolicyInformationPoint(
            is_primitive=lambda location: True,
            candidates_for=lambda subject, location: [],
            entry_count=lambda subject, location, window: 0,
        )
        assert info.enterable_candidates is None
        stage = CandidateLookupStage(time_first=True)
        result = stage.evaluate(EvaluationContext(AccessRequest(5, "alice", "CAIS"), info))
        assert result.outcome is StageOutcome.DENY
        assert result.reason is DenialReason.NO_AUTHORIZATION
