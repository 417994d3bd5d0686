"""End-to-end integration tests across the whole stack.

Each test exercises a realistic slice of the system: tracking hardware →
movement events → enforcement engine → databases → queries/reports, on both
the paper's layout and synthetic campuses.
"""

import pytest

from repro.analysis.reachability import build_reachability_matrix
from repro.analysis.reports import build_violation_report, detection_stats
from repro.baselines.card_reader import CardReaderSystem
from repro.core.authorization import LocationTemporalAuthorization
from repro.api import Ltam
from repro.engine.alerts import AlertKind
from repro.engine.query.evaluator import QueryEngine
from repro.locations.layouts import ntu_campus_hierarchy
from repro.privacy.anonymizer import TraceAnonymizer
from repro.privacy.policy import Granularity, ReleasePolicy
from repro.simulation.buildings import campus_hierarchy
from repro.simulation.movement import MovementSimulator
from repro.simulation.workload import AuthorizationWorkloadGenerator, WorkloadConfig, generate_subjects
from repro.spatial.boundary import grid_boundaries
from repro.spatial.positioning import TrackingSimulator
from repro.storage.authorization_db import SqliteAuthorizationDatabase
from repro.storage.movement_db import MovementKind, SqliteMovementDatabase
from repro.storage.profile_db import SqliteUserProfileDatabase


class TestTrackingToEnforcementPipeline:
    """Position fixes → tracking simulator → engine observations → alerts/queries."""

    def test_visitor_walk_through_the_ntu_campus(self):
        hierarchy = ntu_campus_hierarchy()
        engine = Ltam(hierarchy)
        # The visitor may enter the general office and walk to CAIS, once.
        for location in ("SCE.GO", "SCE.SectionA", "SCE.SectionB", "CAIS"):
            engine.grant(
                LocationTemporalAuthorization(("Visitor", location), (0, 100), (0, 150), 2)
            )

        boundary_map = grid_boundaries(hierarchy.primitive_names, hierarchy=hierarchy, columns=5)
        tracker = TrackingSimulator(boundary_map)
        fixes = tracker.fixes_for_path(
            "Visitor", ["SCE.GO", "SCE.SectionA", "SCE.SectionB", "CAIS"], start_time=5, dwell=10
        )

        for observation, previous in tracker.transitions(fixes):
            if previous is not None:
                engine.observe_exit(observation.time, observation.subject, previous)
            if observation.location is not None:
                engine.observe_entry(observation.time, observation.subject, observation.location)

        # A fully authorized walk raises no alerts and ends inside CAIS.
        assert [a for a in engine.alerts if a.kind is not AlertKind.DENIED_REQUEST] == []
        assert engine.where_is("Visitor") == "CAIS"
        queries = QueryEngine(engine)
        assert queries.evaluate("WHO IS IN CAIS").rows == (("Visitor",),)

    def test_intruder_is_flagged_along_the_same_pipeline(self):
        hierarchy = ntu_campus_hierarchy()
        engine = Ltam(hierarchy)  # no authorizations at all
        boundary_map = grid_boundaries(hierarchy.primitive_names, hierarchy=hierarchy, columns=5)
        tracker = TrackingSimulator(boundary_map)
        fixes = tracker.fixes_for_path("Intruder", ["SCE.GO", "SCE.SectionA"], start_time=0, dwell=3)
        for observation, previous in tracker.transitions(fixes):
            if previous is not None:
                engine.observe_exit(observation.time, observation.subject, previous)
            engine.observe_entry(observation.time, observation.subject, observation.location)
        unauthorized = engine.alerts.of_kind(AlertKind.UNAUTHORIZED_ENTRY)
        assert len(unauthorized) == 2


class TestSimulatedPopulationScenario:
    def test_monitoring_detects_injected_violations_and_baseline_does_not(self):
        hierarchy = campus_hierarchy("Campus", 3, rooms_per_building=6, seed=21)
        subjects = generate_subjects(8)
        generator = AuthorizationWorkloadGenerator(
            hierarchy, config=WorkloadConfig(horizon=600, coverage=0.8, wide_open_entries=True), seed=21
        )
        auths = generator.authorizations(subjects)

        simulator = MovementSimulator(hierarchy, auths, seed=22)
        trace = simulator.population_trace(subjects, steps=6, p_tailgate=0.4, p_overstay=0.3)

        engine = Ltam(hierarchy)
        engine.grant_all(auths)
        reader = CardReaderSystem(hierarchy, authorization_db=engine.authorization_db)

        last_time = 0
        for record in trace:
            last_time = max(last_time, record.time)
            if record.kind is MovementKind.ENTER:
                engine.observe_entry(record.time, record.subject, record.location)
                reader.observe_entry(record.time, record.subject, record.location)
            else:
                engine.observe_exit(record.time, record.subject, record.location)
                reader.observe_exit(record.time, record.subject, record.location)
        engine.monitor.check_overstays(last_time + 1_000)
        reader.check_overstays(last_time + 1_000)

        stats = detection_stats(engine.alerts.alerts, trace.truth)
        if trace.truth.unauthorized_entries:
            assert stats.unauthorized_recall == 1.0
        if trace.truth.overstays:
            assert stats.overstay_recall > 0.0
        # The card-reader baseline, fed the same observations, detects nothing.
        baseline_stats = detection_stats(reader.detected_violations(), trace.truth)
        if trace.truth.violation_count:
            assert baseline_stats.overall_recall == 0.0

        report = build_violation_report(engine.audit)
        assert report.total_alerts >= trace.truth.violation_count

    def test_reachability_matrix_over_generated_workload(self):
        hierarchy = campus_hierarchy("Campus", 2, rooms_per_building=4, seed=3)
        subjects = generate_subjects(4)
        generator = AuthorizationWorkloadGenerator(
            hierarchy, config=WorkloadConfig(coverage=0.5, horizon=400), seed=3
        )
        auths = generator.authorizations(subjects)
        matrix = build_reachability_matrix(hierarchy, subjects, auths)
        assert set(matrix.per_subject) == set(subjects)
        for summary in matrix.per_subject.values():
            assert 0.0 <= summary.coverage <= 1.0


class TestPrivacyPipeline:
    def test_release_policy_and_anonymized_export(self):
        hierarchy = ntu_campus_hierarchy()
        engine = Ltam(hierarchy)
        engine.grant(LocationTemporalAuthorization(("Alice", "CAIS"), (0, 50), (0, 100)))
        engine.grant(LocationTemporalAuthorization(("Bob", "CHIPES"), (0, 50), (0, 100)))
        engine.observe_entry(10, "Alice", "CAIS")
        engine.observe_entry(12, "Bob", "CHIPES")

        policy = ReleasePolicy(hierarchy, default=Granularity.DENY)
        policy.allow_application("facility-dashboard", Granularity.COMPOSITE)
        decision = policy.release("facility-dashboard", "Alice", engine.where_is("Alice"))
        assert decision.released_value == "SCE"
        assert not policy.release("ad-network", "Alice", engine.where_is("Alice")).released

        anonymizer = TraceAnonymizer(hierarchy, k=2, time_bucket=20)
        released = anonymizer.anonymize(engine.movement_db.history())
        # Both records generalize to SCE within the same bucket, so k=2 holds.
        assert len(released) == 2
        assert {record.composite for record in released} == {"SCE"}


class TestSqliteEndToEnd:
    def test_full_stack_on_sqlite_backends(self, tmp_path):
        hierarchy = ntu_campus_hierarchy()
        engine = Ltam(
            hierarchy,
            authorization_db=SqliteAuthorizationDatabase(str(tmp_path / "auth.db")),
            movement_db=SqliteMovementDatabase(str(tmp_path / "move.db"), hierarchy),
            profile_db=SqliteUserProfileDatabase(str(tmp_path / "profiles.db")),
        )
        engine.profile_db.set_supervisor("Alice", "Bob")
        base = LocationTemporalAuthorization(("Alice", "CAIS"), (0, 50), (10, 100), 2, auth_id="base")
        engine.grant(base)
        from repro.core.operators.subject import SupervisorOf
        from repro.core.rules import AuthorizationRule, OperatorTuple

        engine.add_rule(AuthorizationRule(0, base, OperatorTuple(op_subject=SupervisorOf()), rule_id="sup"))
        assert engine.authorization_db.for_subject_location("Bob", "CAIS")
        assert engine.enforce_and_enter((10, "Bob", "CAIS")).granted
        assert engine.where_is("Bob") == "CAIS"
        queries = QueryEngine(engine)
        assert queries.evaluate("AUTHORIZATIONS FOR Bob AT CAIS").rows
