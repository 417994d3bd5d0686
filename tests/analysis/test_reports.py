"""Unit tests for violation reports and detection statistics."""

import pytest

from repro.analysis.reports import (
    build_violation_report,
    busiest_locations,
    detection_stats,
)
from repro.api import Ltam
from repro.engine.alerts import Alert, AlertKind
from repro.locations.layouts import ntu_campus_hierarchy
from repro.paper import fixtures as paper
from repro.simulation.movement import GroundTruth
from repro.storage.movement_db import InMemoryMovementDatabase


@pytest.fixture
def engine_after_timeline():
    engine = Ltam(ntu_campus_hierarchy())
    engine.grant_all(paper.section5_authorizations())
    for step in paper.section5_timeline():
        if step.action == "request":
            decision = engine.enforce((step.time, step.subject, step.location))
            if decision.granted:
                engine.observe_entry(step.time, step.subject, step.location)
        else:
            engine.observe_exit(step.time, step.subject, step.location)
    return engine


class TestViolationReport:
    def test_aggregates_decisions_and_alerts(self, engine_after_timeline):
        report = build_violation_report(engine_after_timeline.audit)
        assert report.total_decisions == 4
        assert report.granted == 2
        assert report.denied == 2
        assert report.grant_rate == pytest.approx(0.5)
        assert report.alerts_by_kind.get(AlertKind.DENIED_REQUEST) == 2
        assert report.alerts_by_subject.get("Bob") == 2
        assert report.total_alerts == 2

    def test_empty_audit(self):
        from repro.engine.audit import AuditLog

        report = build_violation_report(AuditLog())
        assert report.total_decisions == 0
        assert report.grant_rate == 0.0
        assert report.total_alerts == 0


class TestDetectionStats:
    def test_full_recall(self):
        truth = GroundTruth(((5, "Eve", "CAIS"),), (("Alice", "Lab1", 40),))
        alerts = [
            Alert(5, AlertKind.UNAUTHORIZED_ENTRY, "Eve", "CAIS"),
            Alert(60, AlertKind.OVERSTAY, "Alice", "Lab1"),
        ]
        stats = detection_stats(alerts, truth)
        assert stats.unauthorized_recall == 1.0
        assert stats.overstay_recall == 1.0
        assert stats.overall_recall == 1.0

    def test_partial_recall(self):
        truth = GroundTruth(((5, "Eve", "CAIS"), (9, "Mallory", "Lab1")), ())
        alerts = [Alert(5, AlertKind.UNAUTHORIZED_ENTRY, "Eve", "CAIS")]
        stats = detection_stats(alerts, truth)
        assert stats.unauthorized_recall == pytest.approx(0.5)
        assert stats.overall_recall == pytest.approx(0.5)

    def test_exit_outside_duration_counts_as_overstay_detection(self):
        truth = GroundTruth((), (("Alice", "Lab1", 40),))
        alerts = [Alert(55, AlertKind.EXIT_OUTSIDE_DURATION, "Alice", "Lab1")]
        assert detection_stats(alerts, truth).overstay_recall == 1.0

    def test_no_injected_violations_gives_perfect_recall(self):
        stats = detection_stats([], GroundTruth((), ()))
        assert stats.overall_recall == 1.0

    def test_zero_detection(self):
        truth = GroundTruth(((5, "Eve", "CAIS"),), ())
        assert detection_stats([], truth).overall_recall == 0.0


class TestBusiestLocations:
    def test_ranking(self):
        db = InMemoryMovementDatabase()
        for time, subject, location in [
            (1, "a", "X"),
            (2, "b", "X"),
            (3, "c", "Y"),
            (4, "a", "Z"),
            (5, "a", "X"),
        ]:
            db.record_entry(time, subject, location)
        db.record_exit(6, "a", "X")  # exits do not count
        ranking = busiest_locations(db, top=2)
        assert ranking == [("X", 3), ("Y", 1)]

    def test_empty_database(self):
        assert busiest_locations(InMemoryMovementDatabase()) == []
