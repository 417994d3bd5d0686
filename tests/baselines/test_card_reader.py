"""Unit tests for the card-reader baseline (request-time-only enforcement)."""

import pytest

from repro.baselines.card_reader import CardReaderSystem
from repro.core.requests import DenialReason
from repro.api import Ltam
from repro.engine.alerts import AlertKind
from repro.locations.layouts import ntu_campus_hierarchy
from repro.paper import fixtures as paper
from repro.storage.authorization_db import InMemoryAuthorizationDatabase
from repro.storage.movement_db import MovementKind, MovementRecord


@pytest.fixture
def reader():
    system = CardReaderSystem(ntu_campus_hierarchy())
    system.authorization_db.add_all(paper.section5_authorizations())
    return system


class TestSwipeDecisions:
    def test_swipe_decisions_match_definition7(self, reader):
        assert reader.swipe(10, "Alice", "CAIS").granted
        assert reader.swipe(15, "Bob", "CAIS").reason is DenialReason.NO_AUTHORIZATION
        assert reader.swipe(16, "Bob", "CHIPES").granted
        # Second swipe exhausts Bob's single-entry budget.
        assert reader.swipe(30, "Bob", "CHIPES").reason is DenialReason.ENTRY_LIMIT_EXHAUSTED

    def test_swipe_outside_window(self, reader):
        assert reader.swipe(5, "Alice", "CAIS").reason is DenialReason.OUTSIDE_ENTRY_DURATION

    def test_unknown_location(self, reader):
        assert reader.swipe(5, "Alice", "Narnia").reason is DenialReason.UNKNOWN_LOCATION

    def test_swipes_are_logged(self, reader):
        reader.swipe(10, "Alice", "CAIS")
        assert reader.swipe_log.entry_count("Alice", "CAIS") == 1


class TestMonitoringBlindSpot:
    def test_observations_never_raise_alerts(self, reader):
        assert reader.observe_entry(10, "Mallory", "CAIS") == []
        assert reader.observe_exit(99, "Mallory", "CAIS") == []
        assert reader.observe(MovementRecord(10, "Mallory", "CAIS", MovementKind.ENTER)) == []
        assert reader.check_overstays(10_000) == []
        assert reader.detected_violations() == []

    def test_ltam_detects_what_the_card_reader_misses(self, reader):
        """The Section 1 claim: continuous monitoring catches tailgating and overstay."""
        hierarchy = ntu_campus_hierarchy()
        ltam = Ltam(hierarchy)
        ltam.grant_all(paper.section5_authorizations())

        # Mallory tailgates into CAIS, and Alice overstays past t=50.
        card_alerts = []
        card_alerts += reader.observe_entry(12, "Mallory", "CAIS")
        ltam_alerts = list(ltam.observe_entry(12, "Mallory", "CAIS"))

        reader.observe_entry(10, "Alice", "CAIS")
        ltam.observe_entry(10, "Alice", "CAIS")
        card_alerts += reader.check_overstays(60)
        ltam.advance_to(60)
        ltam_alerts += ltam.alerts.of_kind(AlertKind.OVERSTAY)

        assert card_alerts == []
        kinds = {alert.kind for alert in ltam_alerts}
        assert AlertKind.UNAUTHORIZED_ENTRY in kinds
        assert AlertKind.OVERSTAY in kinds

    def test_shared_authorization_db_with_ltam(self):
        """Both systems can run off the same authorization database."""
        hierarchy = ntu_campus_hierarchy()
        shared = InMemoryAuthorizationDatabase(paper.section5_authorizations())
        reader = CardReaderSystem(hierarchy, authorization_db=shared)
        ltam = Ltam(hierarchy, authorization_db=shared)
        assert reader.swipe(10, "Alice", "CAIS").granted
        assert ltam.enforce((10, "Alice", "CAIS")).granted
