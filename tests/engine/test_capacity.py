"""Unit tests for occupancy-capacity monitoring (extension of the monitor)."""

import pytest

from repro.core.authorization import LocationTemporalAuthorization
from repro.api import Ltam
from repro.engine.alerts import AlertKind
from repro.errors import EnforcementError
from repro.locations.layouts import ntu_campus_hierarchy


@pytest.fixture
def engine():
    hierarchy = ntu_campus_hierarchy()
    engine = Ltam(hierarchy)
    for person in ("Alice", "Bob", "Carol"):
        engine.grant(LocationTemporalAuthorization((person, "CAIS"), (0, 100), (0, 200)))
    return engine


class TestCapacityConfiguration:
    def test_set_and_read_capacity(self, engine):
        engine.set_capacity("CAIS", 2)
        assert engine.monitor.capacity_of("CAIS") == 2
        assert engine.monitor.capacity_of("CHIPES") is None

    def test_invalid_capacity_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.set_capacity("CAIS", 0)

    def test_unknown_location_rejected(self, engine):
        with pytest.raises(EnforcementError):
            engine.set_capacity("Narnia", 2)


class TestCapacityAlerts:
    def test_alert_when_limit_exceeded(self, engine):
        engine.set_capacity("CAIS", 2)
        assert engine.observe_entry(10, "Alice", "CAIS") == []
        assert engine.observe_entry(11, "Bob", "CAIS") == []
        alerts = engine.observe_entry(12, "Carol", "CAIS")
        assert [a.kind for a in alerts] == [AlertKind.OVER_CAPACITY]
        assert "capacity limit of 2" in alerts[0].message

    def test_no_alert_after_someone_leaves(self, engine):
        engine.set_capacity("CAIS", 2)
        engine.observe_entry(10, "Alice", "CAIS")
        engine.observe_entry(11, "Bob", "CAIS")
        engine.observe_exit(12, "Alice", "CAIS")
        assert engine.observe_entry(13, "Carol", "CAIS") == []

    def test_no_limit_means_no_alert(self, engine):
        for index, person in enumerate(("Alice", "Bob", "Carol")):
            assert engine.observe_entry(10 + index, person, "CAIS") == []

    def test_capacity_alert_can_coexist_with_unauthorized_entry(self, engine):
        engine.set_capacity("CAIS", 1)
        engine.observe_entry(10, "Alice", "CAIS")
        alerts = engine.observe_entry(11, "Mallory", "CAIS")
        kinds = {a.kind for a in alerts}
        assert kinds == {AlertKind.UNAUTHORIZED_ENTRY, AlertKind.OVER_CAPACITY}
