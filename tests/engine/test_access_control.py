"""Unit and scenario tests for the Access Control Engine (Section 5): :class:`Ltam`."""

import pytest

from repro.api import Decision, Ltam
from repro.errors import EnforcementError
from repro.core.authorization import LocationTemporalAuthorization
from repro.core.requests import DenialReason
from repro.engine.alerts import AlertKind
from repro.locations.layouts import ntu_campus_hierarchy
from repro.paper import fixtures as paper
from repro.storage.authorization_db import SqliteAuthorizationDatabase
from repro.storage.movement_db import SqliteMovementDatabase
from repro.storage.profile_db import SqliteUserProfileDatabase


@pytest.fixture
def engine():
    return Ltam(ntu_campus_hierarchy())


@pytest.fixture
def loaded(engine):
    engine.grant_all(paper.section5_authorizations())
    return engine


class TestAdministration:
    def test_grant_and_revoke(self, engine):
        auth = LocationTemporalAuthorization(("Alice", "CAIS"), (0, 10), (0, 20), auth_id="g1")
        engine.grant(auth)
        assert "g1" in engine.authorization_db
        revoked = engine.revoke("g1")
        assert [a.auth_id for a in revoked] == ["g1"]

    def test_grant_rejects_unknown_location(self, engine):
        bad = LocationTemporalAuthorization(("Alice", "Narnia"), (0, 10), (0, 20))
        with pytest.raises(EnforcementError):
            engine.grant(bad)

    def test_revoke_cascades_to_derived(self, engine):
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        engine.add_rule(paper.example_rule_r1(base))
        derived_ids = [a.auth_id for a in engine.authorization_db.all() if a.derived_from == "a1"]
        assert derived_ids
        engine.revoke("a1")
        assert len(engine.authorization_db) == 0

    def test_revoke_without_cascade(self, engine):
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        engine.add_rule(paper.example_rule_r1(base))
        engine.revoke("a1", cascade=False)
        assert len(engine.authorization_db) == 1  # the derived one survives

    def test_add_rule_derives_and_stores(self, engine):
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        result = engine.add_rule(paper.example_rule_r1(base))
        assert len(result.derived) == 1
        stored = engine.authorization_db.for_subject_location("Bob", "CAIS")
        assert len(stored) == 1
        assert stored[0] == paper.expected_derived_a2()
        assert engine.rules

    def test_add_rule_without_deriving(self, engine):
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        result = engine.add_rule(paper.example_rule_r1(base), derive_now=False)
        assert result.derived == ()
        assert len(engine.authorization_db) == 1

    def test_rederivation_after_profile_change(self, engine):
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        engine.add_rule(paper.example_rule_r1(base))
        # Alice gets a new supervisor; re-derivation grants Carol as well.
        engine.profile_db.set_supervisor("Alice", "Carol")
        engine.derive_authorizations()
        subjects = {a.subject for a in engine.authorization_db.for_location("CAIS")}
        assert "Carol" in subjects

    def test_derivation_is_idempotent(self, engine):
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        engine.add_rule(paper.example_rule_r1(base))
        count = len(engine.authorization_db)
        engine.derive_authorizations()
        assert len(engine.authorization_db) == count


class TestRequestEvaluation:
    def test_unknown_location_denied(self, loaded):
        decision = loaded.enforce((5, "Alice", "SCE.GO"))
        assert not decision.granted
        assert decision.reason is DenialReason.NO_AUTHORIZATION
        missing = loaded.decide((5, "Alice", "Narnia"))
        assert missing.reason is DenialReason.UNKNOWN_LOCATION

    def test_outside_entry_duration(self, loaded):
        decision = loaded.enforce((5, "Alice", "CAIS"))
        assert decision.reason is DenialReason.OUTSIDE_ENTRY_DURATION

    def test_grant_and_entry_counting(self, loaded):
        assert loaded.enforce_and_enter((10, "Alice", "CAIS")).granted
        # The budget is 2: one more entry is allowed, then exhausted.
        loaded.observe_exit(12, "Alice", "CAIS")
        assert loaded.enforce_and_enter((15, "Alice", "CAIS")).granted
        loaded.observe_exit(16, "Alice", "CAIS")
        final = loaded.enforce((18, "Alice", "CAIS"))
        assert not final.granted
        assert final.reason is DenialReason.ENTRY_LIMIT_EXHAUSTED
        assert final.entries_used == 2

    def test_decide_is_pure(self, loaded):
        before = len(loaded.audit)
        loaded.decide((10, "Alice", "CAIS"))
        assert len(loaded.audit) == before

    def test_denied_requests_raise_denied_alert_and_audit_entry(self, loaded):
        loaded.enforce((15, "Bob", "CAIS"))
        assert [a.kind for a in loaded.alerts] == [AlertKind.DENIED_REQUEST]
        assert len(loaded.audit.decisions(granted=False)) == 1

    def test_denied_decide_raises_no_alert_and_no_audit_entry(self, loaded):
        loaded.decide((15, "Bob", "CAIS"))
        assert len(loaded.alerts) == 0
        assert len(loaded.audit) == 0

    def test_decisions_carry_traces(self, loaded):
        decision = loaded.decide((15, "Alice", "CAIS"))
        assert isinstance(decision, Decision)
        assert decision.deciding_stage == "entry-budget"
        denied = loaded.decide((15, "Mallory", "CAIS"))
        assert denied.reason is DenialReason.NO_AUTHORIZATION
        assert denied.deciding_stage == "candidate-lookup"


class TestDerivationCaching:
    def test_cached_engine_reused_while_profiles_unchanged(self, engine):
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        engine.add_rule(paper.example_rule_r1(base))
        first = engine.derivation
        engine.derive_authorizations()
        engine.derive_authorizations()
        # The in-memory profile directory mutates in place, so the cached
        # derivation engine stays valid and is not rebuilt per call.
        assert engine.derivation is first

    def test_in_memory_profile_changes_visible_through_cache(self, engine):
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        engine.add_rule(paper.example_rule_r1(base))
        cached = engine.derivation
        engine.profile_db.set_supervisor("Alice", "Carol")
        engine.derive_authorizations()
        assert engine.derivation is cached
        subjects = {a.subject for a in engine.authorization_db.for_location("CAIS")}
        assert "Carol" in subjects

    def test_sqlite_profile_change_rebuilds_the_engine(self):
        engine = Ltam(ntu_campus_hierarchy(), profile_db=SqliteUserProfileDatabase())
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        engine.add_rule(paper.example_rule_r1(base))
        stale = engine.derivation
        # A write invalidates the SQLite directory cache; the derivation
        # engine must follow the fresh directory object.
        engine.profile_db.set_supervisor("Alice", "Carol")
        engine.derive_authorizations()
        assert engine.derivation is not stale
        subjects = {a.subject for a in engine.authorization_db.for_location("CAIS")}
        assert "Carol" in subjects

    def test_rules_survive_a_rebuild(self):
        engine = Ltam(ntu_campus_hierarchy(), profile_db=SqliteUserProfileDatabase())
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        rule = paper.example_rule_r1(base)
        engine.add_rule(rule)
        engine.profile_db.set_supervisor("Alice", "Carol")
        rebuilt = engine.derivation
        assert [r.rule_id for r in rebuilt.rules] == [rule.rule_id]


class TestSection5Scenario:
    def test_full_timeline_matches_paper(self, loaded):
        outcomes = []
        for step in paper.section5_timeline():
            if step.action == "request":
                decision = loaded.enforce((step.time, step.subject, step.location))
                outcomes.append(decision.granted)
                if decision.granted:
                    loaded.observe_entry(step.time, step.subject, step.location)
            else:
                loaded.observe_exit(step.time, step.subject, step.location)
        expected = [s.expected_granted for s in paper.section5_timeline() if s.action == "request"]
        assert outcomes == expected

    def test_where_is_and_occupants(self, loaded):
        loaded.enforce_and_enter((10, "Alice", "CAIS"))
        assert loaded.where_is("Alice") == "CAIS"
        assert loaded.occupants("CAIS") == ["Alice"]
        loaded.observe_exit(20, "Alice", "CAIS")
        assert loaded.where_is("Alice") is None

    def test_overstay_alert_via_clock(self, loaded):
        loaded.enforce_and_enter((10, "Alice", "CAIS"))
        loaded.advance_to(49)
        assert not loaded.alerts.of_kind(AlertKind.OVERSTAY)
        loaded.tick(5)  # past the exit window end (50)
        assert len(loaded.alerts.of_kind(AlertKind.OVERSTAY)) == 1

    def test_inaccessible_locations_via_engine(self):
        from repro.locations.layouts import figure4_hierarchy

        engine = Ltam(figure4_hierarchy())
        engine.grant_all(paper.table1_authorizations())
        report = engine.inaccessible_locations("Alice")
        assert report.inaccessible == {"C"}


class TestSqliteBackedEngine:
    def test_engine_with_sqlite_backends(self):
        hierarchy = ntu_campus_hierarchy()
        engine = Ltam(
            hierarchy,
            authorization_db=SqliteAuthorizationDatabase(),
            movement_db=SqliteMovementDatabase(":memory:", hierarchy),
            profile_db=SqliteUserProfileDatabase(),
        )
        engine.grant_all(paper.section5_authorizations())
        assert engine.enforce_and_enter((10, "Alice", "CAIS")).granted
        engine.observe_exit(12, "Alice", "CAIS")
        assert engine.enforce_and_enter((15, "Alice", "CAIS")).granted
        engine.observe_exit(16, "Alice", "CAIS")
        assert not engine.enforce((18, "Alice", "CAIS")).granted
