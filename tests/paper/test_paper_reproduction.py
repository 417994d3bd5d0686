"""Integration tests that replay every worked example of the paper end to end.

These tests are the executable record behind EXPERIMENTS.md: each test maps
to one figure, table or in-text example and asserts the paper's stated
outcome.
"""

import pytest

from repro.core.accessibility import find_inaccessible
from repro.core.derivation import DerivationEngine
from repro.core.grant import authorize_route
from repro.api import Ltam
from repro.engine.query.evaluator import QueryEngine
from repro.locations.layouts import figure4_hierarchy, ntu_campus_hierarchy
from repro.locations.routes import RouteKind, classify_route, find_route, is_route
from repro.paper import fixtures as paper


class TestFigure1And2:
    """E1 — the NTU campus multilevel location graph."""

    def test_campus_contents(self):
        hierarchy = ntu_campus_hierarchy()
        assert hierarchy.root.name == "NTU"
        assert hierarchy.composite_names == {"NTU", "SCE", "EEE", "CEE", "SME", "NBS"}
        assert {"SCE.GO", "SCE.DeanOffice", "CAIS", "CHIPES", "EEE.GO", "Lab1", "Lab2"} <= hierarchy.primitive_names

    def test_entry_locations_shown_with_double_lines(self):
        hierarchy = ntu_campus_hierarchy()
        assert hierarchy.entry_locations_of("SCE") == {"SCE.GO", "SCE.SectionC"}
        assert hierarchy.entry_locations_of("EEE") == {"EEE.GO", "EEE.SectionC"}

    def test_part_of_relation(self):
        hierarchy = ntu_campus_hierarchy()
        assert hierarchy.is_part_of("CAIS", "SCE")
        assert hierarchy.is_part_of("SCE", "NTU")
        assert hierarchy.is_part_of("CAIS", "NTU")


class TestSection31Routes:
    """E2 — the simple and complex route examples of Section 3.1."""

    def test_simple_route(self):
        hierarchy = ntu_campus_hierarchy()
        route = ["SCE.DeanOffice", "SCE.SectionA", "SCE.SectionB", "CAIS"]
        assert is_route(hierarchy, route)
        assert classify_route(hierarchy, route) == RouteKind.SIMPLE

    def test_complex_route(self):
        hierarchy = ntu_campus_hierarchy()
        route = [
            "EEE.DeanOffice", "EEE.SectionA", "EEE.GO",
            "SCE.GO", "SCE.SectionA", "SCE.DeanOffice",
        ]
        assert is_route(hierarchy, route)
        assert classify_route(hierarchy, route) == RouteKind.COMPLEX

    def test_shortest_route_search_finds_the_paper_complex_route(self):
        hierarchy = ntu_campus_hierarchy()
        found = find_route(hierarchy, "EEE.DeanOffice", "SCE.DeanOffice")
        assert list(found) == [
            "EEE.DeanOffice", "EEE.SectionA", "EEE.GO",
            "SCE.GO", "SCE.SectionA", "SCE.DeanOffice",
        ]


class TestSection4Examples:
    """E3 — rule derivation Examples 1, 2, 3."""

    def test_examples_1_2_3(self):
        hierarchy = ntu_campus_hierarchy()
        engine = DerivationEngine(paper.paper_directory(), hierarchy)
        a1 = paper.example_base_authorization_a1()
        for rule_fn in (paper.example_rule_r1, paper.example_rule_r2, paper.example_rule_r3):
            engine.add_rule(rule_fn(a1))
        result = engine.derive([a1], now=10)

        # Example 1: a2 = ([5,20],[15,50],(Bob,CAIS),2)
        assert paper.expected_derived_a2() in result.derived
        # Example 2: a3 = ([10,20],[15,50],(Bob,CAIS),2)
        assert paper.expected_derived_a3() in result.derived
        # Example 3: one derived authorization per location on the route.
        r3_locations = {auth.location for auth in result.derived_by_rule("r3")}
        assert r3_locations == {"SCE.GO", "SCE.SectionA", "SCE.SectionB", "CAIS"}

    def test_example1_revocation_on_supervisor_change(self):
        """'the authorization for Bob will be revoked' when Alice's supervisor changes."""
        hierarchy = ntu_campus_hierarchy()
        engine = Ltam(hierarchy)
        base = paper.example_base_authorization_a1()
        engine.grant(base)
        engine.profile_db.set_supervisor("Alice", "Bob")
        engine.advance_to(10)
        engine.add_rule(paper.example_rule_r1(base))
        bob_auths = engine.authorization_db.for_subject_location("Bob", "CAIS")
        assert len(bob_auths) == 1
        # Supervisor changes: revoke the old derived authorization and re-derive.
        engine.profile_db.set_supervisor("Alice", "Carol")
        engine.authorization_db.revoke_derived_from(base.auth_id)
        engine.derive_authorizations()
        assert engine.authorization_db.for_subject_location("Bob", "CAIS") == []
        assert len(engine.authorization_db.for_subject_location("Carol", "CAIS")) == 1


class TestSection5Enforcement:
    """E4 — the access-request worked example of Section 5."""

    def test_timeline_decisions(self):
        engine = Ltam(ntu_campus_hierarchy())
        engine.grant_all(paper.section5_authorizations())
        observed = []
        for step in paper.section5_timeline():
            if step.action == "request":
                decision = engine.enforce((step.time, step.subject, step.location))
                observed.append((step.time, step.subject, step.location, decision.granted))
                if decision.granted:
                    engine.observe_entry(step.time, step.subject, step.location)
            else:
                engine.observe_exit(step.time, step.subject, step.location)
        assert observed == [
            (10, "Alice", "CAIS", True),
            (15, "Bob", "CAIS", False),
            (16, "Bob", "CHIPES", True),
            (30, "Bob", "CHIPES", False),
        ]

    def test_query_engine_answers_the_section5_questions(self):
        engine = Ltam(ntu_campus_hierarchy())
        engine.grant_all(paper.section5_authorizations())
        engine.enforce_and_enter((10, "Alice", "CAIS"))
        engine.enforce_and_enter((16, "Bob", "CHIPES"))
        engine.observe_exit(20, "Bob", "CHIPES")
        queries = QueryEngine(engine)
        assert queries.evaluate("CAN Bob ENTER CHIPES AT 30").scalar is False
        assert queries.evaluate("ENTRIES OF Bob INTO CHIPES").scalar == 1
        assert queries.evaluate("WHERE IS Alice").scalar == "CAIS"


class TestSection6InaccessibleLocations:
    """E6 — Figure 4, Table 1 and Table 2."""

    def test_c_is_the_only_inaccessible_location(self):
        report = find_inaccessible(figure4_hierarchy(), "Alice", paper.table1_authorizations())
        assert report.inaccessible == {"C"}

    def test_table2_final_row(self):
        report = find_inaccessible(figure4_hierarchy(), "Alice", paper.table1_authorizations())
        for location, (grant, departure) in paper.table2_expected_times().items():
            assert report.grant_time(location) == grant
            assert report.departure_time(location) == departure

    def test_route_level_explanation(self):
        """Why C is inaccessible: neither A→B→C nor A→D→C is an authorized route."""
        auths = paper.table1_authorizations()
        via_b = authorize_route(["A", "B", "C"], "Alice", auths)
        via_d = authorize_route(["A", "D", "C"], "Alice", auths)
        assert not via_b.authorized and via_b.blocking_location == "C"
        assert not via_d.authorized and via_d.blocking_location == "C"
        # ... while B and D themselves are reachable.
        assert authorize_route(["A", "B"], "Alice", auths).authorized
        assert authorize_route(["A", "D"], "Alice", auths).authorized
