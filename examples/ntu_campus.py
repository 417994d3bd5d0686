#!/usr/bin/env python3
"""The paper's own running example: the NTU campus (Figures 1 & 2).

The script rebuilds the multilevel location graph of Figure 2, walks through
the simple/complex route examples of Section 3.1, derives the rule Examples
1–3 of Section 4, replays the enforcement timeline of Section 5, and finishes
with the inaccessible-location analysis of Section 6 on the Figure 4 graph.

Run with::

    python examples/ntu_campus.py
"""

from repro import Ltam, find_inaccessible
from repro.core.derivation import DerivationEngine
from repro.engine import QueryEngine
from repro.locations import classify_route, find_route, figure4_hierarchy, ntu_campus_hierarchy
from repro.paper import fixtures as paper


def show_routes(hierarchy) -> None:
    print("== Section 3.1: routes ==")
    simple = find_route(hierarchy, "SCE.DeanOffice", "CAIS")
    print(f"simple route  : {simple}  ({classify_route(hierarchy, simple)})")
    complex_route = find_route(hierarchy, "EEE.DeanOffice", "SCE.DeanOffice")
    print(f"complex route : {complex_route}  ({classify_route(hierarchy, complex_route)})")


def show_rule_examples(hierarchy) -> None:
    print("\n== Section 4: rule Examples 1-3 ==")
    engine = DerivationEngine(paper.paper_directory(), hierarchy)
    a1 = paper.example_base_authorization_a1()
    print(f"base authorization a1 = {a1}")
    for rule_fn in (paper.example_rule_r1, paper.example_rule_r2, paper.example_rule_r3):
        rule = rule_fn(a1)
        engine.add_rule(rule)
        print(f"rule {rule.rule_id}: {rule.description}")
    result = engine.derive([a1], now=10)
    for auth in result.derived:
        print(f"  derived ({auth.rule_id}): {auth}")


def replay_section5(hierarchy) -> None:
    print("\n== Section 5: enforcement timeline ==")
    engine = Ltam(hierarchy)
    engine.grant_all(paper.section5_authorizations())
    for step in paper.section5_timeline():
        if step.action == "request":
            decision = engine.enforce((step.time, step.subject, step.location))
            outcome = "granted" if decision.granted else f"denied ({decision.reason})"
            print(f"t={step.time:<3} request ({step.subject}, {step.location}): {outcome}   [{step.note}]")
            if decision.granted:
                engine.observe_entry(step.time, step.subject, step.location)
        else:
            engine.observe_exit(step.time, step.subject, step.location)
            print(f"t={step.time:<3} {step.subject} leaves {step.location}")
    queries = QueryEngine(engine)
    print("\nquery> ENTRIES OF Bob INTO CHIPES")
    print(queries.evaluate("ENTRIES OF Bob INTO CHIPES").to_text())


def show_inaccessible() -> None:
    print("\n== Section 6: inaccessible locations (Figure 4 / Tables 1-2) ==")
    report = find_inaccessible(
        figure4_hierarchy(), "Alice", paper.table1_authorizations(), trace=True
    )
    for row in report.trace:
        print(row.describe())
    print(f"\ninaccessible locations for Alice: {sorted(report.inaccessible)}")
    for location in "ABCD":
        print(
            f"  {location}: Tg={report.grant_time(location)}  Td={report.departure_time(location)}"
        )


def main() -> None:
    hierarchy = ntu_campus_hierarchy()
    print(f"NTU campus: {len(hierarchy)} primitive locations, "
          f"{len(hierarchy.composite_names) - 1} schools, "
          f"entry locations {sorted(hierarchy.entry_locations)}\n")
    show_routes(hierarchy)
    show_rule_examples(hierarchy)
    replay_section5(hierarchy)
    show_inaccessible()


if __name__ == "__main__":
    main()
