#!/usr/bin/env python3
"""Quickstart: protect a small office with the LTAM PDP/PEP API in ~60 lines.

The script builds a tiny location graph, assembles an engine with the fluent
``Ltam.builder()``, grants authorizations with the ``grant(...)`` sentence
builder, evaluates access requests (printing each decision's per-stage
trace), feeds movement observations to the continuous monitor, and asks the
query engine a few questions.

Run with::

    python examples/quickstart.py
"""

from repro.api import Ltam, grant
from repro.engine import QueryEngine
from repro.locations import LocationGraphBuilder, LocationHierarchy


def build_office() -> LocationHierarchy:
    """A lobby, a corridor, an office and a server room."""
    graph = (
        LocationGraphBuilder("Office")
        .add_location("Lobby", tags=("lobby",), entry=True)
        .add_location("Corridor", tags=("corridor",))
        .add_location("DevOffice", tags=("office",))
        .add_location("ServerRoom", tags=("restricted",))
        .add_path("Lobby", "Corridor", "DevOffice")
        .add_edge("Corridor", "ServerRoom")
        .build()
    )
    return LocationHierarchy(graph)


def main() -> None:
    # Dana the developer: free run of the office during the working day, and
    # one visit to the server room between 9:00 and 10:00 (minutes 60-120)
    # that must end by minute 150.
    engine = (
        Ltam.builder()
        .hierarchy(build_office())
        .grant(grant("Dana").at("Lobby").during(0, 480).exit_between(0, 540))
        .grant(grant("Dana").at("Corridor").during(0, 480).exit_between(0, 540))
        .grant(grant("Dana").at("DevOffice").during(0, 480).exit_between(0, 540))
        .grant(grant("Dana").at("ServerRoom").during(60, 120).exit_between(60, 150).entries(1))
        .build()
    )

    print("== Access decisions (Definition 7, with per-stage traces) ==")
    for time, room in [(10, "Lobby"), (70, "ServerRoom"), (200, "ServerRoom")]:
        decision = engine.enforce((time, "Dana", room))
        outcome = "GRANTED" if decision.granted else f"DENIED ({decision.reason})"
        print(f"t={time:<4} Dana -> {room:<11} {outcome}  [decided by: {decision.deciding_stage}]")

    # The same decisions, evaluated as one batch (shared lookups).
    batch = engine.decide_many([(10, "Dana", "Lobby"), (70, "Dana", "ServerRoom")])
    print(f"batch of {len(batch)} decisions: {[d.granted for d in batch]}")

    print("\n== Continuous monitoring ==")
    engine.observe_entry(10, "Dana", "Lobby")
    engine.observe_exit(15, "Dana", "Lobby")
    engine.observe_entry(70, "Dana", "ServerRoom")
    # Dana forgets the time; the clock passes the exit deadline (150).
    engine.advance_to(160)
    for alert in engine.alerts:
        print(f"ALERT: {alert}")

    print("\n== Occupancy (event-indexed reads) ==")
    # where_is/occupancy/occupants are O(1)-ish projection reads — they never
    # replay the movement history, however long this deployment runs.
    print(f"where is Dana?        {engine.where_is('Dana')}")
    print(f"ServerRoom occupancy: {engine.occupancy('ServerRoom')} "
          f"(occupants: {engine.occupants('ServerRoom')})")

    print("\n== Queries ==")
    queries = QueryEngine(engine)
    for text in (
        "WHERE IS Dana",
        "ENTRIES OF Dana INTO ServerRoom",
        "CAN Dana ENTER ServerRoom AT 100",
        "INACCESSIBLE FOR Dana",
        "VIOLATIONS FOR Dana",
    ):
        print(f"\n> {text}")
        print(queries.evaluate(text).to_text())


if __name__ == "__main__":
    main()
