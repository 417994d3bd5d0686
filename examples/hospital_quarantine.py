#!/usr/bin/env python3
"""Hospital contact tracing and quarantine — the paper's motivating scenario.

The introduction of the paper cites Singapore's use of RFID tracking during
the SARS outbreak: from movement data, *"users who were in contact with
diagnosed SARS patients could be traced and placed in quarantine"*.  This
example builds a small hospital, tracks staff and patients through a day,
then:

1. finds every person who shared a ward with the index patient (contact
   tracing from the Location & Movements Database);
2. quarantines the contacts by revoking their authorizations and adding a
   restrictive authorization to the isolation ward only;
3. verifies with Algorithm 1 that the rest of the hospital has become
   inaccessible to them;
4. exports an anonymized movement trace for the public-health authority,
   demonstrating the location-privacy machinery.

Run with::

    python examples/hospital_quarantine.py
"""

from repro import Ltam, LocationTemporalAuthorization
from repro.engine import QueryEngine
from repro.locations import LocationGraphBuilder, LocationHierarchy
from repro.privacy.anonymizer import TraceAnonymizer
from repro.storage.movement_db import MovementKind


def build_hospital() -> LocationHierarchy:
    graph = (
        LocationGraphBuilder("Hospital")
        .add_location("Lobby", tags=("lobby",), entry=True)
        .add_location("WardA", tags=("ward",))
        .add_location("WardB", tags=("ward",))
        .add_location("ICU", tags=("ward", "restricted"))
        .add_location("Isolation", tags=("ward", "restricted"))
        .add_location("Cafeteria", tags=("common",))
        .add_path("Lobby", "WardA", "ICU")
        .add_path("Lobby", "WardB", "Isolation")
        .add_edge("Lobby", "Cafeteria")
        .build()
    )
    return LocationHierarchy(graph)


STAFF = ["nurse-ng", "nurse-tan", "doctor-lim", "porter-raj"]
PATIENT = "patient-zero"
DAY_END = 480  # one shift in minutes


def grant_staff_access(engine: Ltam) -> None:
    for person in STAFF + [PATIENT]:
        for ward in ("Lobby", "WardA", "WardB", "ICU", "Cafeteria"):
            engine.grant(LocationTemporalAuthorization((person, ward), (0, DAY_END), (0, DAY_END + 60)))


def simulate_shift(engine: Ltam) -> None:
    """A deterministic morning of movements (times in minutes)."""
    movements = [
        (5, PATIENT, "Lobby"), (20, PATIENT, "WardA"),
        (10, "nurse-ng", "Lobby"), (30, "nurse-ng", "WardA"),      # shares WardA with the patient
        (15, "nurse-tan", "Lobby"), (25, "nurse-tan", "WardB"),
        (12, "doctor-lim", "Lobby"), (60, "doctor-lim", "WardA"),  # also shares WardA
        (18, "porter-raj", "Lobby"), (40, "porter-raj", "Cafeteria"),
    ]
    previous = {}
    for time, person, location in sorted(movements):
        if person in previous:
            engine.observe_exit(time - 1, person, previous[person])
        engine.observe_entry(time, person, location)
        previous[person] = location


def find_contacts(engine: Ltam, patient: str) -> set:
    """Everyone who was inside the same location as the patient at the same time."""
    history = engine.movement_db.history()
    intervals = {}  # (subject, location) -> [enter, exit]
    open_entries = {}
    for record in history:
        key = (record.subject, record.location)
        if record.kind is MovementKind.ENTER:
            open_entries[key] = record.time
        else:
            intervals.setdefault(key, []).append((open_entries.pop(key, 0), record.time))
    for key, start in open_entries.items():
        intervals.setdefault(key, []).append((start, DAY_END))

    contacts = set()
    patient_stays = {loc: spans for (subj, loc), spans in intervals.items() if subj == patient}
    for (subject, location), spans in intervals.items():
        if subject == patient or location not in patient_stays:
            continue
        for start, end in spans:
            for p_start, p_end in patient_stays[location]:
                if start <= p_end and p_start <= end:
                    contacts.add(subject)
    return contacts


def quarantine(engine: Ltam, contacts: set) -> None:
    now = engine.clock.now
    for person in sorted(contacts):
        for auth in engine.authorization_db.for_subject(person):
            engine.authorization_db.revoke(auth.auth_id)
        # Contacts may only move to the isolation ward (via WardB's corridor is
        # not granted, so the security desk escorts them — the model records
        # the policy, not the escort).
        engine.grant(LocationTemporalAuthorization((person, "Isolation"), (now, now + 14 * DAY_END), None))


def main() -> None:
    hierarchy = build_hospital()
    engine = Ltam(hierarchy)
    grant_staff_access(engine)
    simulate_shift(engine)

    print("== Contact tracing ==")
    contacts = find_contacts(engine, PATIENT)
    print(f"index patient : {PATIENT}")
    print(f"contacts      : {sorted(contacts)}")

    print("\n== Quarantine: revoke access, restrict to the isolation ward ==")
    engine.advance_to(DAY_END)
    quarantine(engine, contacts)
    for person in sorted(contacts):
        report = engine.inaccessible_locations(person)
        print(f"{person}: accessible={sorted(report.accessible)} inaccessible={sorted(report.inaccessible)}")

    print("\n== Queries ==")
    queries = QueryEngine(engine)
    for person in sorted(contacts):
        result = queries.evaluate(f"CAN {person} ENTER WardA AT {DAY_END + 10}")
        print(f"CAN {person} ENTER WardA -> {result.scalar}")

    print("\n== Anonymized export for the health authority ==")
    anonymizer = TraceAnonymizer(hierarchy, k=2, time_bucket=30, salt="export-2026-06")
    released = anonymizer.anonymize(engine.movement_db.history())
    suppressed = anonymizer.suppression_rate(engine.movement_db.history())
    print(f"released {len(released)} sanitized records "
          f"({suppressed:.0%} suppressed for k-anonymity); sample:")
    for record in released[:5]:
        print(f"  bucket={record.time_bucket:<4} {record.pseudonym} {record.kind.value:<5} {record.composite}")


if __name__ == "__main__":
    main()
