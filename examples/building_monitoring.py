#!/usr/bin/env python3
"""Continuous monitoring of a synthetic campus, versus a card-reader baseline.

The script generates a campus, an authorization workload, and a day of
simulated movement with injected violations (tailgating and overstays).  The
same observation stream is fed to the LTAM enforcement engine and to the
card-reader baseline, and their detection statistics are compared — the
quantified version of the paper's Section 1 claims.

Run with::

    python examples/building_monitoring.py
"""

from repro.analysis.reports import build_violation_report, busiest_locations, detection_stats
from repro.baselines.card_reader import CardReaderSystem
from repro.api import Ltam
from repro.simulation.buildings import campus_hierarchy
from repro.simulation.movement import MovementSimulator
from repro.simulation.workload import AuthorizationWorkloadGenerator, WorkloadConfig, generate_subjects
from repro.storage.movement_db import MovementKind

SEED = 2026
SUBJECTS = 20
BUILDINGS = 4
ROOMS_PER_BUILDING = 9


def main() -> None:
    hierarchy = campus_hierarchy("Campus", BUILDINGS, rooms_per_building=ROOMS_PER_BUILDING, seed=SEED)
    subjects = generate_subjects(SUBJECTS)
    workload = AuthorizationWorkloadGenerator(
        hierarchy,
        config=WorkloadConfig(horizon=1_000, coverage=0.7, max_entries=3, wide_open_entries=True),
        seed=SEED,
    )
    authorizations = workload.authorizations(subjects)
    print(f"campus: {len(hierarchy)} rooms in {BUILDINGS} buildings; "
          f"{len(authorizations)} authorizations for {SUBJECTS} subjects")

    simulator = MovementSimulator(hierarchy, authorizations, seed=SEED)
    trace = simulator.population_trace(subjects, steps=8, p_tailgate=0.25, p_overstay=0.2)
    print(f"simulated {len(trace)} movement observations; injected "
          f"{len(trace.truth.unauthorized_entries)} unauthorized entries and "
          f"{len(trace.truth.overstays)} overstays")

    ltam = Ltam(hierarchy)
    ltam.grant_all(authorizations)
    card_reader = CardReaderSystem(hierarchy, authorization_db=ltam.authorization_db)

    last_time = 0
    for record in trace:
        last_time = max(last_time, record.time)
        if record.kind is MovementKind.ENTER:
            ltam.observe_entry(record.time, record.subject, record.location)
            card_reader.observe_entry(record.time, record.subject, record.location)
        else:
            ltam.observe_exit(record.time, record.subject, record.location)
            card_reader.observe_exit(record.time, record.subject, record.location)
    # End-of-day sweep for people still inside past their exit window.
    ltam.monitor.check_overstays(last_time + 10_000)
    card_reader.check_overstays(last_time + 10_000)

    print("\n== Detection (recall against the injected ground truth) ==")
    ltam_stats = detection_stats(ltam.alerts.alerts, trace.truth)
    baseline_stats = detection_stats(card_reader.detected_violations(), trace.truth)
    header = f"{'system':<14} {'unauthorized':>14} {'overstay':>10} {'overall':>9}"
    print(header)
    print("-" * len(header))
    for name, stats in (("LTAM", ltam_stats), ("card reader", baseline_stats)):
        print(f"{name:<14} {stats.unauthorized_recall:>14.2f} {stats.overstay_recall:>10.2f} "
              f"{stats.overall_recall:>9.2f}")

    print("\n== End-of-day report ==")
    report = build_violation_report(ltam.audit)
    print(f"alerts by kind   : { {str(k): v for k, v in report.alerts_by_kind.items()} }")
    print(f"busiest locations: {busiest_locations(ltam.movement_db, top=5)}")


if __name__ == "__main__":
    main()
