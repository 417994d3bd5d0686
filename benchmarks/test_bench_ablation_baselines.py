"""E8 — ablation: continuous monitoring (LTAM) vs request-time-only baselines.

Section 1 claims that, unlike card-reader systems, LTAM's continuous
monitoring catches tailgating and overstays, and that its entry budgets and
exit windows are more expressive than purely temporal (TAM-style)
authorizations.  The benchmark feeds an identical simulated trace — with
injected violations and known ground truth — to LTAM and to the card-reader
baseline, times both, and reports detection recall; a second benchmark
quantifies TAM's over-granting on the same request stream.
"""

import pytest

from repro.analysis.reports import detection_stats
from repro.baselines.card_reader import CardReaderSystem
from repro.baselines.tam import TemporalOnlySystem
from repro.api import Ltam
from repro.simulation.buildings import campus_hierarchy
from repro.simulation.movement import MovementSimulator
from repro.simulation.workload import AuthorizationWorkloadGenerator, WorkloadConfig, generate_subjects
from repro.storage.movement_db import MovementKind

SEED = 99


@pytest.fixture(scope="module")
def scenario():
    hierarchy = campus_hierarchy("Campus", 3, rooms_per_building=9, seed=SEED)
    subjects = generate_subjects(25)
    generator = AuthorizationWorkloadGenerator(
        hierarchy,
        config=WorkloadConfig(horizon=1_500, coverage=0.7, max_entries=2, wide_open_entries=True),
        seed=SEED,
    )
    authorizations = generator.authorizations(subjects)
    trace = MovementSimulator(hierarchy, authorizations, seed=SEED).population_trace(
        subjects, steps=7, p_tailgate=0.3, p_overstay=0.25
    )
    requests = generator.requests(subjects, 400)
    return hierarchy, authorizations, trace, requests


def drive(system_factory, hierarchy, authorizations, trace):
    system = system_factory(hierarchy, authorizations)
    last_time = 0
    for record in trace:
        last_time = max(last_time, record.time)
        if record.kind is MovementKind.ENTER:
            system.observe_entry(record.time, record.subject, record.location)
        else:
            system.observe_exit(record.time, record.subject, record.location)
    system.check_overstays(last_time + 10_000)
    return system


def make_ltam(hierarchy, authorizations):
    engine = Ltam(hierarchy)
    engine.grant_all(authorizations)
    # expose the monitor interface used by `drive`
    engine.check_overstays = engine.monitor.check_overstays  # type: ignore[attr-defined]
    return engine


def make_card_reader(hierarchy, authorizations):
    reader = CardReaderSystem(hierarchy)
    reader.authorization_db.add_all(authorizations)
    return reader


def test_ltam_monitoring_detects_injected_violations(benchmark, scenario, table_printer):
    hierarchy, authorizations, trace, _ = scenario
    engine = benchmark(drive, make_ltam, hierarchy, authorizations, trace)
    stats = detection_stats(engine.alerts.alerts, trace.truth)
    assert trace.truth.violation_count > 0
    assert stats.unauthorized_recall == 1.0
    assert stats.overall_recall >= 0.8
    table_printer(
        "E8 — LTAM detection vs injected ground truth",
        ("metric", "value"),
        [
            ("injected unauthorized entries", stats.injected_unauthorized),
            ("detected unauthorized entries", stats.detected_unauthorized),
            ("injected overstays", stats.injected_overstays),
            ("detected overstays", stats.detected_overstays),
            ("overall recall", f"{stats.overall_recall:.2f}"),
        ],
    )


def test_card_reader_baseline_detects_nothing(benchmark, scenario, table_printer):
    hierarchy, authorizations, trace, _ = scenario
    reader = benchmark(drive, make_card_reader, hierarchy, authorizations, trace)
    stats = detection_stats(reader.detected_violations(), trace.truth)
    assert stats.overall_recall == 0.0
    table_printer(
        "E8 — card-reader baseline on the same trace",
        ("metric", "value"),
        [("overall recall", f"{stats.overall_recall:.2f}")],
    )


def test_tam_baseline_over_grants(benchmark, scenario, table_printer):
    """TAM has no entry budgets or exit windows: it grants a superset of LTAM."""
    hierarchy, authorizations, trace, requests = scenario
    ltam = make_ltam(hierarchy, authorizations)
    # Consume budgets by replaying the trace first (batched: one commit).
    ltam.movement_db.record_many(
        record for record in trace if record.kind is MovementKind.ENTER
    )
    tam = TemporalOnlySystem.from_ltam(authorizations)

    def evaluate():
        ltam_grants = tam_grants = over_grants = 0
        for request in requests:
            ltam_decision = ltam.decide(request)
            tam_decision = tam.check(request.time, request.subject, request.location)
            ltam_grants += ltam_decision.granted
            tam_grants += tam_decision.granted
            over_grants += (tam_decision.granted and not ltam_decision.granted)
        return ltam_grants, tam_grants, over_grants

    ltam_grants, tam_grants, over_grants = benchmark(evaluate)
    assert tam_grants >= ltam_grants
    assert over_grants > 0  # entry budgets exhausted by the trace are invisible to TAM
    table_printer(
        "E8 — TAM (temporal-only) vs LTAM decisions on the same requests",
        ("metric", "value"),
        [
            ("requests", len(requests)),
            ("LTAM grants", ltam_grants),
            ("TAM grants", tam_grants),
            ("TAM over-grants (granted where LTAM denies)", over_grants),
        ],
    )
