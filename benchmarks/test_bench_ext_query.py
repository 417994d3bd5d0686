"""E11 — extension: query engine throughput and authorization-lookup index.

The paper defers the query language to future work; the reproduction
implements it, so this benchmark measures (a) end-to-end query evaluation
over a populated deployment and (b) the authorization database's
time-indexed lookup against a naive full scan — the index ablation called out
in DESIGN.md.
"""

import pytest

from repro.api import Ltam
from repro.engine.query.evaluator import QueryEngine
from repro.simulation.buildings import campus_hierarchy
from repro.simulation.movement import MovementSimulator
from repro.simulation.workload import AuthorizationWorkloadGenerator, WorkloadConfig, generate_subjects
from repro.storage.authorization_db import InMemoryAuthorizationDatabase

SEED = 5


@pytest.fixture(scope="module")
def deployment():
    hierarchy = campus_hierarchy("Campus", 3, rooms_per_building=9, seed=SEED)
    subjects = generate_subjects(30)
    generator = AuthorizationWorkloadGenerator(
        hierarchy, config=WorkloadConfig(horizon=1_000, coverage=0.8), seed=SEED
    )
    authorizations = generator.authorizations(subjects)
    engine = Ltam(hierarchy)
    engine.grant_all(authorizations)
    trace = MovementSimulator(hierarchy, authorizations, seed=SEED).population_trace(
        subjects, steps=5, p_tailgate=0.1
    )
    # Batch observation path: the whole simulated trace lands in one
    # movement-database transaction.
    engine.observe_many(trace)
    return engine, subjects, authorizations


QUERIES = [
    "WHERE IS {subject}",
    "WHO IS IN {location}",
    "AUTHORIZATIONS FOR {subject}",
    "CAN {subject} ENTER {location} AT 200",
    "ENTRIES OF {subject} INTO {location}",
    "VIOLATIONS BETWEEN 0 AND 500",
]


def test_query_mix_throughput(benchmark, deployment, table_printer):
    engine, subjects, _ = deployment
    queries = QueryEngine(engine)
    location = sorted(engine.hierarchy.primitive_names)[0]
    texts = [
        template.format(subject=subjects[index % len(subjects)], location=location)
        for index, template in enumerate(QUERIES * 20)
    ]

    def run_all():
        return [queries.evaluate(text) for text in texts]

    results = benchmark(run_all)
    assert len(results) == len(texts)
    table_printer(
        "E11 — query mix",
        ("queries evaluated", "distinct forms"),
        [(len(texts), len(QUERIES))],
    )


def test_reasoning_query_inaccessible(benchmark, deployment):
    engine, subjects, _ = deployment
    queries = QueryEngine(engine)
    result = benchmark(queries.evaluate, f"INACCESSIBLE FOR {subjects[0]}")
    assert result.kind == "inaccessible"


def test_indexed_lookup_vs_full_scan(benchmark, deployment, table_printer):
    """Ablation: the interval-indexed ``enterable_at`` vs scanning every record."""
    _, subjects, authorizations = deployment
    db = InMemoryAuthorizationDatabase(authorizations)
    probes = [(time, subjects[time % len(subjects)]) for time in range(0, 1_000, 7)]

    def indexed():
        return sum(len(db.enterable_at(time, subject=subject)) for time, subject in probes)

    def full_scan():
        total = 0
        for time, subject in probes:
            total += sum(
                1
                for auth in db.all()
                if auth.subject == subject and auth.permits_entry_at(time)
            )
        return total

    indexed_total = benchmark(indexed)
    assert indexed_total == full_scan()


def test_full_scan_baseline(benchmark, deployment):
    """The unindexed counterpart of test_indexed_lookup_vs_full_scan."""
    _, subjects, authorizations = deployment
    db = InMemoryAuthorizationDatabase(authorizations)
    probes = [(time, subjects[time % len(subjects)]) for time in range(0, 1_000, 7)]

    def full_scan():
        total = 0
        for time, subject in probes:
            total += sum(
                1
                for auth in db.all()
                if auth.subject == subject and auth.permits_entry_at(time)
            )
        return total

    assert benchmark(full_scan) >= 0
