"""E5 — Figure 3: the end-to-end enforcement architecture.

Figure 3 wires users, the three databases, the access-control engine and the
query engine together.  The benchmark drives the whole pipeline — tracking
observations for a population of subjects flowing through the movement
monitor into the databases, followed by administrator queries — on a
synthetic campus, once with the in-memory backends and once with SQLite.
"""

import pytest

from repro.api import Ltam
from repro.engine.query.evaluator import QueryEngine
from repro.simulation.buildings import campus_hierarchy
from repro.simulation.movement import MovementSimulator
from repro.simulation.workload import AuthorizationWorkloadGenerator, WorkloadConfig, generate_subjects
from repro.storage.authorization_db import SqliteAuthorizationDatabase
from repro.storage.movement_db import MovementKind, SqliteMovementDatabase
from repro.storage.profile_db import SqliteUserProfileDatabase

SEED = 42
SUBJECTS = 50


@pytest.fixture(scope="module")
def scenario():
    hierarchy = campus_hierarchy("Campus", 4, rooms_per_building=9, seed=SEED)
    subjects = generate_subjects(SUBJECTS)
    generator = AuthorizationWorkloadGenerator(
        hierarchy,
        config=WorkloadConfig(horizon=2_000, coverage=0.7, wide_open_entries=True),
        seed=SEED,
    )
    authorizations = generator.authorizations(subjects)
    trace = MovementSimulator(hierarchy, authorizations, seed=SEED).population_trace(
        subjects, steps=6, p_tailgate=0.1, p_overstay=0.1
    )
    return hierarchy, subjects, authorizations, trace


def run_pipeline(hierarchy, subjects, authorizations, trace, *, sqlite=False):
    if sqlite:
        engine = Ltam(
            hierarchy,
            authorization_db=SqliteAuthorizationDatabase(),
            movement_db=SqliteMovementDatabase(":memory:", hierarchy),
            profile_db=SqliteUserProfileDatabase(),
        )
    else:
        engine = Ltam(hierarchy)
    engine.grant_all(authorizations)
    last_time = 0
    for record in trace:
        last_time = max(last_time, record.time)
        if record.kind is MovementKind.ENTER:
            engine.observe_entry(record.time, record.subject, record.location)
        else:
            engine.observe_exit(record.time, record.subject, record.location)
    engine.monitor.check_overstays(last_time + 1_000)

    queries = QueryEngine(engine)
    answers = [
        queries.evaluate(f"WHERE IS {subjects[0]}"),
        queries.evaluate("VIOLATIONS"),
        queries.evaluate(f"AUTHORIZATIONS FOR {subjects[1]}"),
        queries.evaluate(f"ACCESSIBLE FOR {subjects[2]}"),
    ]
    return engine, answers


def test_architecture_pipeline_in_memory(benchmark, scenario, table_printer):
    hierarchy, subjects, authorizations, trace = scenario
    engine, answers = benchmark(run_pipeline, hierarchy, subjects, authorizations, trace)

    assert len(engine.authorization_db) == len(authorizations)
    assert len(engine.movement_db) == len(trace)
    assert len(answers[2]) > 0
    table_printer(
        "Figure 3 — architecture pipeline (in-memory backends)",
        ("component", "volume"),
        [
            ("authorization database", f"{len(engine.authorization_db)} authorizations"),
            ("movement database", f"{len(engine.movement_db)} observations"),
            ("alert sink", f"{len(engine.alerts)} alerts"),
            ("audit log", f"{len(engine.audit)} entries"),
        ],
    )


def test_architecture_pipeline_sqlite(benchmark, scenario):
    hierarchy, subjects, authorizations, trace = scenario
    engine, _ = benchmark(run_pipeline, hierarchy, subjects, authorizations, trace, sqlite=True)
    assert len(engine.authorization_db) == len(authorizations)
    assert len(engine.movement_db) == len(trace)
