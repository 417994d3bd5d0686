"""E4 — Section 5: the access-request worked example.

The paper walks through five events (four requests, one exit) against
authorizations A1 and A2 and states the expected outcome of each.  The
benchmark times a full replay of the timeline through the access-control
engine and asserts every decision, then times raw request throughput on a
larger synthetic request stream.
"""

import pytest

from repro.api import Ltam
from repro.locations.layouts import ntu_campus_hierarchy
from repro.paper import fixtures as paper
from repro.simulation.workload import AuthorizationWorkloadGenerator, WorkloadConfig, generate_subjects


@pytest.fixture(scope="module")
def campus():
    return ntu_campus_hierarchy()


def replay_timeline(campus):
    engine = Ltam(campus)
    engine.grant_all(paper.section5_authorizations())
    outcomes = []
    for step in paper.section5_timeline():
        if step.action == "request":
            decision = engine.enforce((step.time, step.subject, step.location))
            outcomes.append(decision.granted)
            if decision.granted:
                engine.observe_entry(step.time, step.subject, step.location)
        else:
            engine.observe_exit(step.time, step.subject, step.location)
    return outcomes


def test_section5_timeline(benchmark, campus, table_printer):
    outcomes = benchmark(replay_timeline, campus)
    expected = [step.expected_granted for step in paper.section5_timeline() if step.action == "request"]
    assert outcomes == expected

    rows = []
    index = 0
    for step in paper.section5_timeline():
        if step.action == "request":
            rows.append(
                (f"t={step.time}", f"({step.subject}, {step.location})", step.note,
                 "granted" if outcomes[index] else "denied")
            )
            index += 1
        else:
            rows.append((f"t={step.time}", f"{step.subject} leaves {step.location}", step.note, "—"))
    table_printer("Section 5 — access request timeline", ("time", "event", "paper says", "reproduced"), rows)


def test_request_throughput_on_synthetic_workload(benchmark, campus):
    subjects = generate_subjects(30)
    generator = AuthorizationWorkloadGenerator(
        campus, config=WorkloadConfig(horizon=1_000, coverage=0.8), seed=17
    )
    engine = Ltam(campus)
    engine.grant_all(generator.authorizations(subjects))
    requests = generator.requests(subjects, 500)

    def evaluate_all():
        granted = 0
        for request in requests:
            if engine.decide(request).granted:
                granted += 1
        return granted

    granted = benchmark(evaluate_all)
    assert 0 < granted <= len(requests)
