"""Cross-topology conformance: eight topologies, one byte-identical transcript.

Every serving topology replays the same workload script (observes, decision
streams, scoped queries, a mid-trace compacting checkpoint) and must produce
the canonical-JSON transcript of the embedded in-memory reference — the
differential form of every parity claim the per-layer suites make
(in-memory vs SQLite backends, server vs embedded, cached vs uncached,
binary vs NDJSON wire, replicated vs single, partitioned vs whole).

The per-topology timings are printed as a table at the end of the module;
the CI conformance job uploads them as an artifact.
"""

from __future__ import annotations

import pytest

from conformance_harness import (
    TOPOLOGIES,
    FlashCrowdWorkload,
    Workload,
    run_topology,
    subprocess_replicas,
)

_TIMINGS: dict = {}


@pytest.fixture(scope="module")
def workload() -> Workload:
    return Workload(seed=11)


@pytest.fixture(scope="module")
def reference(workload, tmp_path_factory):
    transcript, seconds = run_topology(
        "embedded-memory", workload, tmp_path_factory.mktemp("reference")
    )
    _TIMINGS["embedded-memory (reference)"] = seconds
    assert transcript.decisions and transcript.queries
    return transcript


@pytest.fixture(scope="module", autouse=True)
def timing_table():
    yield
    width = max(len(name) for name in _TIMINGS) if _TIMINGS else 0
    print("\n\nConformance replay timings"
          + (" [subprocess replicas]" if subprocess_replicas() else ""))
    print(f"{'topology':<{width}}  seconds")
    print("-" * (width + 9))
    for name, seconds in _TIMINGS.items():
        print(f"{name:<{width}}  {seconds:7.3f}")


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_topology_transcript_matches_reference(topology, workload, reference, tmp_path):
    transcript, seconds = run_topology(topology, workload, tmp_path)
    _TIMINGS[topology] = seconds
    divergence = transcript.first_divergence(reference)
    assert divergence is None, f"{topology} diverged from the reference: {divergence}"


@pytest.fixture(scope="module")
def flash_workload() -> FlashCrowdWorkload:
    return FlashCrowdWorkload(seed=29)


@pytest.fixture(scope="module")
def flash_reference(flash_workload, tmp_path_factory):
    transcript, seconds = run_topology(
        "embedded-memory", flash_workload, tmp_path_factory.mktemp("flash-reference")
    )
    _TIMINGS["embedded-memory (flash reference)"] = seconds
    # The workload proves nothing unless the crowd actually saturates the
    # hot location: the reference transcript must contain over-capacity
    # denials AND grants that embed a non-trivial occupancy count.
    assert any('"over_capacity"' in decision for decision in transcript.decisions), (
        "the flash crowd never filled the hot location"
    )
    assert any(
        '"occupancy 4/6"' in decision for decision in transcript.decisions
    ), "no probe saw the hot location with slack"
    return transcript


@pytest.mark.parametrize("topology", [name for name in TOPOLOGIES if name != "embedded-memory"])
def test_flash_crowd_capacity_is_global(topology, flash_workload, flash_reference, tmp_path):
    """The capacity differential: every topology must produce the embedded
    reference's exact CapacityStage verdicts — on the partitioned
    topologies that takes the fabric-wide ledger (the crowd spans both
    partitions, so partition-local occupancy undercounts the hot room)."""
    transcript, seconds = run_topology(topology, flash_workload, tmp_path)
    _TIMINGS[f"{topology} (flash)"] = seconds
    divergence = transcript.first_divergence(flash_reference)
    assert divergence is None, f"{topology} diverged from the reference: {divergence}"


def test_workload_is_deterministic():
    """The script itself must be reproducible, or the suite proves nothing.

    Auth/request ids come from process-global counters, so two Workload
    instances differ in ids (each conformance run shares ONE instance across
    all topologies — that is what makes the ids conform); everything the
    seed controls must be identical.
    """
    first, second = Workload(seed=11), Workload(seed=11)
    assert [
        (a.subject, a.location, str(a.entry_duration), str(a.exit_duration), a.max_entries)
        for a in first.authorizations
    ] == [
        (a.subject, a.location, str(a.entry_duration), str(a.exit_duration), a.max_entries)
        for a in second.authorizations
    ]
    assert first.rounds[0][0] == second.rounds[0][0]
    assert [(r.time, r.subject, r.location) for r in first.rounds[0][1]] == [
        (r.time, r.subject, r.location) for r in second.rounds[0][1]
    ]
    assert first.rounds[0][2] == second.rounds[0][2]
