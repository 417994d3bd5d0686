"""E-wire — the serving fleet's decisions/sec/core budget.

PR 7 gave the service a negotiated compact binary wire format with interned
ids and trace elision by default, plus an end-to-end vectorized
``decide_many`` path (one frame in, one batched cache pass over
pre-serialized fragments, one frame out).  The motivating observation: the
NDJSON protocol round-tripped the full per-stage decision trace on every
response, so a gate fleet's steady-state cost was dominated by formatting
bytes nobody read.

This benchmark measures the whole matrix the budget is written in —
**cached and uncached × binary vs NDJSON × point vs ``decide_many``** — in
both decisions per wall-second and decisions per CPU-second ("per core":
client and server share this process, so ``time.process_time`` captures the
full cost of a decision crossing the wire).  The asserted floor: on the
uncached ``decide_many`` path, the binary protocol in its default elided
form must sustain **≥2x** the throughput of the legacy NDJSON protocol in
*its* default form (traced responses — exactly what every pre-PR-7 client
received).  That floor's ratio changes two things at once, codec and trace
elision, so the uncached server also runs NDJSON *elided*:
``binary_over_json_elided_{point,batch}`` vary the codec alone and carry
no floor.  Everything measured lands in ``BENCH_wire.json``.
"""

import time as _time

import pytest

from repro.locations.multilevel import LocationHierarchy
from repro.service import DecisionCache, LtamServer, ServiceClient
from repro.service.protocol import request_to_dict
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.api import Ltam

SUBJECT_COUNT = 200
HISTORY_EVENTS = 20_000
POOL_SIZE = 1_000
BATCH_DECIDES = 12_000
POINT_DECIDES = 1_500
DECIDE_CHUNK = 2_000
#: Uncached decide_many: binary (elided, the new default) vs NDJSON
#: (traced, the legacy default) must clear this throughput ratio.
BINARY_BATCH_FLOOR = 2.0


def _hierarchy():
    return LocationHierarchy(grid_building("B", 6, 6))


def _seeded_engine(hierarchy):
    subjects = generate_subjects(SUBJECT_COUNT)
    engine = Ltam.builder().hierarchy(hierarchy).build()
    # Overlapping grant sets: every decide scans several candidates (the
    # production shape), so evaluation is not trivially cheap relative to
    # serialization.
    for seed in (29, 30, 31):
        engine.grant_all(
            AuthorizationWorkloadGenerator(hierarchy, seed=seed).authorizations(subjects)
        )
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=29)
    engine.movement_db.record_many(generator.movement_events(subjects, HISTORY_EVENTS))
    return engine


def _streams(hierarchy):
    """A hot pool sampled with repetition: batch and point request streams."""
    import random

    generator = AuthorizationWorkloadGenerator(hierarchy, seed=53)
    pool = generator.requests(generate_subjects(SUBJECT_COUNT), POOL_SIZE)
    rng = random.Random(7)
    batch = [request_to_dict(pool[rng.randrange(POOL_SIZE)]) for _ in range(BATCH_DECIDES)]
    point = [request_to_dict(pool[rng.randrange(POOL_SIZE)]) for _ in range(POINT_DECIDES)]
    return pool, batch, point


def _timed(run):
    """Best-of-2 wall time, with the CPU time of the best attempt."""
    best_wall = float("inf")
    best_cpu = float("inf")
    for _ in range(2):
        cpu_started = _time.process_time()
        wall_started = _time.perf_counter()
        run()
        wall = _time.perf_counter() - wall_started
        cpu = _time.process_time() - cpu_started
        if wall < best_wall:
            best_wall, best_cpu = wall, cpu
    return best_wall, best_cpu


def _batch_decides(client, stream, trace):
    def run():
        decided = 0
        for start in range(0, len(stream), DECIDE_CHUNK):
            result = client.call(
                "decide_many", requests=stream[start : start + DECIDE_CHUNK], trace=trace
            )
            decided += len(result["decisions"])
        assert decided == len(stream)

    return run


def _point_decides(client, stream, trace):
    def run():
        for request in stream:
            client.call("decide", request=request, trace=trace)

    return run


def test_binary_wire_decide_throughput_budget(table_printer, bench_json):
    hierarchy = _hierarchy()
    pool, batch_stream, point_stream = _streams(hierarchy)

    cells = {}
    rows = []
    for cache_label, cache in (("uncached", None), ("cached", DecisionCache(maxsize=1 << 17))):
        engine = _seeded_engine(hierarchy)
        with LtamServer(engine, cache=cache) as server:
            with ServiceClient(*server.address, wire="json") as json_client, ServiceClient(
                *server.address, wire="binary"
            ) as binary_client:
                assert json_client.wire == "json" and binary_client.wire == "binary"
                # Warm connections (and, on the cached server, prime the
                # cache so "cached" measures the hit path for both codecs).
                for client in (json_client, binary_client):
                    client.call(
                        "decide_many",
                        requests=[request_to_dict(request) for request in pool],
                        trace=False,
                    )
                # wire -> (client, trace flag): each codec's *default* shape —
                # NDJSON as the legacy protocol shipped it (traced), binary as
                # it ships by default (elided; traces on request only).  Uncached,
                # NDJSON also runs elided: binary over that cell varies the
                # codec alone, with the trace cost held equal.
                variants = [("json", json_client, True), ("binary", binary_client, False)]
                if cache is None:
                    variants.append(("json_elided", json_client, False))
                for wire, client, trace in variants:
                    for mode, stream, timed in (
                        ("batch", batch_stream, _batch_decides),
                        ("point", point_stream, _point_decides),
                    ):
                        wall, cpu = _timed(timed(client, stream, trace))
                        count = len(stream)
                        cells[f"{cache_label}_{mode}_{wire}"] = {
                            "decisions": count,
                            "seconds": wall,
                            "cpu_seconds": cpu,
                            "decisions_per_sec": count / wall,
                            "decisions_per_cpu_sec": count / cpu,
                            "trace": trace,
                        }
                        rows.append(
                            [
                                cache_label,
                                mode,
                                f"{client.wire} ({'traced' if trace else 'elided'})",
                                f"{count / wall:,.0f}",
                                f"{count / cpu:,.0f}",
                            ]
                        )

    ratios = {
        f"binary_over_json_{cache}_{mode}": (
            cells[f"{cache}_{mode}_binary"]["decisions_per_sec"]
            / cells[f"{cache}_{mode}_json"]["decisions_per_sec"]
        )
        for cache in ("uncached", "cached")
        for mode in ("batch", "point")
    }
    for mode in ("batch", "point"):
        ratios[f"binary_over_json_elided_{mode}"] = (
            cells[f"uncached_{mode}_binary"]["decisions_per_sec"]
            / cells[f"uncached_{mode}_json_elided"]["decisions_per_sec"]
        )
    headline = ratios["binary_over_json_uncached_batch"]
    rows.append(
        ["uncached", "batch", "binary/json", f"{headline:.2f}x", f"(floor {BINARY_BATCH_FLOOR}x)"]
    )
    for mode in ("batch", "point"):
        rows.append(
            [
                "uncached",
                mode,
                "binary/json (both elided)",
                f"{ratios[f'binary_over_json_elided_{mode}']:.2f}x",
                "(codec only)",
            ]
        )
    table_printer(
        f"Wire-format decide throughput, {BATCH_DECIDES} batch / {POINT_DECIDES} point decides",
        ["cache", "mode", "wire", "decides/s", "decides/cpu-s"],
        rows,
    )
    bench_json(cells=cells, ratios=ratios, floor=BINARY_BATCH_FLOOR)

    assert headline >= BINARY_BATCH_FLOOR, (
        f"binary decide_many only {headline:.2f}x the NDJSON protocol on the "
        f"uncached path (floor {BINARY_BATCH_FLOOR}x): "
        f"{cells['uncached_batch_binary']['decisions_per_sec']:,.0f}/s vs "
        f"{cells['uncached_batch_json']['decisions_per_sec']:,.0f}/s"
    )


if __name__ == "__main__":  # pragma: no cover - manual profiling entry
    pytest.main([__file__, "-q", "-s"])
