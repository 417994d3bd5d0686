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
full cost of a decision crossing the wire).  The uncached server also runs
NDJSON *elided*: ``binary_over_json_elided_{point,batch}`` vary the codec
alone.  Every timing cell and ratio lands in ``BENCH_wire.json`` and none
is floored — wall-clock ratios on shared CPUs are perfbench's to judge.

The asserted floor is deterministic and covers the same two variables the
old throughput floor did, codec plus trace elision: the response bytes per
decision that an elided binary ``decide_many`` saves over the traced NDJSON
one, for the same batch on fresh connections.  (The throughput floor rested
on the traced evaluator costing ~2.5x a trace-free one; there is one cheap
evaluator now, so that ratio measured the evaluator, not the wire.)
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
#: Uncached decide_many of one DECIDE_CHUNK batch: response bytes per
#: decision that binary (elided, the default) saves over NDJSON (traced, the
#: legacy default).  Measured 648.4 (760.8 traced vs 112.5 elided) when
#: this module runs alone; the traced side echoes request ids, which only
#: grow longer when other modules ran first.
BYTES_SAVED_FLOOR = 600.0


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


class _CountingReader:
    """Wraps a client's socket reader and counts the response bytes read."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.count = 0

    def read(self, size=-1):
        data = self._inner.read(size)
        self.count += len(data)
        return data

    def readline(self, size=-1):
        line = self._inner.readline(size)
        self.count += len(line)
        return line

    def close(self) -> None:
        self._inner.close()


def _response_bytes(server, wire, trace, requests):
    """Bytes of one ``decide_many`` response, on a fresh connection."""
    with ServiceClient(*server.address, wire=wire) as client:
        assert client.wire == wire
        reader = client._reader = _CountingReader(client._reader)
        decisions = client.call("decide_many", requests=requests, trace=trace)["decisions"]
        assert len(decisions) == len(requests)
        return reader.count


def test_binary_wire_decide_throughput_budget(table_printer, bench_json):
    hierarchy = _hierarchy()
    pool, batch_stream, point_stream = _streams(hierarchy)
    sized_batch = batch_stream[:DECIDE_CHUNK]
    response_bytes = {}

    cells = {}
    rows = []
    for cache_label, cache in (("uncached", None), ("cached", DecisionCache(maxsize=1 << 17))):
        engine = _seeded_engine(hierarchy)
        with LtamServer(engine, cache=cache) as server:
            if cache is None:
                response_bytes = {
                    "json_traced": _response_bytes(server, "json", True, sized_batch),
                    "binary_elided": _response_bytes(server, "binary", False, sized_batch),
                }
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
    bytes_per_decision = {
        name: count / len(sized_batch) for name, count in response_bytes.items()
    }
    saved = bytes_per_decision["json_traced"] - bytes_per_decision["binary_elided"]
    rows.append(
        [
            "uncached",
            "batch",
            "binary/json",
            f"{ratios['binary_over_json_uncached_batch']:.2f}x",
            "(not floored)",
        ]
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
    table_printer(
        f"Uncached decide_many response bytes per decision ({len(sized_batch)} decisions)",
        ["json (traced)", "binary (elided)", "saved", "floor"],
        [
            [
                f"{bytes_per_decision['json_traced']:.1f}",
                f"{bytes_per_decision['binary_elided']:.1f}",
                f"{saved:.1f}",
                f"{BYTES_SAVED_FLOOR:.1f}",
            ]
        ],
    )
    bench_json(
        cells=cells,
        ratios=ratios,
        response_bytes_per_decision=bytes_per_decision,
        response_bytes_saved_per_decision=saved,
        bytes_saved_floor=BYTES_SAVED_FLOOR,
    )

    assert saved >= BYTES_SAVED_FLOOR, (
        f"elided binary decide_many saves only {saved:.1f} response bytes per decision "
        f"over traced NDJSON (floor {BYTES_SAVED_FLOOR}): "
        f"{bytes_per_decision['binary_elided']:.1f} vs {bytes_per_decision['json_traced']:.1f}"
    )


if __name__ == "__main__":  # pragma: no cover - manual profiling entry
    pytest.main([__file__, "-q", "-s"])
