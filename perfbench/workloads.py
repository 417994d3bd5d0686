"""The three workloads: topology, seeded inputs, operations, layer probes.

Each workload object exposes the same surface to the run loop in ``run.py``:

* ``setup_steps()`` — the set-up, as named steps run in order;
* ``round_inputs(r)`` — round *r*'s point requests, ``decide_many``
  batches and movement records (deterministic for a seed);
* ``point`` / ``batch`` / ``observe`` — one operation each, through the
  public API; ``observe`` includes the flush or ``sync`` that ends it;
* ``instrument(tracer)`` — span wrappers for the traced run;
* ``counters()`` and ``layer_metrics(...)`` — per-layer figures.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

from repro.api import CapacityStage, Ltam
from repro.service import DecisionCache, FabricRouter, PartitionMap, ServiceClient
from repro.service.protocol import decision_to_dict, elide_decision, request_to_dict
from repro.service.wire import Decoder, Encoder

import common
from common import Inputs, MovementFeed, build_inputs, random_requests

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: ``decide_many`` batch size, the same on every workload.
BATCH_SIZE = 250
PARTITIONS = ("p0", "p1")
#: Decision-cache entry cap on each fabric partition; the fabric key space
#: is several times larger, so the cache evicts as well as invalidates.
FABRIC_CACHE_CAP = 64
FABRIC_KEYS = 3_000
SERVED_POOL = 2_000
CHILD_READY_TIMEOUT = 120.0
#: Time of the first-answer probe that ends each set-up (any in-horizon chronon).
PROBE_TIME = 100

EMBEDDED_SUBJECTS, EMBEDDED_HISTORY = 300, 20_000
SERVED_SUBJECTS, SERVED_HISTORY = 300, 20_000
FABRIC_SUBJECTS, FABRIC_HISTORY, FABRIC_CAPPED = 120, 8_000, 8


def embedded_inputs(seed: int) -> Inputs:
    return build_inputs(seed, EMBEDDED_SUBJECTS, EMBEDDED_HISTORY)


def served_inputs(seed: int) -> Inputs:
    return build_inputs(seed, SERVED_SUBJECTS, SERVED_HISTORY)


def fabric_inputs(seed: int) -> Inputs:
    return build_inputs(seed, FABRIC_SUBJECTS, FABRIC_HISTORY, capacities=FABRIC_CAPPED)


def new_engine(inputs: Inputs, *, sqlite: str = None) -> Ltam:
    builder = Ltam.builder().hierarchy(inputs.hierarchy)
    if sqlite is not None:
        builder = builder.backend("sqlite", sqlite)
    if inputs.capacities:
        builder = builder.stage(CapacityStage())
        for location, limit in sorted(inputs.capacities.items()):
            builder = builder.capacity(location, limit)
    engine = builder.build()
    engine.grant_all(inputs.grants)
    return engine


def build_engine(inputs: Inputs, *, history=None, sqlite: str = None) -> Ltam:
    """The seeded engine: grants plus movement history, no decision cache."""
    engine = new_engine(inputs, sqlite=sqlite)
    engine.movement_db.record_many(inputs.history if history is None else history)
    return engine


def _round_rng(seed: int, round_index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + round_index)


# --------------------------------------------------------------------- #
# Embedded-engine layer probes (used live by embedded-cold, and on the
# oracle's replay engine by the other two)
# --------------------------------------------------------------------- #
STORAGE_SPANS = {
    "storage.candidates_for": "candidates_for",
    "storage.enterable_at": "enterable_candidates",
    "storage.entry_count": "entry_count",
    "storage.occupancy": "occupancy_of",
}


def instrument_engine(tracer: common.Tracer, engine: Ltam) -> None:
    info = engine.pdp.info
    for name, attr in STORAGE_SPANS.items():
        if getattr(info, attr, None) is not None:
            tracer.wrap(info, attr, name, sized=attr in ("candidates_for", "enterable_candidates"))
    tracer.wrap(engine.pdp, "decide", "api.decide")
    tracer.wrap(engine.pdp, "decide_many", "api.decide_many")
    tracer.wrap(engine.monitor, "observe_many", "engine.observe")
    tracer.wrap(engine.movement_db, "record_entry", "storage.record")
    tracer.wrap(engine.movement_db, "record_exit", "storage.record")


def engine_layer_metrics(tracer: common.Tracer) -> Dict[str, float]:
    """Pipeline, ingest and monitor figures from an instrumented engine's spans."""
    selfs = tracer.self_times()
    by_name: Dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    roots = by_name.get("decide", ())
    root_ids = {r[0] for r in roots}
    root_requests = {r[5] for r in roots}
    api_points = [s for s in by_name.get("api.decide", ()) if s[1] in root_ids]
    candidates = sum(
        s[6] or 0 for name in ("storage.candidates_for", "storage.enterable_at")
        for s in by_name.get(name, ()) if s[5] in root_requests
    )
    batches = by_name.get("api.decide_many", ())
    observes = by_name.get("engine.observe", ())
    records = by_name.get("storage.record", ())
    events = len(records)
    api_self = sum(selfs[s[0]] for s in api_points)
    root_total = sum(s[4] - s[3] for s in roots)
    return {
        "storage.candidates_per_request": candidates / len(roots) if roots else 0.0,
        "storage.record_many_us_per_event": (
            sum(s[4] - s[3] for s in records) * 1e6 / events if events else 0.0
        ),
        "storage.events_per_commit": events / len(observes) if observes else 0.0,
        "api.decide_traced_us": common.median([(s[4] - s[3]) * 1e6 for s in api_points]),
        "api.decide_many_us_per_request": (
            sum(s[4] - s[3] for s in batches) * 1e6 / (len(batches) * BATCH_SIZE)
            if batches else 0.0
        ),
        "api.share_of_decide": api_self / root_total if root_total else 0.0,
        "engine.observe_us_per_event": (
            sum(selfs[s[0]] for s in observes) * 1e6 / events if events else 0.0
        ),
    }


def _timed_us(samples: list, call, *args, **kwargs):
    started = time.perf_counter()
    result = call(*args, **kwargs)
    samples.append((time.perf_counter() - started) * 1e6)
    return result


def replay_metrics(engine: Ltam, requests, decisions, cache_cap: int) -> Dict[str, float]:
    """Per-call costs replayed in-process on the workload's own sampled keys.

    Each PIP read, the trace-free pipeline, the binary codec and a decision
    cache lookup are called directly, one key at a time, on an engine whose
    state matches the end of the run.  The medians are what one call costs
    on this workload's keys, whether or not its topology makes the call.
    """
    info, authorizations = engine.pdp.info, engine.authorization_db
    times: Dict[str, list] = {name: [] for name in (
        "candidates", "enterable", "entry_count", "occupancy", "lean", "encode", "decode")}
    client_encoder, server_encoder, client_decoder = Encoder(), Encoder(), Decoder()
    for index, (request, decision) in enumerate(zip(requests, decisions)):
        subject, location, at = request.subject, request.location, request.time
        candidates = _timed_us(times["candidates"], info.candidates_for, subject, location)
        _timed_us(times["enterable"], authorizations.enterable_at, at,
                  subject=subject, location=location)
        if candidates:
            _timed_us(times["entry_count"], info.entry_count, subject, location,
                      candidates[0].entry_duration)
        _timed_us(times["occupancy"], info.occupancy_of, location)
        _timed_us(times["lean"], engine.pdp.decide, request, trace=False)
        frame = {"op": "decide", "id": index, "request": request_to_dict(request), "trace": False}
        _timed_us(times["encode"], client_encoder.encode, frame)
        body = server_encoder.encode(
            {"id": index, "ok": True, "result": elide_decision(decision_to_dict(decision))}
        )
        _timed_us(times["decode"], client_decoder.decode, body)
    batch = decisions[:BATCH_SIZE]
    batch_body = Encoder().encode(
        {"id": 1, "ok": True,
         "result": {"decisions": [elide_decision(decision_to_dict(d)) for d in batch]}}
    )
    cache = DecisionCache(maxsize=cache_cap)
    for request, decision in zip(requests, decisions):
        cache.store(request, decision)
    lookups: list = []
    for request in requests:
        _timed_us(lookups, cache.lookup, request)
    return {
        "storage.candidates_for_us": common.median(times["candidates"]),
        "storage.enterable_at_us": common.median(times["enterable"]),
        "storage.entry_count_us": common.median(times["entry_count"]),
        "storage.occupancy_us": common.median(times["occupancy"]),
        "api.decide_lean_us": common.median(times["lean"]),
        "codec.request_encode_us": common.median(times["encode"]),
        "codec.response_decode_us": common.median(times["decode"]),
        "codec.bytes_per_decision": len(batch_body) / len(batch) if batch else 0.0,
        "cache.lookup_us": common.median(lookups),
    }


# --------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------- #
class Child:
    """One ``child.py`` process; reaped (and its SQLite directory removed) on close."""

    def __init__(self, role: str, seed: int) -> None:
        temporary = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(temporary, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{role}-", dir=temporary)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self._log = open(os.path.join(self.workdir, "child.log"), "w")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), "--role", role,
             "--seed", str(seed), "--workdir", self.workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            cwd=ROOT, env=env, text=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], CHILD_READY_TIMEOUT)
            line = self.process.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError(f"{role} child did not come up: {self._tail()}")
            self.addresses = json.loads(line)["addresses"]
        except BaseException:
            self.close()
            raise

    def _tail(self) -> str:
        self._log.flush()
        with open(os.path.join(self.workdir, "child.log")) as handle:
            return handle.read()[-2000:]

    @property
    def pid(self) -> int:
        return self.process.pid

    def reference_speed(self) -> float:
        """The reference loop's speed measured inside the child."""
        self.process.stdin.write("ref\n")
        self.process.stdin.flush()
        ready, _, _ = select.select([self.process.stdout], [], [], CHILD_READY_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"child stopped answering: {self._tail()}")
        return float(json.loads(line)["ref"])

    def close(self) -> None:
        try:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=30)
        finally:
            self.process.stdout.close()
            self._log.close()
            shutil.rmtree(self.workdir, ignore_errors=True)


def _host_speeds(child):
    """Reference speeds of the load generator and of the child (0 when none)."""
    return common.reference_speed(), child.reference_speed() if child is not None else 0.0


def _child_usage(child):
    """``(pid, CPU seconds)`` of the child, ``(None, 0.0)`` when there is none."""
    return (child.pid, common.cpu_seconds(child.pid)) if child is not None else (None, 0.0)


def _flatten_metrics(document: dict) -> Dict[str, float]:
    flat: Dict[str, float] = {}
    for item in document.get("counters", ()):
        label = ",".join(f"{k}={v}" for k, v in sorted(item["labels"].items()))
        flat[f"{item['name']}{{{label}}}"] = float(item["value"])
    for item in document.get("histograms", ()):
        label = ",".join(f"{k}={v}" for k, v in sorted(item["labels"].items()))
        flat[f"{item['name']}{{{label}}}.count"] = float(item["count"])
        flat[f"{item['name']}{{{label}}}.sum"] = float(item["sum"])
    return flat


def _server_counters(health: dict, metrics: dict) -> Dict[str, float]:
    flat = _flatten_metrics(metrics)
    cache = health.get("cache") or {}
    for key in ("hits", "misses", "invalidated", "evicted"):
        flat[f"cache.{key}"] = float(cache.get(key, 0))
    return flat


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #
class EmbeddedCold:
    """In-process ``Ltam`` on the memory backend, no decision cache."""

    name = "embedded-cold"
    points_per_round, batches_per_round, events_per_round = 400, 4, 300
    #: Nominal duration of one round, reference speed NOMINAL_REF_PER_S.
    round_seconds = 0.09
    #: Entry cap of the cache whose lookup cost is replayed (the default).
    cache_cap = 65_536

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.engine = None

    def setup_steps(self):
        state = {}

        def inputs():
            state["inputs"] = embedded_inputs(self.seed)

        def engine():
            self.engine = None
            state["engine"] = new_engine(state["inputs"])

        def history():
            state["engine"].movement_db.record_many(state["inputs"].history)

        def first_answer():
            self.inputs, self.engine = state["inputs"], state["engine"]
            self.engine.decide((PROBE_TIME, self.inputs.subjects[0], self.inputs.locations[0]))
            self._start()

        return [("inputs", inputs), ("engine", engine), ("history", history),
                ("first_answer", first_answer)]

    def _start(self) -> None:
        rng = random.Random(self.seed * 17 + 3)
        self.feed = MovementFeed(rng, self.inputs.subjects, self.inputs.locations,
                                 start_time=common.HISTORY_END + 1)

    def round_inputs(self, round_index: int):
        rng = _round_rng(self.seed, round_index)
        subjects, locations = self.inputs.subjects, self.inputs.locations
        points = random_requests(rng, subjects, locations, self.points_per_round)
        batches = [random_requests(rng, subjects, locations, BATCH_SIZE)
                   for _ in range(self.batches_per_round)]
        return points, batches, self.feed.events(self.events_per_round)

    def host_speeds(self):
        """Reference speeds of the load generator and the child (none here)."""
        return common.reference_speed(), 0.0

    def child_usage(self):
        return None, 0.0

    def point(self, request):
        return self.engine.decide(request)

    def batch(self, requests):
        return self.engine.decide_many(requests)

    def observe(self, records) -> None:
        self.engine.observe_many(records)

    def rss_mb(self) -> float:
        return common.peak_rss_mb()

    def instrument(self, tracer) -> None:
        instrument_engine(tracer, self.engine)

    def counters(self) -> Dict[str, float]:
        return {}

    def layer_metrics(self, tracer, delta, context, layers) -> Dict[str, float]:
        return engine_layer_metrics(tracer)

    def teardown(self) -> None:
        self.engine = None


class ServedHot:
    """One ``LtamServer`` child (binary wire, default ``DecisionCache``)."""

    name = "served-hot"
    points_per_round, batches_per_round, events_per_round = 250, 4, 200
    round_seconds = 0.10
    cache_cap = 65_536

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.child = None
        self.client = None

    def setup_steps(self):
        state = {}

        def inputs():
            state["inputs"] = served_inputs(self.seed)

        def child():
            self.teardown()
            self.child = Child("served", self.seed)

        def first_answer():
            self.inputs = state["inputs"]
            host, port = self.child.addresses["server"].rsplit(":", 1)
            self.client = ServiceClient(host, int(port), wire="binary")
            self.client.decide((PROBE_TIME, self.inputs.subjects[0], self.inputs.locations[0]))
            self._start()

        return [("inputs", inputs), ("child", child), ("first_answer", first_answer)]

    def _start(self) -> None:
        if self.client.wire != "binary":
            raise RuntimeError("the served-hot client did not negotiate the binary wire")
        rng = random.Random(self.seed * 17 + 5)
        locations = list(self.inputs.locations)
        rng.shuffle(locations)
        half = len(locations) // 2
        self.hot, self.cold = sorted(locations[:half]), sorted(locations[half:])
        self.pool = random_requests(rng, self.inputs.subjects, self.hot, SERVED_POOL)
        self.feed = MovementFeed(rng, self.inputs.subjects, self.cold,
                                 start_time=common.HISTORY_END + 1)

    def warm(self) -> None:
        for start in range(0, len(self.pool), BATCH_SIZE):
            self.client.decide_many(self.pool[start:start + BATCH_SIZE])

    def round_inputs(self, round_index: int):
        rng = _round_rng(self.seed, round_index)
        pool = self.pool
        points = [pool[rng.randrange(len(pool))] for _ in range(self.points_per_round)]
        batches = [[pool[rng.randrange(len(pool))] for _ in range(BATCH_SIZE)]
                   for _ in range(self.batches_per_round)]
        return points, batches, self.feed.events(self.events_per_round)

    def host_speeds(self):
        return _host_speeds(self.child)

    def child_usage(self):
        return _child_usage(self.child)

    def point(self, request):
        return self.client.decide(request)

    def batch(self, requests):
        return self.client.decide_many(requests)

    def observe(self, records) -> None:
        self.client.observe_batch(records, mode="monitor", wait=True)

    def rss_mb(self) -> float:
        return common.peak_rss_mb(self.child.pid)

    def instrument(self, tracer) -> None:
        tracer.wrap(self.client, "decide", "client.decide")
        tracer.wrap(self.client, "call", "client.call")

    def counters(self) -> Dict[str, float]:
        flat = _server_counters(self.client.health(), self.client.call("metrics"))
        flat["cpu_s"] = common.cpu_seconds(self.child.pid)
        return flat

    def layer_metrics(self, tracer, delta, context, layers) -> Dict[str, float]:
        return server_layer_metrics(tracer, delta, context, layers, root="client.decide")

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.child is not None:
            self.child.close()
            self.child = None


class FabricChurn:
    """An in-process ``FabricRouter`` over two SQLite partitions and a bus in one child."""

    name = "fabric-churn"
    # Small rounds: the two vCPUs change speed independently and often, so
    # the reference runs must stay close in time to the work they scale.
    points_per_round, batches_per_round, events_per_round = 50, 1, 70
    round_seconds = 0.15
    cache_cap = FABRIC_CACHE_CAP

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.child = None
        self.router = None

    def setup_steps(self):
        state = {}

        def inputs():
            state["inputs"] = fabric_inputs(self.seed)

        def child():
            self.teardown()
            self.child = Child("fabric", self.seed)

        def first_answer():
            self.inputs = state["inputs"]
            self.router = FabricRouter(
                PartitionMap(dict(self.child.addresses)), pool_size=1, wire="binary"
            )
            self.router.sync_raw()
            self.router.decide((PROBE_TIME, self.inputs.subjects[0], self.inputs.locations[0]))
            self._start()

        return [("inputs", inputs), ("child", child), ("first_answer", first_answer)]

    def _start(self) -> None:
        rng = random.Random(self.seed * 17 + 7)
        self.keys = random_requests(rng, self.inputs.subjects, self.inputs.locations, FABRIC_KEYS)
        self.feed = MovementFeed(rng, self.inputs.subjects, self.inputs.locations,
                                 start_time=common.HISTORY_END + 1)
        self.owner = self.router.partition_map.owner
        self.sync_us: List[float] = []

    def round_inputs(self, round_index: int):
        rng = _round_rng(self.seed, round_index)
        keys = self.keys
        points = [keys[rng.randrange(len(keys))] for _ in range(self.points_per_round)]
        batches = [[keys[rng.randrange(len(keys))] for _ in range(BATCH_SIZE)]
                   for _ in range(self.batches_per_round)]
        return points, batches, self.feed.events(self.events_per_round)

    def host_speeds(self):
        return _host_speeds(self.child)

    def child_usage(self):
        return _child_usage(self.child)

    def point(self, request):
        return self.router.decide(request)

    def batch(self, requests):
        return self.router.decide_many(requests)

    def observe(self, records) -> None:
        self.router.observe_batch(records, mode="monitor", wait=True)
        started = time.perf_counter()
        self.router.sync_raw()
        self.sync_us.append((time.perf_counter() - started) * 1e6)

    def rss_mb(self) -> float:
        return common.peak_rss_mb(self.child.pid)

    def instrument(self, tracer) -> None:
        tracer.wrap(self.router, "decide", "router.decide")
        tracer.wrap(self.router, "decide_many", "router.decide_many")
        tracer.wrap(ServiceClient, "call", "client.call")

    def counters(self) -> Dict[str, float]:
        health = self.router.health()
        metrics = self.router.metrics_raw()
        flat: Dict[str, float] = {"cpu_s": common.cpu_seconds(self.child.pid)}
        for name in PARTITIONS:
            part = _server_counters(health["partitions"][name], metrics["partitions"][name])
            for key, value in part.items():
                flat[key] = flat.get(key, 0.0) + value
        ledgers = [health["partitions"][name].get("ledger") or {} for name in PARTITIONS]
        flat["bus.lag_s"] = max(float(ledger.get("lag_seconds", 0.0)) for ledger in ledgers)
        flat["ledger.converged"] = 1.0 if (health.get("ledger") or {}).get("converged") else 0.0
        return flat

    def layer_metrics(self, tracer, delta, context, layers) -> Dict[str, float]:
        metrics = server_layer_metrics(tracer, delta, context, layers, root="router.decide")
        selfs = tracer.self_times()
        batch_spans = [s for s in tracer.spans if s[2] == "router.decide_many"]
        owners = [len({self.owner(r.subject) for r in batch}) for batch in context["batches"]]
        metrics.update({
            "fabric.partitions_per_batch": common.mean(owners),
            "fabric.router_overhead_us": common.median([selfs[s[0]] * 1e6 for s in batch_spans]),
            "fabric.sync_us": common.median(self.sync_us),
            "bus.lag_s": context["after"]["bus.lag_s"],
            "ledger.converged": context["after"]["ledger.converged"],
        })
        return metrics

    def teardown(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None
        if self.child is not None:
            self.child.close()
            self.child = None


def server_layer_metrics(tracer, delta, context, layers, *, root) -> Dict[str, float]:
    """Cache, server and transport figures for a topology whose engine is in a child."""
    decides = delta.get("repro_ops_total{op=decide}", 0.0)
    batches = delta.get("repro_ops_total{op=decide_many}", 0.0)
    ops = sum(value for key, value in delta.items() if key.startswith("repro_ops_total{"))
    op_decide_us = (
        delta.get("repro_op_latency_seconds{op=decide}.sum", 0.0) * 1e6 / decides if decides else 0.0
    )
    op_many_us = (
        delta.get("repro_op_latency_seconds{op=decide_many}.sum", 0.0) * 1e6
        / (batches * BATCH_SIZE) if batches else 0.0
    )
    lookups = delta.get("cache.hits", 0.0) + delta.get("cache.misses", 0.0)
    events = context["events"]
    root_ids = {s[0] for s in tracer.spans if s[2] == root}
    calls = [s for s in tracer.spans if s[2] == "client.call" and s[1] in root_ids]
    call_us = common.median([(s[4] - s[3]) * 1e6 for s in calls])
    metrics = {
        "cache.hit_ratio": delta.get("cache.hits", 0.0) / lookups if lookups else 0.0,
        "cache.invalidated_per_1k_events": (
            delta.get("cache.invalidated", 0.0) * 1000 / events if events else 0.0
        ),
        "cache.evicted_per_1k_lookups": (
            delta.get("cache.evicted", 0.0) * 1000 / lookups if lookups else 0.0
        ),
        "server.op_decide_us": op_decide_us,
        "server.op_decide_many_us_per_request": op_many_us,
        "server.transport_us": call_us - op_decide_us
        - layers["codec.request_encode_us"] - layers["codec.response_decode_us"],
        "server.cpu_us_per_op": delta.get("cpu_s", 0.0) * 1e6 / ops if ops else 0.0,
    }
    commits = delta.get("repro_ingest_commit_seconds{}.count", 0.0)
    if commits:
        metrics["storage.events_per_commit"] = events / commits
        metrics["storage.record_many_us_per_event"] = (
            delta.get("repro_ingest_commit_seconds{}.sum", 0.0) * 1e6 / events
        )
    return metrics


WORKLOADS = {cls.name: cls for cls in (EmbeddedCold, ServedHot, FabricChurn)}
