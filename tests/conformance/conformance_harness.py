"""The cross-topology differential harness.

One deterministic workload — a seeded authorization set (shared objects, so
auth ids are identical everywhere), a `workload.movement_events()` trace cut
into rounds, a decision stream, and a query script — is replayed against
every serving topology the system supports, and the transcripts must be
**byte-identical**: every decision (trace included), every query result, on
every topology, serialized to canonical JSON.

The topologies:

* ``embedded-memory`` — the reference: an in-process engine over the plain
  in-memory movement store;
* ``embedded-sqlite`` — same engine over a SQLite file;
* ``server`` — one cached ``LtamServer`` spoken to over the wire;
* ``server-binary`` — the same server, but the client negotiates the compact
  binary wire format first; traces are explicitly re-requested
  (``trace=True``), so the transcript must stay byte-identical even though
  the bytes on the socket are a different codec entirely;
* ``server-persistent-cache`` — one ``LtamServer`` over a SQLite file with
  the **durable tiered cache** (a SQLite sidecar under the decision cache).
  After round ``RESTART_AFTER_ROUND`` the whole server is torn down and
  rebooted against the same movement file *and the same cache file*: the
  warm pass re-admits the persisted entries that survive validation, and
  every post-restart decision — whether served from a re-admitted row or
  re-evaluated — must stay byte-identical to the embedded reference;
* ``replicas`` — two cached ``LtamServer`` replicas over one shared SQLite
  file, coherent through the invalidation bus: observes and queries go to
  replica A, **decisions are served by replica B**, with the ``sync`` op as
  the round barrier.
* ``partitioned`` — the serving fabric: two cached ``LtamServer``
  partitions, each holding only its subjects' movement state, behind a
  :class:`~repro.service.fabric.FabricRouter`.  Every interaction goes
  through the router (point ops to the owner, batches scatter-gathered,
  ``WHO IS IN`` fanned out and merged) — and after round
  ``RESHARD_AFTER_ROUND`` the topology **reshards live**: the workload's
  first subject is pinned to the other partition and migrated (archived
  slice, live slice and alert history hand off) while the transcript must
  stay byte-identical to the embedded reference.

With ``REPRO_CONFORMANCE_SUBPROCESS=1`` the replica topology spawns two real
``repro serve`` processes (joined by ``--bus``/``--peers``) instead of
in-process servers, and the partitioned topology spawns two ``repro serve
--partition`` processes behind a real ``repro route`` process (the reshard
travels over the wire too) — the CI job runs that mode.

The one canonicalization: ``request_id`` is stripped before comparison.  It
is client-side echo metadata, and a cache hit legitimately echoes the
priming request's id (documented on :class:`repro.service.client.RemotePdp`);
everything else — grant/deny, reason, entries used, the admitting
authorization, the full per-stage trace — must match byte for byte.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.api import Ltam
from repro.api.stages import CapacityStage
from repro.engine.query.evaluator import QueryEngine
from repro.core.authorization import UNLIMITED_ENTRIES, LocationTemporalAuthorization
from repro.core.requests import AccessRequest
from repro.core.serialization import dumps_authorizations
from repro.locations.multilevel import LocationHierarchy
from repro.locations.serialization import dumps as dumps_layout
from repro.service import (
    DecisionCache,
    FabricRouter,
    InvalidationBus,
    LtamServer,
    PartitionMap,
    ServiceClient,
    TieredDecisionCache,
)
from repro.service.protocol import (
    decision_to_dict,
    query_result_to_dict,
    records_to_wire,
    request_to_dict,
)
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.storage.movement_db import MovementKind, MovementRecord

TOPOLOGIES = (
    "embedded-memory",
    "embedded-sqlite",
    "server",
    "server-binary",
    "server-persistent-cache",
    "replicas",
    "partitioned",
    "partitioned-binary",
)

SUBJECT_COUNT = 36
ROUNDS = 4
EVENTS_PER_ROUND = 400
DECIDES_PER_ROUND = 150
#: The round after which every topology takes a compacting checkpoint —
#: LIVE/ARCHIVED-scoped queries diverge meaningfully from there on.
CHECKPOINT_AFTER_ROUND = 1
#: The round after which a topology with a ``migrate`` hook reshards —
#: late enough that the migrating subject carries archived *and* live
#: records, early enough that a post-migration round still exercises it.
RESHARD_AFTER_ROUND = 2
#: The round after which a topology with a ``restart`` hook is torn down
#: and rebooted (the durable-cache topology reuses its cache file across
#: the boundary) — same placement rationale as the reshard.
RESTART_AFTER_ROUND = 2

SUBPROCESS_ENV = "REPRO_CONFORMANCE_SUBPROCESS"


def subprocess_replicas() -> bool:
    return os.environ.get(SUBPROCESS_ENV, "") not in ("", "0")


# --------------------------------------------------------------------- #
# The workload script
# --------------------------------------------------------------------- #
class Workload:
    """The deterministic script every topology replays."""

    #: per-location occupancy limits; when non-empty every topology builds
    #: its engines with the :class:`CapacityStage` and these limits (and the
    #: partitioned topologies attach the invalidation bus so the capacity
    #: ledger replicates occupancy fabric-wide).
    capacities: Dict[str, int] = {}

    def __init__(self, seed: int = 11) -> None:
        self.graph = grid_building("B", 4, 4)
        self.hierarchy = LocationHierarchy(self.graph)
        self.subjects = generate_subjects(SUBJECT_COUNT)
        generator = AuthorizationWorkloadGenerator(self.hierarchy, seed=seed)
        #: one shared authorization list — granted everywhere, so the
        #: auto-generated auth ids agree across topologies.
        self.authorizations = generator.authorizations(self.subjects)
        events = generator.movement_events(self.subjects, ROUNDS * EVENTS_PER_ROUND)
        decide_gen = AuthorizationWorkloadGenerator(self.hierarchy, seed=seed + 1)
        self.rounds: List[Tuple[list, list, List[str]]] = []
        for index in range(ROUNDS):
            chunk = events[index * EVENTS_PER_ROUND : (index + 1) * EVENTS_PER_ROUND]
            requests = decide_gen.requests(self.subjects, DECIDES_PER_ROUND)
            self.rounds.append((chunk, requests, self._round_queries(chunk)))

    def _round_queries(self, chunk) -> List[str]:
        locations = sorted(self.hierarchy.primitive_names)
        at = chunk[len(chunk) // 2].time
        queries: List[str] = []
        for location in locations[:3]:
            queries.append(f"WHO IS IN {location} AT {at}")
            queries.append(f"WHO IS IN {location} AT {at} LIVE")
            queries.append(f"WHO IS IN {location}")
        for subject in self.subjects[:4]:
            queries.append(f"WHERE IS {subject} AT {at}")
            queries.append(f"WHERE IS {subject}")
            queries.append(f"ENTRIES OF {subject} INTO {locations[0]}")
            queries.append(f"ENTRIES OF {subject} INTO {locations[0]} LIVE")
            queries.append(f"CAN {subject} ENTER {locations[1]} AT {at}")
        queries.append(f"VIOLATIONS FOR {self.subjects[0]}")
        queries.append(f"AUTHORIZATIONS FOR {self.subjects[1]}")
        return queries


class FlashCrowdWorkload(Workload):
    """The global-capacity differential: a flash crowd on one location.

    One location gets an occupancy limit, and a rotating crowd of subjects
    converges on it round after round while everyone else roams the rest of
    the building.  Decision probes hammer the hot location every round —
    against a *full* room (``over_capacity`` denials) and against a room
    with slack (grants whose ``occupancy n/limit`` trace detail embeds the
    exact global count).

    In the partitioned topologies the crowd spans both partitions, so every
    one of those verdicts is byte-identical to the embedded reference only
    if the fabric counts occupants **globally** — the capacity ledger under
    test.  The crowd's observed entries never exceed the limit (capacity is
    enforced at *decide* time; the monitor's over-capacity alerting counts
    partition-local sessions and would legitimately diverge), and the
    workload's first subject is mid-stay inside the hot location when the
    harness reshards after round ``RESHARD_AFTER_ROUND`` — the moved stay
    must be counted exactly once afterwards.
    """

    HOT_CAPACITY = 6

    def __init__(self, seed: int = 29) -> None:
        self.graph = grid_building("B", 4, 4)
        self.hierarchy = LocationHierarchy(self.graph)
        self.subjects = generate_subjects(SUBJECT_COUNT)
        generator = AuthorizationWorkloadGenerator(self.hierarchy, seed=seed)
        horizon = generator.config.horizon
        locations = sorted(self.hierarchy.primitive_names)
        self.hot = locations[0]
        self.capacities = {self.hot: self.HOT_CAPACITY}
        # Everyone may enter the hot location at any time with an unlimited
        # budget: capacity must be the *deciding* stage for the probes, not
        # entry windows or budget exhaustion.
        self.authorizations = generator.authorizations(self.subjects) + [
            LocationTemporalAuthorization(
                (subject, self.hot), (0, horizon), (0, horizon), UNLIMITED_ENTRIES
            )
            for subject in self.subjects
        ]
        crowd = self.subjects[: self.HOT_CAPACITY + 2]
        #: who is inside the hot location at each round's decide point:
        #: full → slack → full (fresh members; the reshard victim
        #: ``subjects[0]`` mid-stay) → full (churned again).
        plan = (
            crowd[:6],
            crowd[:4],
            crowd[:3] + crowd[5:8],
            crowd[2:8],
        )
        assert all(len(occupants) <= self.HOT_CAPACITY for occupants in plan)
        inside: List[str] = []
        roaming: Dict[str, str] = {}
        span = horizon // ROUNDS
        self.rounds = []
        for index, occupants in enumerate(plan):
            base = index * span
            clock = iter(range(base, base + span - 20))
            chunk: List[MovementRecord] = []
            # Exits first, so observed occupancy never exceeds the limit.
            for subject in [s for s in inside if s not in occupants]:
                chunk.append(
                    MovementRecord(next(clock), subject, self.hot, MovementKind.EXIT)
                )
            for subject in [s for s in occupants if s not in inside]:
                station = roaming.pop(subject, None)
                if station is not None:
                    chunk.append(
                        MovementRecord(next(clock), subject, station, MovementKind.EXIT)
                    )
                chunk.append(
                    MovementRecord(next(clock), subject, self.hot, MovementKind.ENTER)
                )
            inside = list(occupants)
            # Background churn away from the hot location: every other
            # subject alternates between a station and outside, so both
            # partitions publish occupancy deltas for many locations every
            # round (the ledger replicates more than one counter).
            for offset, subject in enumerate(self.subjects):
                if subject in occupants:
                    continue
                station = roaming.pop(subject, None)
                if station is not None:
                    chunk.append(
                        MovementRecord(next(clock), subject, station, MovementKind.EXIT)
                    )
                else:
                    station = locations[1 + (offset + index) % (len(locations) - 1)]
                    roaming[subject] = station
                    chunk.append(
                        MovementRecord(next(clock), subject, station, MovementKind.ENTER)
                    )
            probe_at = base + span - 10
            requests = [
                AccessRequest(probe_at, subject, self.hot)
                for subject in self.subjects[:10]
            ]
            requests += [
                AccessRequest(
                    probe_at, subject, locations[1 + offset % (len(locations) - 1)]
                )
                for offset, subject in enumerate(self.subjects[10:20])
            ]
            self.rounds.append((chunk, requests, self._round_queries(chunk)))


def _apply_capacities(builder, workload: Workload):
    """Give an engine builder the workload's capacity configuration."""
    if workload.capacities:
        builder = builder.stage(CapacityStage())
        for location, limit in sorted(workload.capacities.items()):
            builder = builder.capacity(location, limit)
    return builder


def _capacity_args(workload: Workload) -> List[str]:
    """The workload's capacity configuration as ``repro serve`` flags."""
    args: List[str] = []
    for location, limit in sorted(workload.capacities.items()):
        args.extend(["--capacity", f"{location}={limit}"])
    return args


# --------------------------------------------------------------------- #
# Canonical serialization (the "byte-identical" definition)
# --------------------------------------------------------------------- #
def canonical_decision(payload: Dict) -> str:
    payload = dict(payload)
    request = dict(payload.get("request") or {})
    request.pop("request_id", None)
    payload["request"] = request
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_query(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Transcript:
    """Everything a topology produced, in canonical form."""

    def __init__(self) -> None:
        self.decisions: List[str] = []
        self.queries: List[str] = []

    def first_divergence(self, other: "Transcript") -> Optional[str]:
        for kind, mine, theirs in (
            ("decision", self.decisions, other.decisions),
            ("query", self.queries, other.queries),
        ):
            if len(mine) != len(theirs):
                return f"{kind} count differs: {len(mine)} vs {len(theirs)}"
            for index, (a, b) in enumerate(zip(mine, theirs)):
                if a != b:
                    return f"{kind}[{index}] differs:\n  {a}\n  {b}"
        return None


# --------------------------------------------------------------------- #
# Topology runners
# --------------------------------------------------------------------- #
class EmbeddedTopology:
    """Reference runner: everything in-process, no cache."""

    def __init__(self, name: str, *, backend: Optional[str] = None) -> None:
        self.name = name
        self._backend = backend

    def start(self, workload: Workload, tmp_path) -> None:
        builder = _apply_capacities(Ltam.builder().hierarchy(workload.hierarchy), workload)
        if self._backend == "sqlite":
            builder = builder.backend("sqlite", str(tmp_path / f"{self.name}.db"))
        self.engine = builder.build()
        self.engine.grant_all(workload.authorizations)
        self._queries = QueryEngine(self.engine)

    def observe(self, records) -> None:
        self.engine.observe_many(records)

    def decide(self, requests) -> List[str]:
        return [
            canonical_decision(decision_to_dict(decision))
            for decision in self.engine.decide_many(requests)
        ]

    def query(self, texts) -> List[str]:
        return [
            canonical_query(query_result_to_dict(self._queries.evaluate(text)))
            for text in texts
        ]

    def checkpoint(self) -> None:
        self.engine.checkpoint()

    def sync(self) -> None:
        pass

    def stop(self) -> None:
        pass


class ServerTopology:
    """One cached server; every interaction crosses the wire.

    With ``wire="binary"`` the client upgrades to the compact binary codec
    during connect; all responses decode back to the same canonical JSON.
    """

    name = "server"

    def __init__(self, wire: str = "json") -> None:
        self._wire = wire
        self.name = "server" if wire == "json" else f"server-{wire}"

    def start(self, workload: Workload, tmp_path) -> None:
        engine = _apply_capacities(
            Ltam.builder().hierarchy(workload.hierarchy), workload
        ).build()
        engine.grant_all(workload.authorizations)
        # slow_request_ms=0 arms telemetry fully: every request is traced
        # and sampled.  The transcript must not change — telemetry is inert.
        self._server = LtamServer(engine, cache=DecisionCache(), slow_request_ms=0.0)
        self._server.start()
        self._client = ServiceClient(
            *self._server.address, timeout=60.0, wire=self._wire
        )
        assert self._client.wire == self._wire, "wire negotiation did not land"

    def observe(self, records) -> None:
        self._client.observe_batch(records, mode="monitor", wait=True)

    def decide(self, requests) -> List[str]:
        raw = self._client.call(
            "decide_many",
            requests=[request_to_dict(request) for request in requests],
            trace=True,
        )
        return [canonical_decision(payload) for payload in raw["decisions"]]

    def query(self, texts) -> List[str]:
        return [
            canonical_query(self._client.call("query", text=text)) for text in texts
        ]

    def checkpoint(self) -> None:
        self._client.checkpoint()

    def sync(self) -> None:
        self._client.sync()

    def stop(self) -> None:
        self._client.close()
        self._server.stop()


class PersistentCacheServerTopology(ServerTopology):
    """One durable-cached server, killed and rebooted mid-trace.

    The engine runs over a SQLite movement file and the decision cache over
    a :class:`TieredDecisionCache` sidecar.  The ``restart`` hook (called by
    :func:`run_topology` after round ``RESTART_AFTER_ROUND``) stops the
    server, rebuilds the engine from the movement file and boots a fresh
    server against the *same* cache file — the warm pass must re-admit only
    still-valid rows, and the transcript must not notice the reboot.

    The monitor's alert history and open occupancy sessions are engine-local
    (the movement file does not persist them), so the restart hands them off
    exactly the way a fabric reshard hands them to a subject's new owner
    (``alerts.adopt`` / ``monitor.adopt_session``) — the cache file is the
    only state the *cache* layer carries across the boundary.
    """

    name = "server-persistent-cache"

    def __init__(self) -> None:
        super().__init__(wire="json")
        self.name = "server-persistent-cache"

    def start(self, workload: Workload, tmp_path) -> None:
        self._db_path = str(tmp_path / "persistent.db")
        self._cache_path = str(tmp_path / "persistent.cache.db")
        self._workload = workload
        engine = (
            _apply_capacities(Ltam.builder().hierarchy(workload.hierarchy), workload)
            .backend("sqlite", self._db_path)
            .build()
        )
        engine.grant_all(workload.authorizations)
        self._boot(engine)

    def _boot(self, engine) -> None:
        self._engine = engine
        self._cache = TieredDecisionCache(self._cache_path)
        self._server = LtamServer(engine, cache=self._cache, slow_request_ms=0.0)
        self._server.start()
        self._client = ServiceClient(*self._server.address, timeout=60.0)

    def restart(self, workload: Workload) -> None:
        old = self._engine
        sink = getattr(old, "alerts", None)
        alerts = list(sink.alerts) if sink is not None else []
        monitor = getattr(old, "monitor", None)
        sessions = (
            monitor.export_sessions(workload.subjects) if monitor is not None else []
        )
        self._client.close()
        self._server.stop()
        self._cache.close()
        engine = (
            _apply_capacities(Ltam.builder().hierarchy(workload.hierarchy), workload)
            .backend("sqlite", self._db_path)
            .build()
        )
        new_sink = getattr(engine, "alerts", None)
        if alerts and new_sink is not None:
            new_sink.adopt(alerts)
        monitor = getattr(engine, "monitor", None)
        if monitor is not None:
            for subject, location, entered_at, auth_id, overstay_flagged in sessions:
                authorization = None
                if auth_id is not None:
                    try:
                        authorization = engine.authorization_db.get(auth_id)
                    except Exception:  # noqa: BLE001 - degraded stay, not a crash
                        authorization = None
                monitor.adopt_session(
                    str(subject),
                    str(location),
                    int(entered_at),
                    authorization,
                    overstay_flagged=bool(overstay_flagged),
                )
        self._boot(engine)
        report = self._server.warm_report
        assert report is not None, "restart did not run the warm pass"
        assert report["examined"] > 0, (
            f"cache file was not reused across the restart: {report}"
        )

    def stop(self) -> None:
        super().stop()
        self._cache.close()


class ReplicaTopology:
    """Two cached replicas over one SQLite file + the invalidation bus.

    Observes, queries and checkpoints go to replica A (the writer);
    **decisions are served by replica B** — the replica that never saw the
    mutations locally and is only correct if the bus + pickup machinery
    works.  ``sync()`` (the wire op) is the round barrier.
    """

    name = "replicas"

    def start(self, workload: Workload, tmp_path) -> None:
        path = str(tmp_path / "replicas.db")
        engine_a = (
            _apply_capacities(Ltam.builder().hierarchy(workload.hierarchy), workload)
            .backend("sqlite", path)
            .build()
        )
        engine_a.grant_all(workload.authorizations)
        bus = InvalidationBus()
        self._server_a = LtamServer(
            engine_a, cache=DecisionCache(), bus=bus, replica_id="conf-a",
            slow_request_ms=0.0,
        )
        self._server_a.start()
        engine_b = (
            _apply_capacities(Ltam.builder().hierarchy(workload.hierarchy), workload)
            .backend("sqlite", path)
            .build()
        )
        self._server_b = LtamServer(
            engine_b, cache=DecisionCache(), bus=bus.address, replica_id="conf-b",
            slow_request_ms=0.0,
        )
        self._server_b.start()
        self.client_a = ServiceClient(*self._server_a.address, timeout=60.0)
        self.client_b = ServiceClient(*self._server_b.address, timeout=60.0)

    def observe(self, records) -> None:
        self.client_a.observe_batch(records, mode="monitor", wait=True)

    def decide(self, requests) -> List[str]:
        raw = self.client_b.call(
            "decide_many",
            requests=[request_to_dict(request) for request in requests],
            trace=True,
        )
        return [canonical_decision(payload) for payload in raw["decisions"]]

    def query(self, texts) -> List[str]:
        return [
            canonical_query(self.client_a.call("query", text=text)) for text in texts
        ]

    def checkpoint(self) -> None:
        self.client_a.checkpoint()

    def sync(self) -> None:
        self.client_b.sync()

    def stop(self) -> None:
        self.client_b.close()
        self.client_a.close()
        self._server_b.stop()
        self._server_a.stop()


class SubprocessReplicaTopology(ReplicaTopology):
    """The replica topology with real ``repro serve`` processes.

    Replica A hosts the bus (``--bus 0``) and loads the authorizations into
    the shared SQLite file; replica B joins via ``--peers``.  The bound
    ports are read from the two banner lines the CLI prints.
    """

    name = "replicas"

    def start(self, workload: Workload, tmp_path) -> None:
        layout = tmp_path / "layout.json"
        auths = tmp_path / "auths.json"
        layout.write_text(dumps_layout(workload.graph), encoding="utf-8")
        auths.write_text(
            dumps_authorizations(workload.authorizations), encoding="utf-8"
        )
        path = str(tmp_path / "replicas.db")
        self._procs: List[subprocess.Popen] = []
        env = dict(os.environ)
        out_a = self._spawn(
            tmp_path,
            "a",
            ["--layout", str(layout), "--auths", str(auths), "--db", path,
             "--port", "0", "--bus", "0", "--replica-id", "conf-a",
             "--slow-ms", "0", *_capacity_args(workload)],
            env,
        )
        port_a = self._await_banner(out_a, r"serving on [^:]+:(\d+) ")
        bus_port = self._await_banner(out_a, r"bus on [^:]+:(\d+) ")
        out_b = self._spawn(
            tmp_path,
            "b",
            ["--layout", str(layout), "--db", path, "--port", "0",
             "--peers", f"127.0.0.1:{bus_port}", "--replica-id", "conf-b",
             "--slow-ms", "0", *_capacity_args(workload)],
            env,
        )
        port_b = self._await_banner(out_b, r"serving on [^:]+:(\d+) ")
        self.client_a = ServiceClient("127.0.0.1", port_a, timeout=60.0)
        self.client_b = ServiceClient("127.0.0.1", port_b, timeout=60.0)

    def _spawn(self, tmp_path, tag: str, args: List[str], env) -> str:
        out_path = tmp_path / f"serve-{tag}.out"
        handle = open(out_path, "w")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *args],
            stdout=handle,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self._procs.append(process)
        return str(out_path)

    @staticmethod
    def _await_banner(out_path: str, pattern: str, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                text = open(out_path).read()
            except OSError:
                text = ""
            match = re.search(pattern, text)
            if match:
                return int(match.group(1))
            time.sleep(0.1)
        raise AssertionError(f"no banner matching {pattern!r} in {out_path}: {text!r}")

    def stop(self) -> None:
        self.client_b.close()
        self.client_a.close()
        for process in self._procs:
            process.terminate()
        for process in self._procs:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


class PartitionedTopology:
    """Two cached partitions behind a client-side fabric router.

    Each partition server holds the full layout and authorization set but
    only *its* subjects' movement state; the router owns the split.  The
    ``migrate`` hook (called by :func:`run_topology` after round
    ``RESHARD_AFTER_ROUND``) pins the workload's first subject to the other
    partition and reshards — the canonical "move a hot subject off a busy
    partition, online" operation — and the transcript must not notice.

    With ``wire="binary"`` the router's partition connection pools negotiate
    the binary codec, so scatter-gather traffic crosses the fabric in the
    compact format — and must still replay byte-identically.
    """

    name = "partitioned"
    PARTITIONS = ("east", "west")

    def __init__(self, wire: str = "json") -> None:
        self._wire = wire
        self.name = "partitioned" if wire == "json" else f"partitioned-{wire}"

    def start(self, workload: Workload, tmp_path) -> None:
        self._servers = []
        addresses = {}
        # With capacities in play the partitions need the invalidation bus:
        # it carries the occupancy vectors the capacity ledger folds, so
        # every partition counts the hot location's occupants fabric-wide.
        # The first partition hosts the bus; the rest join by address.
        bus = InvalidationBus() if workload.capacities else None
        for partition in self.PARTITIONS:
            engine = _apply_capacities(
                Ltam.builder().hierarchy(workload.hierarchy), workload
            ).build()
            engine.grant_all(workload.authorizations)
            server = LtamServer(
                engine, cache=DecisionCache(), partition=partition,
                bus=(bus if bus is None or not self._servers else bus.address),
                slow_request_ms=0.0,
            )
            server.start()
            self._servers.append(server)
            addresses[partition] = "%s:%d" % server.address
        self._router = FabricRouter(PartitionMap(addresses), wire=self._wire)

    def observe(self, records) -> None:
        self._router.observe_batch(records, mode="monitor", wait=True)

    def decide(self, requests) -> List[str]:
        raw = self._router.decide_many_raw(
            [request_to_dict(request) for request in requests], trace=True
        )
        return [canonical_decision(payload) for payload in raw]

    def query(self, texts) -> List[str]:
        return [canonical_query(self._router.query_raw(text)) for text in texts]

    def checkpoint(self) -> None:
        self._router.checkpoint_raw()

    def sync(self) -> None:
        self._router.sync_raw()

    def migrate(self, workload: Workload) -> None:
        current = self._router.partition_map
        hot = workload.subjects[0]
        source = current.owner(hot)
        target = next(name for name in current.names if name != source)
        summary = self._router.reshard(current.with_assignment(hot, target))
        assert hot in summary["subjects"], (
            f"reshard was a no-op: {hot!r} did not move ({summary})"
        )

    def stop(self) -> None:
        self._router.close()
        for server in self._servers:
            server.stop()


class SubprocessPartitionedTopology(PartitionedTopology):
    """The partitioned topology with real processes end to end.

    Two ``repro serve --partition`` processes (in-memory backends — the
    fabric shards state, nothing is shared) behind a real ``repro route``
    process; the harness speaks to the router's socket with an unmodified
    :class:`ServiceClient`, and the mid-trace reshard travels over the wire
    as the router's ``reshard`` op.
    """

    name = "partitioned"

    def start(self, workload: Workload, tmp_path) -> None:
        layout = tmp_path / "layout.json"
        auths = tmp_path / "auths.json"
        layout.write_text(dumps_layout(workload.graph), encoding="utf-8")
        auths.write_text(dumps_authorizations(workload.authorizations), encoding="utf-8")
        self._procs: List[subprocess.Popen] = []
        env = dict(os.environ)
        addresses = {}
        bus_port: Optional[int] = None
        for partition in self.PARTITIONS:
            args = ["--layout", str(layout), "--auths", str(auths), "--port", "0",
                    "--partition", partition, "--slow-ms", "0",
                    *_capacity_args(workload)]
            # Same bus topology as the in-process variant: with capacities
            # the first partition hosts the invalidation bus, the rest join
            # it, and the ledger replicates occupancy across the processes.
            if workload.capacities:
                args.extend(
                    ["--bus", "0"] if bus_port is None else ["--peers", f"127.0.0.1:{bus_port}"]
                )
            out = self._spawn(tmp_path, partition, "serve", args, env)
            port = SubprocessReplicaTopology._await_banner(
                out, r"serving on [^:]+:(\d+) "
            )
            if workload.capacities and bus_port is None:
                bus_port = SubprocessReplicaTopology._await_banner(
                    out, r"bus on [^:]+:(\d+) "
                )
            addresses[partition] = f"127.0.0.1:{port}"
        self._map = PartitionMap(addresses)
        map_path = tmp_path / "fabric.json"
        self._map.save(str(map_path))
        out = self._spawn(
            tmp_path, "router", "route",
            ["--map", str(map_path), "--port", "0", "--slow-ms", "0"], env,
        )
        port = SubprocessReplicaTopology._await_banner(out, r"serving on [^:]+:(\d+) ")
        self._client = ServiceClient("127.0.0.1", port, timeout=60.0, wire=self._wire)
        assert self._client.wire == self._wire, "wire negotiation did not land"

    def _spawn(self, tmp_path, tag: str, command: str, args: List[str], env) -> str:
        out_path = tmp_path / f"{command}-{tag}.out"
        handle = open(out_path, "w")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", command, *args],
            stdout=handle,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self._procs.append(process)
        return str(out_path)

    def observe(self, records) -> None:
        self._client.call(
            "observe_batch", records=records_to_wire(records), mode="monitor", wait=True
        )

    def decide(self, requests) -> List[str]:
        raw = self._client.call(
            "decide_many",
            requests=[request_to_dict(request) for request in requests],
            trace=True,
        )
        return [canonical_decision(payload) for payload in raw["decisions"]]

    def query(self, texts) -> List[str]:
        return [
            canonical_query(self._client.call("query", text=text)) for text in texts
        ]

    def checkpoint(self) -> None:
        self._client.call("checkpoint")

    def sync(self) -> None:
        self._client.call("sync")

    def migrate(self, workload: Workload) -> None:
        hot = workload.subjects[0]
        source = self._map.owner(hot)
        target = next(name for name in self._map.names if name != source)
        self._map = self._map.with_assignment(hot, target)
        summary = self._client.call("reshard", map=self._map.to_wire())
        assert hot in summary["subjects"], (
            f"reshard was a no-op: {hot!r} did not move ({summary})"
        )

    def stop(self) -> None:
        self._client.close()
        for process in self._procs:
            process.terminate()
        for process in self._procs:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


def make_topology(name: str):
    if name == "embedded-memory":
        return EmbeddedTopology(name)
    if name == "embedded-sqlite":
        return EmbeddedTopology(name, backend="sqlite")
    if name == "server":
        return ServerTopology()
    if name == "server-binary":
        return ServerTopology(wire="binary")
    if name == "server-persistent-cache":
        return PersistentCacheServerTopology()
    if name == "replicas":
        return SubprocessReplicaTopology() if subprocess_replicas() else ReplicaTopology()
    if name in ("partitioned", "partitioned-binary"):
        wire = "binary" if name.endswith("-binary") else "json"
        return (
            SubprocessPartitionedTopology(wire=wire)
            if subprocess_replicas()
            else PartitionedTopology(wire=wire)
        )
    raise ValueError(f"unknown topology {name!r}")


def run_topology(name: str, workload: Workload, tmp_path) -> Tuple[Transcript, float]:
    """Replay the whole workload on one topology; returns (transcript, seconds)."""
    topology = make_topology(name)
    topology.start(workload, tmp_path)
    transcript = Transcript()
    started = time.perf_counter()
    try:
        for index, (chunk, requests, queries) in enumerate(workload.rounds):
            topology.observe(chunk)
            topology.sync()  # the coherence barrier (a no-op off the bus)
            transcript.decisions.extend(topology.decide(requests))
            transcript.queries.extend(topology.query(queries))
            if index == CHECKPOINT_AFTER_ROUND:
                topology.checkpoint()
                topology.sync()
            if index == RESHARD_AFTER_ROUND:
                # Mid-trace live migration on topologies that support it
                # (the partitioned fabric); the transcript must not notice.
                migrate = getattr(topology, "migrate", None)
                if migrate is not None:
                    migrate(workload)
            if index == RESTART_AFTER_ROUND:
                # Mid-trace kill + reboot on topologies that support it (the
                # durable-cache server); the transcript must not notice that
                # either — warmed entries included.
                restart = getattr(topology, "restart", None)
                if restart is not None:
                    restart(workload)
    finally:
        topology.stop()
    return transcript, time.perf_counter() - started
