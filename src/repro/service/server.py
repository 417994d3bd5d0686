"""The network authorization server: one engine, many remote PEPs.

:class:`LtamServer` puts an embedded :class:`~repro.api.builder.Ltam`
engine behind a TCP boundary — a stdlib-only asyncio server speaking the
newline-delimited JSON protocol of :mod:`repro.service.protocol`.  The
design follows the deployment the ROADMAP's "multi-process ingest" item
asks for:

* **decisions** (``decide`` / ``decide_many``) run the PDP pipeline
  inline on the event loop — they are pure, fast reads.  With a
  :class:`~repro.service.cache.DecisionCache` attached, hits skip both the
  pipeline *and* response re-encoding (entries carry their wire form), and
  the cache subscribes to the movement store's mutation notifications so an
  observe/ingest evicts exactly the locations it touched;
* **ingest** (``observe_batch``) feeds the existing
  :class:`~repro.storage.ingest.MovementIngestor`: many tracker processes
  ship record batches over their sockets into per-connection ingestors
  whose group commits serialize on the movement store's transaction lock
  (one logical writer).  ``mode="monitor"`` runs the full
  enforcement-point observation (alerts + audit); ``mode="record"`` is the
  raw log-shipping path straight into ``record_many``.  A rejected batch
  comes back to **the client that submitted it** — per-connection
  ingestors keep failure attribution honest — as a typed
  :class:`~repro.errors.IngestError` with the dropped records attached for
  retry/dead-lettering;
* a :class:`~repro.storage.ingest.CheckpointPolicy` piggybacks scheduled
  checkpoints (and archive retention) on the ingest writer thread;
* ``observe`` is the synchronous single-observation path (alerts returned),
  ``query`` evaluates the LTAM query language, ``checkpoint`` flushes
  pending ingest then checkpoints, and ``health`` reports counters.

Concurrency: decide and health run inline on the loop (no interleaving
mid-decision); every op that can block — ingest submission (queue
backpressure), single observes (the monitor lock), query replays, and
checkpoints (flush barrier + compaction) — runs in the default executor so
one slow call never stalls other connections.  The engine tolerates this
exactly as it tolerates the embedded streaming observe path — foreground
reads race the background writer benignly (see the movement database's
concurrency contract).
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.query.evaluator import QueryEngine
from repro.errors import IngestError
from repro.storage.ingest import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MAX_LATENCY,
    DEFAULT_QUEUE_SIZE,
    CheckpointPolicy,
    MovementIngestor,
)
from repro.storage.movement_db import MovementKind
from repro.service import telemetry, wire
from repro.service.bus import DEFAULT_SYNC_INTERVAL, ReplicaCoherence
from repro.service.cache import DecisionCache
from repro.service.cache_store import (
    WireFragments,
    _binary_decision,
    _dumps,
    _json_decision,
    engine_fingerprint,
)
from repro.service.capacity import CapacityLedger
from repro.service.errors import (
    ProtocolError,
    ServiceAuthError,
    ServiceBusyError,
    ServiceError,
)
from repro.service.protocol import (
    alert_from_dict,
    alert_to_dict,
    checkpoint_to_dict,
    decode_frame,
    encode_frame,
    error_to_dict,
    query_result_to_dict,
    record_from_wire,
    records_from_wire,
    records_to_wire,
    request_from_dict,
)
from repro.service.runtime import DEFAULT_FRAME_LIMIT, AsyncServiceHost

__all__ = ["LtamServer", "DEFAULT_PORT", "DEFAULT_FRAME_LIMIT", "INGEST_MODES"]

#: Default service port ("LTAM" on a phone keypad, roughly).
DEFAULT_PORT = 7471

#: The two ingest sinks ``observe_batch`` can feed.
INGEST_MODES = ("monitor", "record")


class _RawResult:
    """A handler result that is already serialized JSON text.

    The decide path serves cache hits as **pre-serialized fragments** —
    skipping the pipeline is only half the win; at hot-pool rates the JSON
    re-encoding of an unchanged decision costs as much as the lookup, so
    the envelope is assembled by string joining instead of re-dumping.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class _RawBinary:
    """A handler result that is already a binary-codec value fragment."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


#: Structured per-request log (one NDJSON line per op, ``--log-requests``).
_request_log = logging.getLogger("repro.service.requests")


def _fold_ingest(totals_by_mode: Dict[str, Dict[str, int]], mode: str, ingestor) -> None:
    """Accumulate one ingestor's counters into the per-mode totals."""
    totals = totals_by_mode.setdefault(
        mode,
        {
            "submitted": 0,
            "written": 0,
            "dropped": 0,
            "checkpoints": 0,
            "checkpoint_errors": 0,
            "clients": 0,
        },
    )
    totals["submitted"] += ingestor.submitted
    totals["written"] += ingestor.written
    totals["dropped"] += ingestor.dropped
    totals["checkpoints"] += ingestor.checkpoints
    totals["checkpoint_errors"] += len(ingestor.checkpoint_errors)
    totals["clients"] += 1


class _SharedCheckpoint:
    """One policy clock for the whole server, shared by every ingestor.

    Trigger counters live per ingestor, so with N tracker connections a
    naively-wired policy would checkpoint ~N times more often than
    configured.  This gate re-checks the *database's* replay bound (and a
    shared wall clock) before running, so a trigger another connection's
    checkpoint already covered becomes a no-op.
    """

    __slots__ = ("_policy", "_movement_db", "_alert_sink", "_lock", "_last_run")

    def __init__(self, policy: CheckpointPolicy, movement_db, alert_sink=None) -> None:
        self._policy = policy
        self._movement_db = movement_db
        self._alert_sink = alert_sink
        self._lock = threading.Lock()
        self._last_run = float("-inf")

    def __call__(self):
        policy = self._policy
        with self._lock:
            pending = self._movement_db.events_since_checkpoint
            if pending == 0:
                return None
            due = (
                policy.every_events is not None and pending >= policy.every_events
            ) or (
                policy.every_seconds is not None
                and time.monotonic() - self._last_run >= policy.every_seconds
            )
            if not due:
                return None
            receipt = policy.run(self._movement_db, self._alert_sink)
            self._last_run = time.monotonic()
            return receipt


class _Connection:
    """Per-connection server state: this client's ingestors.

    Ingestors are **per connection** so failure attribution is honest: a
    rejected batch surfaces (with its records) on the flush of the client
    that submitted it — never on another tracker's barrier — and one
    client's poison batch cannot be group-committed together with a
    neighbor's records.
    """

    __slots__ = ("ingestors", "wire", "pending_wire", "decoder", "cache_outcome")

    def __init__(self) -> None:
        self.ingestors: Dict[str, MovementIngestor] = {}
        #: the connection's negotiated framing; every connection starts on
        #: NDJSON and may upgrade once via the ``hello`` op.
        self.wire: str = wire.JSON
        self.pending_wire: Optional[str] = None
        self.decoder: Optional[wire.Decoder] = None
        #: the current op's cache outcome for the request log ("hit",
        #: "miss", "3/5", None).  Safe as per-connection state: frames on
        #: one connection are handled strictly in sequence.
        self.cache_outcome: Optional[str] = None

    def apply_pending_upgrade(self) -> None:
        """Switch framing after the ``hello`` response has been written."""
        if self.pending_wire is not None:
            self.wire = self.pending_wire
            self.pending_wire = None
            self.decoder = wire.Decoder()


class LtamServer(AsyncServiceHost):
    """Serve an embedded :class:`~repro.api.builder.Ltam` engine over TCP.

    Parameters
    ----------
    engine:
        The engine to expose.  The server takes over its streaming-ingest
        path; other in-process use (reads, administration) remains valid.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    cache:
        Optional :class:`DecisionCache`.  When given, the server consults
        it for ``decide``/``decide_many`` and connects it to the movement
        database's mutation notifications for event-wise invalidation.
    bus:
        Join (or host) a replica invalidation bus: a ``(host, port)`` /
        ``"host:port"`` address of a running
        :class:`~repro.service.bus.InvalidationBus`, or an
        :class:`~repro.service.bus.InvalidationBus` instance this server
        should host in-process.  With a bus, the server's mutations fan out
        to every attached replica's cache, remote mutations evict this
        server's cache, and (on a shared SQLite file) the projection follows
        the writer via :meth:`~repro.storage.movement_db.SqliteMovementDatabase.pickup`.
    replica_id:
        This server's identity on the bus (generated when omitted).
    sync_interval:
        Period of the coherence layer's background sync tick (see
        :class:`~repro.service.bus.ReplicaCoherence`).
    checkpoint_policy:
        Optional :class:`~repro.storage.ingest.CheckpointPolicy` applied to
        the server's ingestors (scheduled checkpoints + archive retention).
    ingest_batch_size, ingest_max_latency, ingest_queue_size:
        Group-commit knobs of the server-side ingestors.
    partition:
        The name of the fabric partition this server owns, when it serves
        one subject slice of a partitioned deployment (``repro serve
        --partition``).  Purely an identity: routing is the
        :class:`~repro.service.fabric.FabricRouter`'s job; the name (and
        the map's description of its ownership) is reported by ``health``.
    partition_map:
        Optional :class:`~repro.service.fabric.PartitionMap` describing the
        fabric this partition belongs to, for ``health`` reporting.
    wire_format:
        ``"binary"`` (default) answers per-connection ``hello``
        negotiations with the compact length-prefixed framing of
        :mod:`repro.service.wire`; ``"json"`` keeps the server NDJSON-only
        (clients negotiate down transparently).  Every connection starts on
        NDJSON either way.
    max_connections:
        Per-listener cap on concurrently served connections; an over-cap
        connection is answered with one typed
        :class:`~repro.service.errors.ServiceBusyError` frame and closed.
        ``None`` (default) is uncapped.
    log_requests:
        Emit one structured NDJSON log line per op (op, wire format,
        duration, cache outcome) on the ``repro.service.requests`` logger —
        the ``repro serve --log-requests`` switch.
    slow_request_ms:
        Slow-request sampling threshold, in milliseconds.  When set, every
        request is traced (spans at op dispatch, cache outcome, pipeline
        stages, ...) and any request slower than the threshold dumps its
        full span tree as one NDJSON line on the ``repro.service.requests``
        logger.  ``None`` (default) disables local sampling; requests that
        arrive with a caller's ``tctx`` context are traced either way.
    auth_token:
        Optional shared secret (``repro serve --auth-token``).  When set,
        every frame except the ``hello`` negotiation must carry a matching
        ``auth`` field; frames that do not are answered with a typed
        :class:`~repro.service.errors.ServiceAuthError` and counted on the
        ``repro_auth_refused_total`` metric.  The same token is forwarded
        to the bus link when this server joins an invalidation bus.

    A server started with ``partition=...`` **and** a bus additionally
    maintains a :class:`~repro.service.capacity.CapacityLedger`: peers'
    per-location occupancy is folded in over the bus and
    ``occupancy_of``/``CapacityStage`` see *fabric-wide* counts (local
    projection + remote ledger) instead of the partition-local blind spot.

    With a cache that carries a persistent tier
    (:class:`~repro.service.cache_store.TieredDecisionCache`),
    :meth:`start` runs the **warm-restart pass**: persisted entries are
    validated against the movement store's current state (and the engine's
    configuration fingerprint) and the survivors re-admitted, so the first
    seconds after a restart serve from cache instead of re-running the
    pipeline per request.  The pass's report is kept on
    :attr:`warm_report` and surfaced by the ``health`` op.

    Run it in-process (``with LtamServer(engine) as server: ...``) for tests
    and embedding, or via ``repro serve`` for a standalone process.
    """

    _what = "the server"
    _thread_name = "ltam-server"

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: Optional[DecisionCache] = None,
        bus=None,
        replica_id: Optional[str] = None,
        sync_interval: Optional[float] = DEFAULT_SYNC_INTERVAL,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        ingest_batch_size: int = DEFAULT_BATCH_SIZE,
        ingest_max_latency: float = DEFAULT_MAX_LATENCY,
        ingest_queue_size: int = DEFAULT_QUEUE_SIZE,
        frame_limit: int = DEFAULT_FRAME_LIMIT,
        partition: Optional[str] = None,
        partition_map=None,
        wire_format: str = wire.BINARY,
        max_connections: Optional[int] = None,
        log_requests: bool = False,
        slow_request_ms: Optional[float] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        super().__init__(host, port, frame_limit=frame_limit, max_connections=max_connections)
        if wire_format not in (wire.BINARY, wire.JSON):
            raise ServiceError(
                f"unknown wire format {wire_format!r}; expected 'binary' or 'json'"
            )
        #: ``binary`` = answer ``hello`` negotiations with the compact
        #: framing; ``json`` = NDJSON only (hello still answered, politely).
        self._binary_enabled = wire_format == wire.BINARY
        self._engine = engine
        self._partition = partition
        self._partition_map = partition_map
        self._auth_token = auth_token
        self._coherence: Optional[ReplicaCoherence] = None
        # The global capacity ledger exists exactly when this server is a
        # fabric partition with a bus to its peers.  Replicas sharing one
        # SQLite file must NOT get one: each replica's local projection
        # already counts every stay, so folding the peers' counts on top
        # would double-count the same occupants.
        self._ledger: Optional[CapacityLedger] = (
            CapacityLedger() if partition is not None and bus is not None else None
        )
        if bus is not None:
            self._coherence = ReplicaCoherence(
                engine,
                cache,
                bus=bus,
                replica_id=replica_id if replica_id is not None else partition,
                sync_interval=sync_interval,
                ledger=self._ledger,
                auth_token=auth_token,
            )
            # The engine (and the decide path) must see the publishing
            # wrapper so administrative evictions fan out to the peers.
            cache = self._coherence.cache if cache is not None else None
        self._cache = cache
        self._checkpoint_policy = checkpoint_policy
        self._ingest_knobs = {
            "batch_size": ingest_batch_size,
            "max_latency": ingest_max_latency,
            "queue_size": ingest_queue_size,
        }
        self._queries = QueryEngine(engine)
        #: live per-connection ingestors (flushed by checkpoint, closed on stop).
        self._ingestors: List[Tuple[str, MovementIngestor]] = []
        #: per-mode counters folded in from retired (disconnected) ingestors.
        self._ingest_totals: Dict[str, Dict[str, int]] = {}
        self._ingest_lock = threading.Lock()
        self._shared_checkpoint = (
            _SharedCheckpoint(
                checkpoint_policy, engine.movement_db, getattr(engine, "alerts", None)
            )
            if checkpoint_policy is not None
            else None
        )
        self._unsubscribe = None
        self._cache_attached = False
        self._connect_cache()
        self._log_requests = bool(log_requests)
        self._slow_request_ms = slow_request_ms
        self._warm_report: Optional[Dict[str, int]] = None
        # One registry per server: the single source of truth `health`, the
        # `metrics` op, the Prometheus endpoint and `repro top` all read.
        # The hot-path objects are pre-resolved here so per-request work is
        # a dict index + a lock'd add, never a registry lookup.
        registry = telemetry.MetricsRegistry()
        self._registry = registry
        self._counters = {
            "decisions": registry.counter("repro_decisions_total"),
            "cache_hits": registry.counter("repro_cache_hits_total"),
            "observed": registry.counter("repro_observed_total"),
            "queries": registry.counter("repro_queries_total"),
        }
        self._op_latency = {
            op: registry.histogram("repro_op_latency_seconds", op=op)
            for op in self._HANDLERS
        }
        self._op_counts = {
            op: registry.counter("repro_ops_total", op=op) for op in self._HANDLERS
        }
        self._op_errors = registry.counter("repro_op_errors_total")
        self._auth_refused = registry.counter("repro_auth_refused_total")
        self._slow_sampled = registry.counter("repro_slow_requests_total")
        self._ingest_commit_latency = registry.histogram("repro_ingest_commit_seconds")
        self._register_gauges(registry)
        self._started_at: Optional[float] = None

    def _connect_cache(self) -> None:
        """Wire the cache for invalidation from EVERY mutation path.

        Attaching through the engine (when it supports it) hooks the
        administrative paths too — grant/revoke/derive/set_capacity on a
        served engine must evict, not just movement ingest.  The engine's
        attach also subscribes the movement-store notifications.
        """
        if self._cache is None:
            return
        attach = getattr(self._engine, "attach_decision_cache", None)
        if callable(attach):
            if getattr(getattr(self._engine, "pdp", None), "cache", None) is not self._cache:
                attach(self._cache)
            self._cache_attached = True
        elif self._unsubscribe is None:  # duck-typed engines: movement-only wiring
            self._unsubscribe = self._cache.connect(self._engine.movement_db)

    def _disconnect_cache(self) -> None:
        if self._cache is None:
            return
        if self._cache_attached:
            detach = getattr(self._engine, "detach_decision_cache", None)
            if callable(detach) and getattr(self._engine.pdp, "cache", None) is self._cache:
                detach()
            self._cache_attached = False
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def _warm_cache(self) -> None:
        """Run the persistent tier's warm-restart validation, if it has one.

        Duck-typed on ``warm`` so the plain in-RAM cache (and the coherent
        wrapper around one) costs nothing.  The engine fingerprint catches
        configuration drift while the server was down; the movement store
        validates each surviving row (see
        :meth:`~repro.service.cache_store.TieredDecisionCache.warm`).
        """
        if self._cache is None:
            return
        warm = getattr(self._cache, "warm", None)
        if not callable(warm):
            return
        try:
            fingerprint = engine_fingerprint(self._engine)
        except Exception:  # noqa: BLE001 - duck-typed engines: validate-only warm
            fingerprint = None
        self._warm_report = warm(self._engine.movement_db, fingerprint=fingerprint)

    @property
    def warm_report(self) -> Optional[Dict[str, int]]:
        """The last warm-restart pass's counts (``None`` before start, or
        without a persistent cache tier)."""
        return self._warm_report

    async def _refuse_busy(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Every connection starts on NDJSON, so the busy frame is always a
        # JSON error line the client's first read will surface as a typed
        # ServiceBusyError.
        connection = _Connection()
        writer.write(
            self._encode_error(
                connection,
                None,
                ServiceBusyError(
                    f"the server is at its connection cap ({self._max_connections}); retry later"
                ),
            )
        )
        await writer.drain()

    def _bump(self, key: str, count: int = 1) -> None:
        # Handlers run on the loop thread and on executor threads; the
        # registry counters are individually locked.
        self._counters[key].inc(count)

    def _snapshot_stats(self) -> Dict[str, int]:
        return {key: counter.value for key, counter in self._counters.items()}

    def _register_gauges(self, registry: telemetry.MetricsRegistry) -> None:
        """Callback gauges over state other subsystems already maintain.

        Scrapes pay the read; the hot paths pay nothing — the cache, the
        coherence layer and the ingestors keep their own counters exactly
        as before, and the registry samples them at collection time.
        """
        registry.gauge("repro_connections_live", fn=lambda: self._live_connections)
        registry.gauge(
            "repro_connections_max", fn=lambda: self._max_connections or 0
        )
        registry.gauge("repro_connections_busy_refused", fn=lambda: self._busy_refused)
        registry.gauge(
            "repro_uptime_seconds",
            fn=lambda: (
                time.monotonic() - self._started_at if self._started_at is not None else 0.0
            ),
        )
        registry.gauge("repro_ingest_queue_depth", fn=self._ingest_queue_depth)
        registry.gauge("repro_bus_lag", fn=self._bus_lag)
        if self._ledger is not None:
            ledger = self._ledger
            registry.gauge("repro_ledger_lag_seconds", fn=lambda: ledger.lag_seconds)
            registry.gauge("repro_ledger_origins", fn=lambda: len(ledger.origins))
            registry.gauge(
                "repro_ledger_remote_occupants",
                fn=lambda: sum(ledger.totals().values()),
            )
        self._register_location_gauges()
        if self._cache is not None:
            cache = self._cache
            for key in ("hits", "misses", "stores", "invalidated", "evicted", "size"):
                registry.gauge(
                    "repro_cache_%s" % key,
                    fn=(lambda cache=cache, key=key: cache.stats.get(key, 0)),
                )

    def _register_location_gauges(self) -> None:
        """One occupancy gauge per capacity-limited location.

        The reported value is what :class:`~repro.api.stages.CapacityStage`
        sees: the local projection plus (in fabric mode) the ledger's remote
        counts.  Re-invoked on every ``metrics`` scrape so limits configured
        after startup (``set_capacity`` at runtime) gain their gauge too —
        ``registry.gauge`` is idempotent per (name, labels).
        """
        monitor = getattr(self._engine, "monitor", None)
        limits = getattr(monitor, "_capacity_limits", None)
        if not limits:
            return
        movement_db = self._engine.movement_db
        ledger = self._ledger
        for location in list(limits):
            self._registry.gauge(
                "repro_location_occupancy",
                fn=(
                    lambda location=location: movement_db.occupancy(location)
                    + (ledger.remote_occupancy(location) if ledger is not None else 0)
                ),
                location=location,
            )

    def _ingest_queue_depth(self) -> int:
        with self._ingest_lock:
            ingestors = [ingestor for _, ingestor in self._ingestors]
        return sum(ingestor.queue_depth for ingestor in ingestors if not ingestor.closed)

    def _bus_lag(self) -> int:
        """Records the shared store committed but this replica has not yet
        folded into its projection (0 standalone, by construction)."""
        movement_db = self._engine.movement_db
        high_water = getattr(movement_db, "high_water", None)
        applied = getattr(movement_db, "applied_position", None)
        if high_water is None or applied is None:
            return 0
        return max(0, int(high_water) - int(applied))

    @property
    def metrics(self) -> telemetry.MetricsRegistry:
        """This server's metrics registry (counters, gauges, histograms)."""
        return self._registry

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        """The embedded engine this server exposes."""
        return self._engine

    @property
    def cache(self) -> Optional[DecisionCache]:
        """The decision cache, if one is attached (with a bus: the
        publishing :class:`~repro.service.bus.CoherentDecisionCache`)."""
        return self._cache

    @property
    def coherence(self) -> Optional[ReplicaCoherence]:
        """The replica coherence layer, when this server joined a bus."""
        return self._coherence

    @property
    def ledger(self) -> Optional[CapacityLedger]:
        """The global capacity ledger (fabric partitions with a bus only)."""
        return self._ledger

    def _attach_occupancy_overlay(self) -> None:
        """Make capacity checks count the whole fabric, not this partition.

        The overlay sums the local projection with the ledger's replicated
        remote counts; detached on :meth:`stop` so an engine reused embedded
        afterwards falls back to local-only occupancy (the standalone
        semantics).  Duck-typed: engines without the hook keep local counts.
        """
        if self._ledger is None:
            return
        attach = getattr(self._engine, "attach_occupancy_overlay", None)
        if not callable(attach):
            return
        movement_db = self._engine.movement_db
        ledger = self._ledger
        attach(
            lambda location: movement_db.occupancy(location)
            + ledger.remote_occupancy(location)
        )

    def _detach_occupancy_overlay(self) -> None:
        if self._ledger is None:
            return
        detach = getattr(self._engine, "detach_occupancy_overlay", None)
        if callable(detach):
            detach()

    def start(self) -> "LtamServer":
        """Start serving on a background thread; returns once bound.

        A stopped server can be started again (fresh bind; with ``port=0``
        the new ephemeral port is reported by :attr:`address`).
        """
        if self._thread is not None:
            raise ServiceError("the server was already started")
        self._connect_cache()  # reconnect after a stop() (idempotent)
        self._warm_cache()
        self._attach_occupancy_overlay()
        if self._coherence is not None:
            self._coherence.start()
        try:
            super().start()
        except BaseException:
            # A failed start must not leak the coherence machinery: the bus
            # link thread, the sync ticker and a hosted hub's port would
            # otherwise outlive a server the caller believes dead (and block
            # a retry with "the invalidation bus was already started").
            if self._coherence is not None:
                self._coherence.stop()
            self._detach_occupancy_overlay()
            raise
        return self

    def stop(self) -> None:
        """Stop serving, flush and close the ingestors, detach the cache."""
        if self._thread is None:
            return
        super().stop()
        self.close_ingestors()
        if self._coherence is not None:
            self._coherence.stop()
        self._detach_occupancy_overlay()
        self._disconnect_cache()

    def _on_bound(self) -> None:
        self._started_at = time.monotonic()

    def close_ingestors(self) -> None:
        """Flush and close every server-side ingestor (failures kept queryable)."""
        with self._ingest_lock:
            ingestors, self._ingestors = self._ingestors, []
        for _, ingestor in ingestors:
            if not ingestor.closed:
                ingestor.close(raise_failures=False)
        with self._ingest_lock:
            for mode, ingestor in ingestors:
                self._retire_locked(mode, ingestor)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            await self._client_loop(reader, writer)
        except asyncio.CancelledError:
            # Loop shutdown cancels connection tasks mid-read; ending the
            # task cleanly (instead of cancelled) keeps asyncio's stream
            # callback from logging spurious CancelledErrors.  Nothing else
            # ever cancels these tasks.
            pass

    async def _client_loop(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        loop = asyncio.get_running_loop()
        connection = _Connection()
        self._writers.add(writer)
        try:
            while True:
                oversize: Optional[ProtocolError] = None
                if connection.wire == wire.BINARY:
                    try:
                        frame = await wire.read_frame(reader, self._frame_limit)
                    except ProtocolError as exc:
                        # Zero-length or over-limit header: the body was not
                        # consumed, so the stream cannot be resynchronized.
                        oversize, frame = exc, None
                else:
                    try:
                        frame = await reader.readline()
                    except ValueError:
                        oversize = ProtocolError(
                            f"frame exceeds the {self._frame_limit}-byte limit"
                        )
                        frame = None
                if oversize is not None:
                    # Report once and drop the connection.
                    writer.write(
                        self._encode_error(connection, None, oversize)
                    )
                    await writer.drain()
                    break
                if not frame:
                    break
                writer.write(await self._respond(loop, connection, frame))
                await writer.drain()
                connection.apply_pending_upgrade()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            if connection.ingestors:
                # Flush-on-close durability per client; off the loop because
                # close() joins the writer thread.
                await loop.run_in_executor(None, self._close_connection_ingestors, connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _close_connection_ingestors(self, connection: _Connection) -> None:
        retired = connection.ingestors
        connection.ingestors = {}
        for ingestor in retired.values():
            ingestor.close(raise_failures=False)
        with self._ingest_lock:
            self._ingestors = [
                (mode, ingestor)
                for mode, ingestor in self._ingestors
                if ingestor not in retired.values()
            ]
            for mode, ingestor in retired.items():
                self._retire_locked(mode, ingestor)

    def _retire_locked(self, mode: str, ingestor: MovementIngestor) -> None:
        """Fold a closed ingestor into the cumulative totals exactly once.

        A disconnecting client and a concurrent :meth:`close_ingestors`
        (server stop) may both retire the same ingestor; the marker keeps
        the counters from double-counting.
        """
        if getattr(ingestor, "_ltam_server_folded", False):
            return
        ingestor._ltam_server_folded = True  # type: ignore[attr-defined]
        _fold_ingest(self._ingest_totals, mode, ingestor)

    #: operations that may block (queue backpressure, flush barriers,
    #: monitor/storage locks, full-log query replays) and therefore run in
    #: the executor, off the event loop.  Only the cached/pure-read decide
    #: path and health stay inline; ``enforce`` is side-effecting (audit
    #: writes, denial alerts through user-registered sink callbacks), so it
    #: goes to the executor like ``observe`` even though its decision half
    #: is decide-fast.
    _BLOCKING_OPS = frozenset(
        {
            "enforce",
            "observe",
            "observe_batch",
            "query",
            "checkpoint",
            "sync",
            "export_subjects",
            "import_archive",
            "forget_subjects",
            "list_subjects",
        }
    )

    @staticmethod
    def _encode_error(connection: _Connection, message_id: Any, exc: BaseException) -> bytes:
        envelope = {"id": message_id, "ok": False, "error": error_to_dict(exc)}
        if connection.wire == wire.BINARY:
            return wire.pack_frame(wire.encode_value(envelope))
        return encode_frame(envelope)

    def _run_traced(self, trace, handler, connection: _Connection, message: Dict[str, Any]):
        """Execute *handler* with *trace* active on the executing thread.

        Activation is thread-local, so it must happen on whichever thread
        actually runs the handler — inline on the loop or on an executor
        worker — not on the thread that scheduled it.  The op span is the
        local root every nested span (cache outcome, pipeline stages,
        store pickup) parents to.
        """
        with telemetry.activated(trace):
            with telemetry.trace_span(
                "server.op", op=message.get("op"), partition=self._partition
            ) as span:
                result = handler(self, connection, message)
                if connection.cache_outcome is not None:
                    span.annotate(cache=connection.cache_outcome)
                return result

    async def _respond(
        self, loop: asyncio.AbstractEventLoop, connection: _Connection, frame: bytes
    ) -> bytes:
        binary = connection.wire == wire.BINARY
        message_id: Any = None
        op: Any = None
        ok = True
        trace = None
        echo_spans = False
        connection.cache_outcome = None
        started = time.perf_counter()
        try:
            if binary:
                message = connection.decoder.decode(frame)
                if not isinstance(message, dict):
                    raise ProtocolError(
                        f"a frame must be an object, got {type(message).__name__}"
                    )
            else:
                message = decode_frame(frame)
            message_id = message.get("id")
            op = message.get("op")
            if (
                self._auth_token is not None
                and op != "hello"  # negotiation carries no payload worth gating
                and message.get("auth") != self._auth_token
            ):
                self._auth_refused.inc()
                raise ServiceAuthError(
                    "this server requires a shared auth token (--auth-token) "
                    "and the frame did not carry it"
                )
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            # Trace when the caller forwarded its context (tctx) or when
            # local slow-request sampling is armed; a request that carried
            # tctx gets the recorded spans back in its response envelope.
            tctx = message.get("tctx")
            if tctx is not None:
                trace = telemetry.Trace.from_tctx(tctx)
                echo_spans = trace is not None
            if trace is None and self._slow_request_ms is not None:
                trace = telemetry.Trace()
            if trace is None:
                if op in self._BLOCKING_OPS:
                    result = await loop.run_in_executor(None, handler, self, connection, message)
                else:
                    result = handler(self, connection, message)
            elif op in self._BLOCKING_OPS:
                result = await loop.run_in_executor(
                    None, self._run_traced, trace, handler, connection, message
                )
            else:
                result = self._run_traced(trace, handler, connection, message)
            if binary:
                if isinstance(result, _RawBinary):
                    result = wire.Raw(result.data)
                envelope: Dict[str, Any] = {"id": message_id, "ok": True, "result": result}
                if echo_spans:
                    envelope["spans"] = trace.spans_to_wire()
                return wire.pack_frame(wire.encode_value(envelope))
            if isinstance(result, _RawResult):
                if echo_spans:
                    text = '{"id":%s,"ok":true,"spans":%s,"result":%s}\n' % (
                        _dumps(message_id),
                        _dumps(trace.spans_to_wire()),
                        result.text,
                    )
                else:
                    text = '{"id":%s,"ok":true,"result":%s}\n' % (
                        _dumps(message_id),
                        result.text,
                    )
                return text.encode("utf-8")
            envelope = {"id": message_id, "ok": True, "result": result}
            if echo_spans:
                envelope["spans"] = trace.spans_to_wire()
            return encode_frame(envelope)
        except Exception as exc:  # noqa: BLE001 - every failure becomes a frame
            ok = False
            return self._encode_error(connection, message_id, exc)
        finally:
            elapsed = time.perf_counter() - started
            latency = self._op_latency.get(op)
            if latency is not None:
                latency.observe(elapsed)
                self._op_counts[op].inc()
            if not ok:
                self._op_errors.inc()
            if (
                trace is not None
                and self._slow_request_ms is not None
                and elapsed * 1000.0 >= self._slow_request_ms
            ):
                self._slow_sampled.inc()
                telemetry.dump_slow(
                    _request_log,
                    op=op if isinstance(op, str) else str(op),
                    trace=trace,
                    duration_ms=elapsed * 1000.0,
                    threshold_ms=self._slow_request_ms,
                    wire=connection.wire,
                )
            if self._log_requests:
                _request_log.info(
                    '{"op":%s,"wire":%s,"ok":%s,"duration_us":%d,"cache":%s}',
                    _dumps(op if isinstance(op, str) else str(op)),
                    _dumps(connection.wire),
                    "true" if ok else "false",
                    int(elapsed * 1e6),
                    _dumps(connection.cache_outcome)
                    if connection.cache_outcome is not None
                    else "null",
                )

    # ------------------------------------------------------------------ #
    # Operation handlers
    # ------------------------------------------------------------------ #
    def _cached_entry(self, raw_request: Any, quiet: bool = False):
        """The cache entry for a raw request dict, or ``None``.

        The cache key is read straight off the wire dict — constructing and
        re-validating an :class:`AccessRequest` costs more than the lookup
        itself.  Anything malformed (missing fields, unhashable values)
        simply misses; the miss path validates properly and raises the
        typed error.
        """
        try:
            time_value = raw_request["time"]
            if type(time_value) is not int or time_value < 0:
                # bool/float times hash-equal valid int keys (True == 1,
                # 10.0 == 10); they must take the miss path so validation
                # rejects them exactly like it would against a cold cache.
                return None
            entry = self._cache.get(
                raw_request["subject"], raw_request["location"], time_value, quiet=quiet
            )
        except (TypeError, KeyError):
            return None
        if entry is None or entry.payload is None:
            return None
        return entry

    def _cached_fragment(
        self, raw_request: Any, include_trace: bool, binary: bool, quiet: bool = False
    ):
        """The pre-serialized decision for a raw request dict, or ``None``.

        JSON connections get a ``str`` fragment, binary connections a
        ``bytes`` one (encoded on the entry's first request for that form).
        """
        entry = self._cached_entry(raw_request, quiet=quiet)
        if entry is None:
            return None
        self._bump("cache_hits")
        return entry.payload.encoded(binary, include_trace)

    def _prime_cache(self, request, decision, include_trace: bool, binary: bool, token):
        """Cache a freshly evaluated decision and return the one form the
        reply sends; the other forms wait until a connection asks."""
        fragments = WireFragments(decision)
        fragment = fragments.encoded(binary, include_trace)
        # The token was captured before evaluation; a mutation that landed
        # mid-evaluation makes this store a no-op instead of resurrecting a
        # pre-mutation decision the eviction already covered.
        self._cache.put(
            request.subject,
            request.location,
            request.time,
            decision,
            payload=fragments,
            generation=token,
        )
        return fragment

    def _op_hello(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        """Wire-format negotiation; the switch applies after this response."""
        chosen, result = wire.negotiate_hello(
            message, binary_enabled=self._binary_enabled
        )
        if chosen == wire.BINARY and connection.wire != wire.BINARY:
            connection.pending_wire = wire.BINARY
        return result

    def _op_decide(self, connection, message: Dict[str, Any]):
        include_trace = bool(message.get("trace", False))
        binary = connection.wire == wire.BINARY
        self._bump("decisions")
        raw_request = message.get("request")
        if self._cache is not None:
            fragment = self._cached_fragment(raw_request, include_trace, binary)
            if fragment is not None:
                connection.cache_outcome = "hit"
                return _RawBinary(fragment) if binary else _RawResult(fragment)
        request = request_from_dict(raw_request)
        if self._cache is not None:
            connection.cache_outcome = "miss"
            token = self._cache.generation(request.location)
            decision = self._engine.pdp.decide(request)
            fragment = self._prime_cache(request, decision, include_trace, binary, token)
            return _RawBinary(fragment) if binary else _RawResult(fragment)
        decision = self._engine.pdp.decide(request)
        if binary:
            return _RawBinary(_binary_decision(decision, include_trace))
        return _RawResult(_json_decision(decision, include_trace))

    def _op_decide_many(self, connection, message: Dict[str, Any]):
        raw_requests = message.get("requests", ())
        include_trace = bool(message.get("trace", False))
        binary = connection.wire == wire.BINARY
        self._bump("decisions", len(raw_requests))
        if self._cache is None:
            requests = [request_from_dict(item) for item in raw_requests]
            decisions = self._engine.pdp.decide_many(requests)
            if binary:
                return _RawBinary(
                    wire.encode_value(
                        {
                            "decisions": [
                                wire.Raw(_binary_decision(decision, include_trace))
                                for decision in decisions
                            ]
                        }
                    )
                )
            fragments = [
                _json_decision(decision, include_trace) for decision in decisions
            ]
            return _RawResult('{"decisions":[%s]}' % ",".join(fragments))
        fragments: List[Any] = []
        misses: List[Tuple[int, Any]] = []
        for raw_request in raw_requests:
            # quiet: one aggregate lookup event below, not one per item —
            # a traced 2k-request batch must not record 2k cache spans.
            fragment = self._cached_fragment(raw_request, include_trace, binary, quiet=True)
            fragments.append(fragment)
            if fragment is None:
                misses.append((len(fragments) - 1, raw_request))
        connection.cache_outcome = f"{len(fragments) - len(misses)}/{len(fragments)}"
        telemetry.trace_event(
            "cache.lookup", hits=len(fragments) - len(misses), total=len(fragments)
        )
        if misses:
            requests = [request_from_dict(raw) for _, raw in misses]
            # Tokens before the batch evaluation, which may read any miss's
            # state at any point of the batch.
            tokens = [self._cache.generation(request.location) for request in requests]
            decisions = self._engine.pdp.decide_many(requests)
            for (position, _), request, decision, token in zip(
                misses, requests, decisions, tokens
            ):
                fragments[position] = self._prime_cache(
                    request, decision, include_trace, binary, token
                )
        if binary:
            return _RawBinary(
                wire.encode_value(
                    {"decisions": [wire.Raw(fragment) for fragment in fragments]}
                )
            )
        return _RawResult('{"decisions":[%s]}' % ",".join(fragments))

    @staticmethod
    def _wrap_enforce(fragment, cached: bool, binary: bool):
        if binary:
            return _RawBinary(
                wire.encode_value({"cached": cached, "decision": wire.Raw(fragment)})
            )
        return _RawResult(
            '{"cached":%s,"decision":%s}' % ("true" if cached else "false", fragment)
        )

    def _op_enforce(self, connection, message: Dict[str, Any]):
        """PEP-routed decide: every enforcement lands in the audit log.

        A cache hit is **re-audited** through
        :meth:`~repro.api.pep.EnforcementPoint.attest` with the entry's
        originating generation — an audited deployment sees one decision
        entry (plus a ``CACHED`` note) per enforcement, never a silent
        cache short-circuit.  The response wraps the decision with a
        ``cached`` flag so remote enforcement points can surface it.
        Trace elision only trims the *response*: the attest/audit
        obligations run server-side either way.
        """
        include_trace = bool(message.get("trace", False))
        binary = connection.wire == wire.BINARY
        self._bump("decisions")
        raw_request = message.get("request")
        pep = self._engine.pep
        if self._cache is not None:
            entry = self._cached_entry(raw_request)
            if entry is not None:
                connection.cache_outcome = "hit"
                self._bump("cache_hits")
                pep.attest(entry.decision, cached_generation=entry.generation)
                fragment = entry.payload.encoded(binary, include_trace)
                return self._wrap_enforce(fragment, True, binary)
        request = request_from_dict(raw_request)
        if self._cache is not None:
            connection.cache_outcome = "miss"
            token = self._cache.generation(request.location)
            decision = pep.enforce(request)
            fragment = self._prime_cache(request, decision, include_trace, binary, token)
            return self._wrap_enforce(fragment, False, binary)
        decision = pep.enforce(request)
        if binary:
            return self._wrap_enforce(_binary_decision(decision, include_trace), False, True)
        return self._wrap_enforce(_json_decision(decision, include_trace), False, False)

    def _op_sync(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        """The coherence barrier: drain the bus, pick up the shared store.

        On a bus-attached replica this closes the coherence window (see
        :meth:`~repro.service.bus.ReplicaCoherence.sync`); standalone it
        still folds any foreign rows committed to a shared SQLite file.
        """
        if self._coherence is not None:
            with telemetry.trace_span("bus.sync"):
                applied = self._coherence.sync()
        else:
            with telemetry.trace_span("store.pickup"):
                applied = len(self._engine.movement_db.pickup())
        movement_db = self._engine.movement_db
        return {
            "applied": applied,
            "position": movement_db.applied_position,
            "high_water": movement_db.high_water,
        }

    def _op_observe(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        record = record_from_wire(message.get("record"))
        pep = self._engine.pep
        if record.kind is MovementKind.ENTER:
            alerts = pep.observe_entry(record.time, record.subject, record.location)
        else:
            alerts = pep.observe_exit(record.time, record.subject, record.location)
        self._bump("observed")
        return {"alerts": [alert_to_dict(alert) for alert in alerts]}

    def _ingestor(self, connection: _Connection, mode: str) -> MovementIngestor:
        ingestor = connection.ingestors.get(mode)
        if ingestor is None or ingestor.closed:
            sink = (
                self._engine.pep.observe_many
                if mode == "monitor"
                else self._engine.movement_db.record_many
            )
            extra: Dict[str, Any] = {}
            if self._checkpoint_policy is not None:
                # The shared gate keeps N connections' per-ingestor triggers
                # from multiplying the configured checkpoint rate.
                extra = {
                    "checkpoint_policy": self._checkpoint_policy,
                    "checkpoint": self._shared_checkpoint,
                }
            ingestor = MovementIngestor(
                sink, on_commit=self._on_ingest_commit, **self._ingest_knobs, **extra
            )
            connection.ingestors[mode] = ingestor
            with self._ingest_lock:
                self._ingestors.append((mode, ingestor))
        return ingestor

    def _on_ingest_commit(self, written: int, duration: float) -> None:
        """Group-commit hook, invoked on the ingest writer thread.

        Feeds the commit-latency histogram; the trace event only lands when
        the committing thread is traced (an inline flush under a traced
        op), which is exactly the zero-overhead contract.
        """
        self._ingest_commit_latency.observe(duration)
        telemetry.trace_event("ingest.commit", written=written)

    def _op_observe_batch(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        records = records_from_wire(message.get("records", ()))
        mode = message.get("mode", "monitor")
        if mode not in INGEST_MODES:
            raise ProtocolError(
                f"unknown ingest mode {mode!r}; expected one of {', '.join(INGEST_MODES)}"
            )
        existing = connection.ingestors.get(mode)
        if not records and (existing is None or existing.closed):
            # A defensive flush on a connection that never ingested: nothing
            # to barrier — don't spawn a writer thread just to flush it.
            return {"accepted": 0, "submitted": 0, "written": 0, "dropped": 0, "checkpoints": 0}
        ingestor = self._ingestor(connection, mode)
        accepted = ingestor.submit_many(records)
        self._bump("observed", accepted)
        if message.get("wait", False):
            # Raises IngestError with the rejected records attached; the
            # protocol layer ships them back for client-side retry.  The
            # ingestor is this connection's own, so the failures belong to
            # the client that submitted them.
            ingestor.flush()
        return {
            "accepted": accepted,
            "submitted": ingestor.submitted,
            "written": ingestor.written,
            "dropped": ingestor.dropped,
            "checkpoints": ingestor.checkpoints,
        }

    def _op_query(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        text = message.get("text")
        result = self._queries.evaluate(text)
        self._bump("queries")
        return query_result_to_dict(result)

    def _flush_live_ingestors(self) -> None:
        """Land everything accepted so far — every connection's ingestors.

        The barrier both ``checkpoint`` and the fabric's subject-handoff
        ops (``export_subjects``/``forget_subjects``) need: after it, no
        record any client has successfully submitted is still queued.
        """
        with self._ingest_lock:
            ingestors = [ingestor for _, ingestor in self._ingestors]
        for ingestor in ingestors:
            if ingestor.closed:
                continue
            try:
                ingestor.flush(raise_failures=False)
            except IngestError:
                # Closed concurrently by its disconnecting client: that
                # close already flushed everything it had accepted.
                pass

    def _op_checkpoint(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        # Land everything accepted so far before stamping the checkpoint.
        # Runs in the executor (blocking op).
        self._flush_live_ingestors()
        compact = bool(message.get("compact", True))
        with telemetry.trace_span("store.checkpoint", compact=compact):
            receipt = self._engine.checkpoint(compact=compact)
        retain = message.get("retain")
        # Retention only accompanies compacting checkpoints (the
        # CheckpointPolicy contract): a snapshot-only checkpoint must not
        # destroy the existing archive.
        if retain is not None and compact:
            self._engine.movement_db.prune_archive(retain)
        return checkpoint_to_dict(receipt)

    # ------------------------------------------------------------------ #
    # Fabric handoff ops (see :mod:`repro.service.fabric`)
    # ------------------------------------------------------------------ #
    def _op_export_subjects(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        """Read-only export of some subjects' partition-local state.

        Flushes every connection's pending ingest first, so the export is a
        barrier: it contains every record any client successfully submitted
        before the call.  Nothing is removed — the router's ``reshard``
        calls ``forget_subjects`` separately, *after* the destination has
        confirmed the import, so a failed migration never loses state.
        """
        subjects = [str(subject) for subject in message.get("subjects", ())]
        self._flush_live_ingestors()
        export = self._engine.movement_db.export_subjects(subjects)
        sink = getattr(self._engine, "alerts", None)
        wanted = set(subjects)
        alerts = [a for a in sink.alerts if a.subject in wanted] if sink is not None else []
        monitor = getattr(self._engine, "monitor", None)
        sessions = monitor.export_sessions(subjects) if monitor is not None else []
        return {
            "subjects": subjects,
            "live": records_to_wire(export["live"]),
            "archived": records_to_wire(export["archived"]),
            "archived_through": self._engine.movement_db.archived_through,
            "alerts": [alert_to_dict(alert) for alert in alerts],
            "sessions": [list(session) for session in sessions],
        }

    def _op_import_archive(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        """Adopt migrated subjects' *archived* state (records + alerts).

        The live-log slice does not come through here — the router ships it
        through the ordinary ``observe_batch`` path (``mode="record"``), so
        it lands exactly like native ingest.  Imported records are folded
        into the occupancy projection and the mutation notifications fire,
        so an attached decision cache evicts the affected locations.
        """
        records = records_from_wire(message.get("records", ()))
        alerts = [alert_from_dict(item) for item in message.get("alerts", ())]
        self._engine.movement_db.import_archived(
            records, archived_through=message.get("archived_through")
        )
        sink = getattr(self._engine, "alerts", None)
        if sink is not None and alerts:
            sink.adopt(alerts)
        # Adopt the subjects' open occupancy sessions: exit matching and
        # overstay sweeps must keep judging a stay that began on the source.
        # The live-log slice arrives later in ``record`` mode, which never
        # touches the session table — the adopted state is the final state.
        sessions = message.get("sessions", ())
        monitor = getattr(self._engine, "monitor", None)
        if monitor is not None:
            for item in sessions:
                subject, location, entered_at, auth_id, overstay_flagged = item
                authorization = None
                if auth_id is not None:
                    try:
                        authorization = self._engine.authorization_db.get(auth_id)
                    except Exception:  # noqa: BLE001 - a revoked-here auth degrades
                        authorization = None  # to an unauthorized stay, not a crash
                monitor.adopt_session(
                    str(subject),
                    str(location),
                    int(entered_at),
                    authorization,
                    overstay_flagged=bool(overstay_flagged),
                )
        return {
            "imported": len(records),
            "alerts": len(alerts),
            "sessions": len(sessions),
            "archived_through": self._engine.movement_db.archived_through,
        }

    def _op_forget_subjects(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        """Drop every trace of some subjects (the handoff's source side).

        Removes their movement records (live and archived), their occupancy
        projection state and their alerts, then invalidates the cache for
        every location the subjects touched — a decision for a departed
        subject must not be re-served from this partition's cache.
        """
        subjects = [str(subject) for subject in message.get("subjects", ())]
        self._flush_live_ingestors()
        locations = self._engine.movement_db.forget_subjects(subjects)
        sink = getattr(self._engine, "alerts", None)
        dropped_alerts = sink.extract_for(subjects) if sink is not None else []
        monitor = getattr(self._engine, "monitor", None)
        if monitor is not None:
            monitor.drop_sessions(subjects)
        if self._cache is not None:
            for location in locations:
                self._cache.invalidate_location(location)
            # Location-wise eviction covers every location the subjects
            # *moved through*; cached denials can live at locations with no
            # movement record (and, on a tiered cache, as spilled disk
            # rows).  The subject-wise purge tombstones those too, so a
            # migrated subject's decisions cannot survive the reshard in
            # this partition's cache file.
            invalidate_subject = getattr(self._cache, "invalidate_subject", None)
            if callable(invalidate_subject):
                for subject in subjects:
                    invalidate_subject(subject)
        if self._coherence is not None:
            # forget_subjects drops occupancy *without* mutation notices, so
            # the automatic ledger publish never fires — announce the new
            # (lower) counts explicitly or the peers would keep counting the
            # migrated subjects against this partition forever.
            self._coherence.publish_occupancy(locations)
        return {
            "subjects": subjects,
            "locations": sorted(locations),
            "alerts_dropped": len(dropped_alerts),
        }

    def _op_list_subjects(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        """Every subject this partition holds state for (records or alerts)."""
        subjects = set(self._engine.movement_db.known_subjects())
        sink = getattr(self._engine, "alerts", None)
        if sink is not None:
            subjects.update(alert.subject for alert in sink.alerts)
        return {"subjects": sorted(subjects)}

    def _partition_info(self) -> Optional[Dict[str, Any]]:
        if self._partition is None and self._partition_map is None:
            return None
        info: Dict[str, Any] = {"name": self._partition}
        if self._partition_map is not None:
            info["map_version"] = self._partition_map.version
            if self._partition is not None:
                try:
                    info.update(self._partition_map.describe(self._partition))
                except Exception:  # noqa: BLE001 - a foreign map must not break health
                    pass
        return info

    def _op_metrics(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        """The whole registry as structured JSON (plus this server's identity).

        The ``repro top`` dashboard and anything else that wants the raw
        counters read this; the Prometheus endpoint renders the same
        registry as text exposition.
        """
        self._register_location_gauges()  # pick up post-start set_capacity calls
        data = self._registry.collect()
        data["identity"] = {
            "role": "server",
            "partition": self._partition,
            "replica": self._coherence.replica_id if self._coherence is not None else None,
        }
        return data

    def _op_health(self, connection, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._ingest_lock:
            # Cumulative per mode: retired (disconnected) ingestors' folded
            # totals plus every live connection's counters.
            ingest: Dict[str, Dict[str, int]] = {
                mode: dict(totals) for mode, totals in self._ingest_totals.items()
            }
            for mode, ingestor in self._ingestors:
                _fold_ingest(ingest, mode, ingestor)
        uptime = time.monotonic() - self._started_at if self._started_at is not None else 0.0
        return {
            "status": "ok",
            "uptime": uptime,
            "backend": type(self._engine.movement_db).__name__,
            "stats": self._snapshot_stats(),
            "cache": self._cache.stats if self._cache is not None else None,
            "cache_warm": self._warm_report,
            "connections": {
                "live": self._live_connections,
                "max": self._max_connections,
                "busy_refused": self._busy_refused,
            },
            "coherence": self._coherence.stats if self._coherence is not None else None,
            "ledger": self._ledger_info(),
            "ingest": ingest,
            "partition": self._partition_info(),
        }

    def _ledger_info(self) -> Optional[Dict[str, Any]]:
        """The capacity ledger's health section (``None`` outside the fabric).

        ``local`` is this partition's own zero-pruned occupancy vector and
        ``remote`` the per-origin vectors folded from the bus — the router's
        convergence check compares every partition's ``local`` against its
        peers' ``remote`` copies of it.
        """
        if self._ledger is None:
            return None
        local = dict(Counter(self._engine.movement_db.subjects_inside().values()))
        info: Dict[str, Any] = {
            "local": local,
            "remote": self._ledger.remote_vectors(),
            "lag_seconds": self._ledger.lag_seconds,
        }
        info.update(self._ledger.stats)
        return info

    _HANDLERS = {
        "hello": _op_hello,
        "decide": _op_decide,
        "decide_many": _op_decide_many,
        "enforce": _op_enforce,
        "observe": _op_observe,
        "observe_batch": _op_observe_batch,
        "query": _op_query,
        "checkpoint": _op_checkpoint,
        "sync": _op_sync,
        "health": _op_health,
        "metrics": _op_metrics,
        "export_subjects": _op_export_subjects,
        "import_archive": _op_import_archive,
        "forget_subjects": _op_forget_subjects,
        "list_subjects": _op_list_subjects,
    }
