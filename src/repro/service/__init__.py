"""repro.service — the PDP/PEP over a network boundary.

Architecture note
-----------------

Everything before this package runs the engine *embedded*: trackers, policy
clients and administrators share one process with the
:class:`~repro.api.builder.Ltam` engine.  The XACML-style deployment the
PR 1 redesign was built for puts the PDP behind a **service boundary**
instead — one authorization server, a fleet of remote enforcement points —
and this package is that boundary, closing the ROADMAP's "multi-process
ingest" item:

.. code-block:: text

    tracker proc A ──observe_batch──▶ ┌──────────────────────────────┐
    tracker proc B ──observe_batch──▶ │  LtamServer  (asyncio, TCP)  │
                                      │   ├─ MovementIngestor ──────▶│ one writer,
    gate client ──decide/decide_many▶ │   ├─ DecisionCache           │ group commits,
    admin client ──query/checkpoint─▶ │   └─ Ltam (PDP/PEP/monitor)  │ scheduled
                                      └──────────────────────────────┘ checkpoints

* :mod:`repro.service.protocol` — the baseline wire codec:
  newline-delimited JSON frames round-tripping requests,
  :class:`~repro.api.decision.Decision` objects (per-stage traces on
  request), movement records, alerts, query results, checkpoint receipts,
  and **typed errors** (a remote ``StorageError`` raises as
  ``StorageError``, a rejected ingest batch comes back with its records
  for retry/dead-lettering).
* :mod:`repro.service.wire` — the negotiated **compact binary format**:
  stdlib ``struct``-packed, length-prefixed frames with per-connection
  string interning (subject/location/action ids shrink to 3-byte refs on
  repetition).  A connection starts as NDJSON and upgrades through one
  ``hello`` op; peers that never ask keep speaking NDJSON, and a binary
  client in front of a JSON-only server falls back transparently — no
  flag day.  Decision responses are **trace-elided by default** (outcome,
  reason, entries used, admitting authorization; per-stage traces only on
  ``trace=true``), and ``decide_many`` is vectorized end to end: one
  frame in, one batched cache pass over pre-serialized fragments (JSON
  and binary forms both cached), one frame out — on the server and on the
  fabric router's scatter-gather alike.  The decisions/sec/core budget is
  asserted by ``benchmarks/test_bench_wire.py``.
* :mod:`repro.service.server` — :class:`LtamServer`, a stdlib-only asyncio
  server over an embedded engine.  Ops: ``decide``, ``decide_many``,
  ``observe``, ``observe_batch`` (feeding the existing
  :class:`~repro.storage.ingest.MovementIngestor`; ``monitor`` and raw
  ``record`` sinks), ``query``, ``checkpoint``, ``health``.
* :mod:`repro.service.cache` — :class:`DecisionCache`: decisions keyed by
  (subject, location, action, time bucket), served without re-running the
  pipeline or re-encoding the response; **event-wise invalidation** via the
  movement database's mutation notifications evicts only the locations a
  movement can affect, so hot read traffic stays parity-correct under
  interleaved ingest.
* :mod:`repro.service.client` — the blocking :class:`ServiceClient`, a
  :class:`ConnectionPool`, and :class:`RemotePdp`/:class:`RemotePep`
  mirroring the embedded APIs; ``RemotePep.ingestor()`` gives tracker
  adapters the same streaming interface they had in-process.

Replicated serving (the invalidation bus)
-----------------------------------------

One server saturates one process; replicated serving runs **several**
``LtamServer`` replicas over one SQLite file, with :mod:`repro.service.bus`
keeping their decision caches coherent:

.. code-block:: text

    gate fleet ──decide/enforce──▶ replica A ──┐ publish/subscribe
    tracker fleet ──observe_batch▶ (writer)    ├──▶ InvalidationBus
    gate fleet ──decide/enforce──▶ replica B ──┘    (seq-stamped fan-out,
                                       │             bounded replay buffer)
                                       ▼ pickup()
                                one SQLite file

* every replica **publishes** its movement-store mutation notices and its
  cache's administrative evictions to the bus, and **applies** the other
  replicas' events by evicting its own cache and calling the movement
  store's ``pickup()`` (folding the file's committed rows into the local
  projection);
* events carry a monotonic bus ``seq``; a replica that detects a gap
  requests a replay from the hub's bounded buffer, and an uncoverable gap
  or a reconnect triggers a **full resync** (pickup to the file's high
  water + cache clear) — so lost frames degrade coherence to a wider
  window, never to serving stale state forever;
* per-replica **generation fencing** (the cache's invalidation tokens)
  guarantees a decide that raced a bus eviction can never store — and a
  later hit can never resurrect — a pre-mutation decision;
* the ``sync`` op is the **barrier** that closes the coherence window on
  demand; a background sync tick bounds it even under total bus loss.

Durable tiering (the cache sidecar)
-----------------------------------

Everything above keeps the decision cache in RAM, so every restart starts
from a cold cache and the first seconds of traffic pay full-pipeline
latency.  :mod:`repro.service.cache_store` removes that cliff with a
**SQLite sidecar** under the cache (``repro serve --cache-path``):

* :class:`~repro.service.cache_store.TieredDecisionCache` writes every
  admitted entry **through** to the sidecar — the pre-serialized JSON and
  binary wire fragments verbatim, stamped with the movement store's
  applied position at admission.  LRU eviction becomes *demotion*: the row
  is already on disk, and a later request for it promotes it back into RAM
  and serves the stored fragments without re-running the pipeline **or**
  re-encoding the response.
* Correctness rides one invariant: **every invalidation tombstones its
  disk rows synchronously, under the same lock, on every path** — per
  location, per (location, subject) pair, per subject, movement-driven or
  bus-driven (:class:`~repro.service.bus.CoherentDecisionCache` delegates
  to the same hooks).  A disk row that still exists was therefore never
  invalidated, so promotion can attach the cache's *current* generation
  token without re-validating anything.
* **Warm restart** re-admits what survived the downtime:
  :meth:`~repro.service.cache_store.TieredDecisionCache.warm` checks the
  persisted engine fingerprint (authorizations, capacities, location set —
  config drift purges wholesale), then validates each row against the
  movement store — a row is dropped if any movement touching its location
  landed after the row's stamped position (foreign writers included, via
  the same ``pickup()`` bookkeeping the bus uses), or if the store cannot
  prove there was none.  Survivors re-enter RAM newest-first; the rest
  stay spilled.  ``benchmarks/test_bench_cache_restart.py`` asserts the
  payoff (warmed restart ≥3x cold first-window throughput), and ``repro
  cache stats|warm|purge`` operates on sidecar files directly.

The ``enforce`` op routes remote decisions through the
:class:`~repro.api.pep.EnforcementPoint`, so audited deployments get one
audit entry per enforcement over the wire too; a decision served from the
cache is re-audited with a ``CACHED`` note carrying the entry's originating
cache generation (see :meth:`~repro.api.pep.EnforcementPoint.attest`).

Partitioned serving (the fabric)
--------------------------------

Replication scales *reads* of one log; the fabric scales the log itself by
sharding **subjects** across server processes.  :mod:`repro.service.fabric`
holds the two pieces:

.. code-block:: text

    gate fleet ──decide/enforce──▶ ┌──────────────┐ ──▶ partition "east"
    tracker fleet ──observe_batch▶ │ FabricRouter │ ──▶ partition "west"
    admin ──query/checkpoint/sync▶ │ PartitionMap │ ──▶ partition "north"
                                   └──────────────┘      (repro serve
                                    (client-side or       --partition NAME
                                     'repro route')       --map fabric.json)

* :class:`~repro.service.fabric.PartitionMap` — a versioned consistent-hash
  assignment of subjects to named partitions.  A CRC32/virtual-node ring
  (:func:`~repro.storage.sharding.stable_hash`), so growing the fleet
  remaps only ``~1/n`` of the subjects; explicit per-subject pins
  move a hot subject without touching the ring.  Serializes to a JSON file
  every ``repro serve --map`` / ``repro route --map`` process shares.
* :class:`~repro.service.fabric.FabricRouter` — routes point ops to the
  owning partition, scatter-gathers batches with per-partition order
  preserved, answers cross-partition queries (``WHO IS IN``, global
  ``VIOLATIONS``) by fan-out + deterministic merge, and reshards **live**:
  only remapped subjects move (archive handoff via ``import_archive``, the
  live slice through ordinary ingest, a ``sync`` cutover barrier on the
  destination before the new map serves traffic).
* :class:`~repro.service.fabric.RouterServer` — the router behind a socket
  speaking the ordinary protocol, so an unmodified
  :class:`~repro.service.client.ServiceClient` sees one logical server.

**Global capacity** (:mod:`repro.service.capacity`) closes the fabric's
one semantic gap versus embedded serving: a location's occupancy limit
must count occupants *fleet-wide* even though each partition's movement
store only tracks its own subjects.  Each partition derives a per-location
occupancy vector from its authoritative projection whenever a movement
lands, publishes it over the same invalidation bus that carries cache
evictions, and folds peers' vectors into a
:class:`~repro.service.capacity.CapacityLedger`.  The serving engine's
``occupancy_of`` is overlaid with *local projection + remote ledger*, so
:class:`~repro.api.stages.CapacityStage` decides against the global count;
a fold that changes a location's remote count evicts that location's
cached decisions, exactly like a local movement would.  Counts are
**absolute** (last-write-wins per origin), so replays and resyncs are
idempotent; the router's two-phase ``sync`` fan-out is the convergence
barrier, and a reshard ends with the same barrier so a moved subject's
stay is counted exactly once.  While the bus is down, a partition serves
from its last-folded vectors — capacity degrades to *stale-global* (never
to per-partition blindness), and the background sync tick re-converges it.

Observability (telemetry)
-------------------------

:mod:`repro.service.telemetry` is the stdlib-only observability fabric the
whole package shares — a metrics registry plus a span model:

* **Metrics** are always on and cheap enough for an uncached decide:
  every server and router owns a :class:`~repro.service.telemetry.
  MetricsRegistry` whose hot-path objects (per-op latency
  :class:`~repro.service.telemetry.Histogram`\\ s, the decide/cache
  counters) are resolved once at construction — an ``observe()`` is a
  bisect over a precomputed boundary tuple plus three adds under the
  metric's own lock, no allocation.  Everything else (cache sizes, bus
  lag, ingest queue depth, connection counts) is a callback
  :class:`~repro.service.telemetry.Gauge` read at scrape time, so the hot
  paths pay nothing for it.  Exposed three ways: the ``metrics`` wire op
  (structured JSON), ``--metrics-port`` (Prometheus text exposition over a
  stdlib HTTP listener), and ``repro top`` (a live per-partition table
  polled over the ``metrics`` op).
* **Spans** have a zero-overhead-when-disabled contract: tracing activates
  per-request only when the request carries a ``tctx`` envelope key (a
  ``[trace_id, parent_span_id]`` pair, ignored by old peers on both wire
  formats) or when the process samples slow requests (``--slow-ms``).
  With no active trace, every instrumentation point —
  :func:`~repro.service.telemetry.trace_span` around router dispatch,
  server op dispatch, pipeline evaluation, store pickup/checkpoint;
  :func:`~repro.service.telemetry.trace_event` at cache hit/miss/flight,
  ingest group-commit, bus publish/apply — is one thread-local read
  returning a shared no-op.  With a trace active, spans parent-link
  automatically through a thread-local stack (activation survives the
  executor hop), downstream processes **echo** their spans in the response
  envelope, and the caller grafts them under its calling span: one
  connected tree per request across router and partitions.  Requests
  slower than the threshold get that tree dumped to the
  ``repro.service.requests`` logger.

Run a server with ``repro serve --layout campus.json --auths auths.json``
(hosting a bus with ``--bus PORT``, joining one with ``--peers HOST:PORT``)
or in-process::

    from repro.service import DecisionCache, LtamServer, RemotePdp

    with LtamServer(engine, cache=DecisionCache()) as server:
        host, port = server.address
        pdp = RemotePdp(host, port)
        decision = pdp.decide((10, "alice", "meeting-room"))
"""

from repro.service.bus import (
    DEFAULT_BUS_PORT,
    BusLink,
    CoherentDecisionCache,
    InvalidationBus,
    ReplicaCoherence,
)
from repro.service.cache import CachedDecision, DecisionCache
from repro.service.cache_store import (
    CacheStore,
    TieredDecisionCache,
    engine_fingerprint,
)
from repro.service.capacity import CapacityLedger
from repro.service.client import ConnectionPool, RemotePdp, RemotePep, ServiceClient
from repro.service.errors import (
    ProtocolError,
    RemoteServiceError,
    ServiceAuthError,
    ServiceBusyError,
    ServiceConnectionError,
    ServiceError,
)
from repro.service.fabric import (
    DEFAULT_ROUTER_PORT,
    FabricRouter,
    PartitionMap,
    RouterServer,
)
from repro.service.server import DEFAULT_PORT, LtamServer
from repro.service.telemetry import (
    MetricsExporter,
    MetricsRegistry,
    Span,
    Trace,
    trace_event,
    trace_span,
)

__all__ = [
    "CachedDecision",
    "DecisionCache",
    "CacheStore",
    "TieredDecisionCache",
    "engine_fingerprint",
    "ServiceClient",
    "ConnectionPool",
    "RemotePdp",
    "RemotePep",
    "LtamServer",
    "InvalidationBus",
    "BusLink",
    "CoherentDecisionCache",
    "ReplicaCoherence",
    "PartitionMap",
    "FabricRouter",
    "RouterServer",
    "CapacityLedger",
    "MetricsRegistry",
    "MetricsExporter",
    "Trace",
    "Span",
    "trace_span",
    "trace_event",
    "DEFAULT_PORT",
    "DEFAULT_BUS_PORT",
    "DEFAULT_ROUTER_PORT",
    "ServiceError",
    "ProtocolError",
    "ServiceAuthError",
    "ServiceBusyError",
    "ServiceConnectionError",
    "RemoteServiceError",
]
