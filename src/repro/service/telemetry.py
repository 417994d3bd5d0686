"""Telemetry: the metrics registry and the cross-process trace layer.

Everything observable about a running fabric flows through this module —
stdlib only, no third-party client libraries.

**Metrics.**  A :class:`MetricsRegistry` holds named :class:`Counter`\\ s,
:class:`Gauge`\\ s and fixed-bucket streaming :class:`Histogram`\\ s.  The
hot-path cost model is strict: a counter increment is one lock acquire and
one integer add; a histogram observation is one lock acquire, one
:func:`bisect.bisect_left` over a precomputed boundary tuple and two adds —
**no allocation** once the metric object exists.  Callers on latency paths
pre-resolve their metric objects at construction time (the server keeps a
per-op histogram dict) so the per-request work never touches the registry's
name table.  Gauges may wrap a zero-argument callable, read at collection
time — the preferred shape for values another subsystem already maintains
(cache sizes, bus positions, live connection counts): scrapes pay the cost,
the hot path pays nothing.

Quantiles (p50/p95/p99) are estimated from the bucket counts by linear
interpolation inside the bucket that straddles the target rank — the
classic Prometheus ``histogram_quantile`` estimator, computed server-side
so the ``metrics`` wire op and ``repro top`` need no PromQL.

**Tracing.**  A :class:`Trace` is one request's identity (``trace_id``)
plus the spans recorded on its behalf in this process.  The active trace is
**thread-local** (:func:`activate` / :func:`active_trace`): the server
activates it on whichever thread actually executes a handler (event loop or
executor), and the router's scatter-gather re-activates it on each fan-out
thread — :class:`Trace` is internally locked, so concurrent fan-out spans
append safely.  Instrumentation sites call :func:`trace_span` /
:func:`trace_event`; with no active trace these cost one thread-local read
and return a shared no-op — the zero-overhead-when-disabled contract.

Context propagates over the wire as an optional ``tctx`` envelope field:
``[trace_id, parent_span_id]``.  Both framings carry it as an ordinary map
entry, so old peers simply ignore it; on the binary codec the repeated
``"tctx"`` key is interned per connection (3-byte refs after the first use)
while the one-shot id strings stay out of the intern table by design (a
string is only interned on its second occurrence).  Servers advertise
support through a ``telemetry`` capability list in the ``hello`` result.
A traced server returns its recorded spans in the response envelope
(``spans``), and the caller grafts them into its own trace — so the router
ends up holding one connected span tree for the whole scatter-gather, which
the slow-request sampler (:func:`dump_slow`) writes to the
``repro.service.requests`` log when a request exceeds its threshold.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
import random as _random
from os import urandom
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsExporter",
    "Span",
    "Trace",
    "DEFAULT_LATENCY_BUCKETS",
    "activate",
    "deactivate",
    "activated",
    "active_trace",
    "trace_span",
    "trace_event",
    "dump_slow",
]

#: Default latency buckets, in seconds: 100 µs .. 10 s, roughly
#: logarithmic.  Decides on a warm cache land in the first few buckets;
#: anything past 25 ms is pipeline work or a stall worth a trace.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, value.replace("\\", "\\\\").replace('"', '\\"'))
        for key, value in labels
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing integer.  ``inc`` is lock + add, nothing else."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value: either :meth:`set` explicitly, or constructed
    around a zero-argument callable read at collection time (the cheap way
    to expose a value some other subsystem already maintains)."""

    __slots__ = ("name", "labels", "_value", "_fn", "_lock")

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                return 0.0
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket streaming histogram with server-side quantile estimation.

    Bucket boundaries are upper-inclusive (Prometheus ``le`` semantics) and
    fixed at construction; an implicit ``+Inf`` bucket catches the rest.
    :meth:`observe` allocates nothing: a bisect over the precomputed
    boundary tuple, one list-element increment, two adds — all under the
    histogram's own lock, so writers on the serving threads and readers on
    the scrape thread never tear a snapshot.
    """

    __slots__ = ("name", "labels", "_bounds", "_counts", "_count", "_sum", "_lock")

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        self.name = name
        self.labels = labels
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    def snapshot(self) -> Dict[str, Any]:
        """Counts, sum, and estimated p50/p95/p99 — one consistent view."""
        with self._lock:
            counts = list(self._counts)
            count = self._count
            total = self._sum
        return {
            "count": count,
            "sum": total,
            "buckets": [[bound, counts[i]] for i, bound in enumerate(self._bounds)]
            + [["+Inf", counts[-1]]],
            "p50": self._quantile(counts, count, 0.50),
            "p95": self._quantile(counts, count, 0.95),
            "p99": self._quantile(counts, count, 0.99),
        }

    def _quantile(self, counts: List[int], count: int, q: float) -> float:
        """Linear interpolation inside the bucket straddling rank ``q*count``."""
        if count == 0:
            return 0.0
        rank = q * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self._bounds):
                    # The +Inf bucket has no upper edge; report the last
                    # finite boundary (the estimate is a floor, like
                    # Prometheus's).
                    return self._bounds[-1]
                lower = self._bounds[index - 1] if index > 0 else 0.0
                upper = self._bounds[index]
                return lower + (upper - lower) * ((rank - previous) / bucket_count)
        return self._bounds[-1]


class MetricsRegistry:
    """The per-process (per-server, really) name table of metric objects.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent get-or-create:
    the same (name, labels) pair always returns the same object, so call
    sites may re-resolve freely — but hot paths should resolve **once** and
    keep the object (registry access takes the registry lock and builds a
    label key).  :meth:`collect` returns the whole registry as plain
    JSON-compatible data (the ``metrics`` wire op's payload);
    :meth:`render_prometheus` renders the text exposition format.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, Tuple], Counter] = {}
        self._gauges: Dict[Tuple[str, Tuple], Gauge] = {}
        self._histograms: Dict[Tuple[str, Tuple], Histogram] = {}

    # ------------------------------------------------------------------ #
    # Get-or-create
    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, key[1])
            return metric

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(name, key[1], fn)
            elif fn is not None:
                metric._fn = fn
            return metric

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(name, key[1], buckets)
            return metric

    # ------------------------------------------------------------------ #
    # Collection
    # ------------------------------------------------------------------ #
    def collect(self) -> Dict[str, Any]:
        """The registry as JSON-compatible data, quantiles precomputed."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in counters
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in gauges
            ],
            "histograms": [
                dict(h.snapshot(), name=h.name, labels=dict(h.labels))
                for h in histograms
            ],
        }

    def counter_value(self, name: str, **labels: str) -> int:
        """Read one counter without creating it (0 when absent)."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
        return metric.value if metric is not None else 0

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        lines: List[str] = []
        seen_types: Dict[str, str] = {}

        def type_line(name: str, kind: str) -> None:
            if seen_types.get(name) != kind:
                seen_types[name] = kind
                lines.append(f"# TYPE {name} {kind}")

        for counter in sorted(counters, key=lambda m: (m.name, m.labels)):
            type_line(counter.name, "counter")
            lines.append(f"{counter.name}{_render_labels(counter.labels)} {counter.value}")
        for gauge in sorted(gauges, key=lambda m: (m.name, m.labels)):
            type_line(gauge.name, "gauge")
            lines.append(f"{gauge.name}{_render_labels(gauge.labels)} {gauge.value}")
        for histogram in sorted(histograms, key=lambda m: (m.name, m.labels)):
            type_line(histogram.name, "histogram")
            snap = histogram.snapshot()
            cumulative = 0
            for bound, bucket_count in snap["buckets"]:
                cumulative += bucket_count
                le = "+Inf" if bound == "+Inf" else repr(float(bound))
                labels = dict(histogram.labels)
                labels["le"] = le
                lines.append(
                    f"{histogram.name}_bucket{_render_labels(_label_key(labels))} {cumulative}"
                )
            lines.append(
                f"{histogram.name}_sum{_render_labels(histogram.labels)} {snap['sum']}"
            )
            lines.append(
                f"{histogram.name}_count{_render_labels(histogram.labels)} {snap['count']}"
            )
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# The Prometheus endpoint: a tiny stdlib HTTP listener
# --------------------------------------------------------------------- #
class MetricsExporter:
    """``GET /metrics`` → text exposition; ``GET /metrics.json`` → the
    :meth:`MetricsRegistry.collect` tree.  A daemon thread runs a stdlib
    :class:`~http.server.ThreadingHTTPServer`; scrapes never touch the
    serving event loop."""

    def __init__(self, registry: MetricsRegistry, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self._registry = registry
        self._host = host
        self._port = port
        self._httpd = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind and serve in the background; returns the bound port."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        registry = self._registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                path = self.path.split("?", 1)[0]
                if path in ("/metrics", "/"):
                    body = registry.render_prometheus().encode("utf-8")
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                elif path == "/metrics.json":
                    body = json.dumps(registry.collect(), separators=(",", ":")).encode("utf-8")
                    content_type = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: Any) -> None:
                pass  # scrapes are not request-log events

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._httpd.daemon_threads = True
        self._port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="ltam-metrics", daemon=True
        )
        self._thread.start()
        return self._port

    @property
    def port(self) -> int:
        return self._port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #
class Span:
    """One timed (or instantaneous) operation inside a trace.

    ``start_us`` is wall-clock microseconds (comparable across processes,
    roughly); ``duration_us`` comes from the monotonic clock.  ``parent_id``
    links the tree — the root span of a forwarded request parents to the
    ``tctx`` span id it arrived with.
    """

    __slots__ = ("span_id", "parent_id", "name", "start_us", "duration_us", "meta", "_started")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str], meta: Optional[Dict[str, Any]]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_us = int(time.time() * 1_000_000)
        self.duration_us = 0
        self.meta = meta
        self._started = time.perf_counter()

    def annotate(self, **meta: Any) -> None:
        """Attach key/value detail (cache outcome, partition name, ...)."""
        if self.meta is None:
            self.meta = {}
        self.meta.update(meta)

    def close(self) -> None:
        self.duration_us = int((time.perf_counter() - self._started) * 1_000_000)

    def to_wire(self) -> List[Any]:
        return [self.span_id, self.parent_id, self.name, self.start_us, self.duration_us, self.meta]

    @classmethod
    def from_wire(cls, item: Sequence[Any]) -> "Span":
        span = cls.__new__(cls)
        span.span_id, span.parent_id, span.name = item[0], item[1], item[2]
        span.start_us, span.duration_us = item[3], item[4]
        span.meta = item[5] if len(item) > 5 else None
        span._started = 0.0
        return span


# Ids need to be unique, not unguessable: span ids only disambiguate nodes
# within one trace tree, trace ids only correlate log lines.  A PRNG seeded
# once from the OS is ~2x faster per id than an os.urandom syscall, which
# matters because every recorded span draws one.  getrandbits on the shared
# Random is a single C call, so it is atomic under the GIL.
_rng = _random.Random(urandom(16))


def _new_id(nbytes: int) -> str:
    return "%0*x" % (nbytes * 2, _rng.getrandbits(nbytes * 8))


class Trace:
    """One request's identity plus the spans this process recorded for it.

    Internally locked: the router's scatter-gather activates the same trace
    on several fan-out threads at once, and each appends spans concurrently.
    """

    __slots__ = ("trace_id", "root_parent", "_spans", "_lock")

    def __init__(self, trace_id: Optional[str] = None, root_parent: Optional[str] = None) -> None:
        self.trace_id = trace_id or _new_id(8)
        self.root_parent = root_parent
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    @classmethod
    def from_tctx(cls, tctx: Any) -> Optional["Trace"]:
        """Rebuild the caller's context from a ``tctx`` envelope field.

        Anything malformed yields ``None`` — a bad trace context must never
        fail the request it decorates.
        """
        if (
            isinstance(tctx, (list, tuple))
            and len(tctx) == 2
            and isinstance(tctx[0], str)
            and (tctx[1] is None or isinstance(tctx[1], str))
        ):
            return cls(tctx[0], tctx[1])
        return None

    def tctx(self, parent_span_id: Optional[str] = None) -> List[Optional[str]]:
        """The wire form to forward: ``[trace_id, parent_span_id]``."""
        return [self.trace_id, parent_span_id if parent_span_id is not None else self.root_parent]

    def begin(self, name: str, parent_id: Optional[str], meta: Optional[Dict[str, Any]] = None) -> Span:
        return Span(name, _new_id(4), parent_id, meta)

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def event(self, name: str, parent_id: Optional[str], meta: Optional[Dict[str, Any]] = None) -> None:
        """An instantaneous span (cache outcome, bus apply, ...)."""
        self.record(Span(name, _new_id(4), parent_id, meta))

    def span(self, name: str, **meta: Any) -> "_OpenSpan":
        """:func:`trace_span` for a caller that already holds the active trace."""
        return _OpenSpan(self, name, meta or None)

    def graft(self, wire_spans: Any) -> None:
        """Adopt spans a downstream server returned in its response envelope."""
        if not isinstance(wire_spans, (list, tuple)):
            return
        adopted = []
        for item in wire_spans:
            if isinstance(item, (list, tuple)) and len(item) >= 5:
                try:
                    adopted.append(Span.from_wire(item))
                except Exception:
                    continue
        with self._lock:
            self._spans.extend(adopted)

    def spans_to_wire(self) -> List[List[Any]]:
        with self._lock:
            spans = sorted(self._spans, key=lambda s: s.start_us)
        return [span.to_wire() for span in spans]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __bool__(self) -> bool:
        # Without this, __len__ makes an empty (span-less) trace falsy and
        # any ``if trace`` guard silently treats it as absent.
        return True


# The active trace (and this thread's open-span stack) is thread-local:
# ``run_in_executor`` does not propagate contextvars, and the fan-out
# threads re-activate explicitly — so a plain ``threading.local`` is both
# simpler and faster than contextvars here.
class _TraceLocal(threading.local):
    # Class-level defaults: a thread that never activated a trace reads
    # None here instead of raising (and catching) an AttributeError on
    # every check, which costs more than the read itself.
    trace: Optional[Trace] = None
    stack: Optional[List[Optional[str]]] = None


_tls = _TraceLocal()


def active_trace() -> Optional[Trace]:
    """The trace this thread is currently recording for, or ``None``.

    This is the whole disabled-path cost: one thread-local attribute read.
    """
    return _tls.trace


def activate(trace: Optional[Trace], parent_id: Optional[str] = None) -> None:
    """Make *trace* this thread's active trace (``None`` deactivates)."""
    _tls.trace = trace
    # ``trace is not None`` — Trace defines __len__, so an empty trace is
    # falsy and a plain truthiness test would drop the forwarded parent.
    _tls.stack = [
        parent_id
        if parent_id is not None
        else (trace.root_parent if trace is not None else None)
    ]


def deactivate() -> None:
    _tls.trace = None
    _tls.stack = [None]


@contextmanager
def activated(trace: Optional[Trace], parent_id: Optional[str] = None):
    """Activate *trace* for the duration of the block (save/restore nesting)."""
    previous_trace = _tls.trace
    previous_stack = _tls.stack
    activate(trace, parent_id)
    try:
        yield trace
    finally:
        _tls.trace = previous_trace
        _tls.stack = previous_stack if previous_stack is not None else [None]


def current_span_id() -> Optional[str]:
    """The innermost open span on this thread (parent for forwarded calls)."""
    stack = _tls.stack
    return stack[-1] if stack else None


class _NullSpan:
    """The shared no-op returned when tracing is off — one object, reused."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def annotate(self, **meta: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager recording one span on the active trace, maintaining
    this thread's parent stack so nested spans link automatically."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: Trace, name: str, meta: Optional[Dict[str, Any]]) -> None:
        self._trace = trace
        self._span = trace.begin(name, current_span_id(), meta)

    def __enter__(self) -> Span:
        stack = _tls.stack
        if stack is None:
            stack = _tls.stack = [None]
        stack.append(self._span.span_id)
        return self._span

    def __exit__(self, *exc: Any) -> None:
        stack = _tls.stack
        if stack and stack[-1] == self._span.span_id:
            stack.pop()
        self._span.close()
        self._trace.record(self._span)


def trace_span(name: str, **meta: Any):
    """A context manager timing one span on the active trace — or the
    shared no-op when this thread is not tracing."""
    trace = active_trace()
    if trace is None:
        return _NULL_SPAN
    return _OpenSpan(trace, name, meta or None)


def trace_event(name: str, **meta: Any) -> None:
    """Record an instantaneous span on the active trace (no-op otherwise)."""
    trace = active_trace()
    if trace is not None:
        trace.event(name, current_span_id(), meta or None)


# --------------------------------------------------------------------- #
# Slow-request sampling
# --------------------------------------------------------------------- #
def dump_slow(
    logger: Any,
    *,
    op: str,
    trace: Trace,
    duration_ms: float,
    threshold_ms: float,
    wire: Optional[str] = None,
) -> None:
    """Write a request's full span tree to the request log.

    One NDJSON line on the ``repro.service.requests`` logger, shaped like
    the PR 8 access lines but flagged ``"slow": true`` and carrying the
    spans — a tail-latency decide is diagnosable after the fact.
    """
    payload = {
        "slow": True,
        "op": op,
        "trace_id": trace.trace_id,
        "duration_ms": round(duration_ms, 3),
        "threshold_ms": threshold_ms,
        "spans": trace.spans_to_wire(),
    }
    if wire is not None:
        payload["wire"] = wire
    logger.info(json.dumps(payload, separators=(",", ":"), default=str))
