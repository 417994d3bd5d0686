"""The observability layer: metrics registry, span propagation, slow sampling.

Three families of tests:

* registry units — counters/gauges/histograms, quantile estimation, the
  Prometheus text exposition and the HTTP exporter;
* trace propagation — ``tctx`` in, spans echoed and grafted back, one
  connected span tree across a router scatter-gather (both wire formats),
  and the slow-request sampler's dump;
* the engine-fingerprint extension — derivation rules now flip the
  fingerprint (so rule edits invalidate warm restarts) while instance
  trivia (rule ids, descriptions) do not.
"""

from __future__ import annotations

import json
import logging
import urllib.request

import pytest

from repro.core.operators.temporal import Intersection
from repro.core.rules import AuthorizationRule, OperatorTuple
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects
from repro.api import Ltam
from repro.service import (
    DecisionCache,
    FabricRouter,
    LtamServer,
    PartitionMap,
    ServiceClient,
    engine_fingerprint,
)
from repro.service import telemetry
from repro.service.telemetry import (
    MetricsExporter,
    MetricsRegistry,
    Trace,
)

SUBJECT_COUNT = 24


def _hierarchy() -> LocationHierarchy:
    return LocationHierarchy(grid_building("B", 3, 3))


def _seeded_engine(hierarchy=None) -> Ltam:
    hierarchy = hierarchy if hierarchy is not None else _hierarchy()
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=7)
    subjects = generate_subjects(SUBJECT_COUNT)
    engine = Ltam.builder().hierarchy(hierarchy).build()
    engine.grant_all(generator.authorizations(subjects))
    return engine


def _requests(hierarchy, count=40, seed=13):
    generator = AuthorizationWorkloadGenerator(hierarchy, seed=seed)
    return generator.requests(generate_subjects(SUBJECT_COUNT), count)


# --------------------------------------------------------------------- #
# Registry units
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("hits_total") is counter  # idempotent handle
        assert registry.counter_value("hits_total") == 5
        assert registry.counter_value("absent_total") == 0

        gauge = registry.gauge("depth")
        gauge.set(12)
        assert gauge.value == 12
        calls = []
        registry.gauge("derived", fn=lambda: calls.append(1) or 42.0)
        collected = registry.collect()
        derived = [g for g in collected["gauges"] if g["name"] == "derived"]
        assert derived[0]["value"] == 42.0
        assert calls  # callback gauges are read at collect time

    def test_gauge_callback_errors_read_as_zero(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("backend gone")

        registry.gauge("flaky", fn=broken)
        collected = registry.collect()
        assert collected["gauges"][0]["value"] == 0.0

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", op="decide").inc(3)
        registry.counter("ops_total", op="observe").inc(1)
        assert registry.counter_value("ops_total", op="decide") == 3
        assert registry.counter_value("ops_total", op="observe") == 1

    def test_histogram_counts_and_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency", buckets=(0.001, 0.01, 0.1, 1.0)
        )
        for _ in range(98):
            histogram.observe(0.005)  # lands in the 0.01 bucket
        histogram.observe(0.05)
        histogram.observe(0.5)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["sum"] == pytest.approx(98 * 0.005 + 0.05 + 0.5)
        # p50 interpolates inside the (0.001, 0.01] bucket; p99 must reach
        # the (0.1, 1.0] bucket that holds the single slowest observation.
        assert 0.001 <= snapshot["p50"] <= 0.01
        assert 0.1 <= snapshot["p99"] <= 1.0
        buckets = dict(
            (str(bound), count) for bound, count in snapshot["buckets"]
        )
        assert buckets["0.01"] == 98
        assert buckets["+Inf"] == 0

    def test_histogram_overflow_lands_in_inf_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(0.1,))
        histogram.observe(5.0)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"][-1] == ["+Inf", 1]
        # +Inf-bucket quantiles report the last finite boundary, not inf.
        assert snapshot["p99"] == pytest.approx(0.1)

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", op="decide").inc(2)
        registry.gauge("repro_depth").set(3)
        histogram = registry.histogram("repro_latency_seconds", buckets=(0.01, 0.1))
        histogram.observe(0.005)
        histogram.observe(0.05)
        text = registry.render_prometheus()
        assert "# TYPE repro_ops_total counter" in text
        assert 'repro_ops_total{op="decide"} 2' in text
        assert "repro_depth 3" in text
        # Bucket counts are cumulative, Prometheus le semantics.
        assert 'repro_latency_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_latency_seconds_count 2" in text

    def test_exporter_serves_both_formats(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total").inc(7)
        exporter = MetricsExporter(registry, port=0)
        port = exporter.start()
        try:
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as response:
                text = response.read().decode("utf-8")
            assert "repro_ops_total 7" in text
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics.json"
            ) as response:
                document = json.loads(response.read().decode("utf-8"))
            assert document["counters"][0]["value"] == 7
        finally:
            exporter.stop()


# --------------------------------------------------------------------- #
# Trace plumbing
# --------------------------------------------------------------------- #
class TestTrace:
    def test_tctx_roundtrip(self):
        trace = Trace()
        restored = Trace.from_tctx(trace.tctx("abcd1234"))
        assert restored is not None
        assert restored.trace_id == trace.trace_id
        assert restored.root_parent == "abcd1234"

    @pytest.mark.parametrize(
        "bad", [None, "x", 7, [], ["only-one"], [1, 2], ["id", 3], ["a", "b", "c"]]
    )
    def test_malformed_tctx_is_none(self, bad):
        assert Trace.from_tctx(bad) is None

    def test_spans_nest_and_parent_link(self):
        trace = Trace()
        with telemetry.activated(trace):
            with telemetry.trace_span("outer") as outer:
                with telemetry.trace_span("inner", detail=1):
                    telemetry.trace_event("blip")
        spans = {item[2]: item for item in trace.spans_to_wire()}
        assert set(spans) == {"outer", "inner", "blip"}
        assert spans["outer"][1] is None
        assert spans["inner"][1] == outer.span_id
        assert spans["blip"][1] == spans["inner"][0]

    def test_no_active_trace_is_inert(self):
        assert telemetry.active_trace() is None
        with telemetry.trace_span("nothing") as span:
            span.annotate(ignored=True)
        telemetry.trace_event("nothing-either")  # must not raise


class TestPipelineTracing:
    """The PDP checks for an active trace once per decision and records
    pipeline spans only while one is active."""

    def test_traced_decide_records_evaluate_and_one_event_per_stage(self):
        engine = _seeded_engine()
        request = _requests(engine.hierarchy, count=1)[0]
        trace = Trace()
        with telemetry.activated(trace):
            decision = engine.decide(request)
        spans = trace.spans_to_wire()
        evaluate = [span for span in spans if span[2] == "pipeline.evaluate"]
        stages = [span for span in spans if span[2] == "pipeline.stage"]
        assert len(evaluate) == 1 and len(spans) == 1 + len(stages)
        assert [span[5] for span in stages] == [
            {"stage": result.stage, "outcome": result.outcome.value}
            for result in decision.trace
        ]
        assert all(span[1] == evaluate[0][0] for span in stages)

    def test_traced_decide_many_records_one_evaluate_per_request(self):
        engine = _seeded_engine()
        requests = _requests(engine.hierarchy, count=5)
        trace = Trace()
        with telemetry.activated(trace):
            decisions = engine.decide_many(requests)
        names = [span[2] for span in trace.spans_to_wire()]
        assert names.count("pipeline.evaluate") == len(requests)
        assert names.count("pipeline.stage") == sum(len(d.trace) for d in decisions)

    def test_untraced_decide_touches_no_trace_state(self, monkeypatch):
        import threading

        from repro.api import pdp

        engine = _seeded_engine()
        requests = _requests(engine.hierarchy, count=20)
        engine.decide(requests[0])  # bind the telemetry hooks

        def forbidden(*args, **kwargs):
            raise AssertionError("trace state touched without an active trace")

        monkeypatch.setattr(pdp, "_current_span_id", forbidden)
        monkeypatch.setattr(Trace, "span", forbidden)
        monkeypatch.setattr(Trace, "event", forbidden)
        outcome = {}

        def run():
            # A fresh thread starts with no trace and no span stack.
            for request in requests:
                engine.decide(request)
            engine.decide_many(requests)
            outcome["touched"] = sorted(vars(telemetry._tls))

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert outcome == {"touched": []}


# --------------------------------------------------------------------- #
# Over the wire: metrics op, span echo, slow sampling
# --------------------------------------------------------------------- #
class TestServerTelemetry:
    def test_metrics_op_reports_decides(self):
        hierarchy = _hierarchy()
        server = LtamServer(_seeded_engine(hierarchy), cache=DecisionCache())
        with server:
            with ServiceClient(*server.address) as client:
                for request in _requests(hierarchy, count=10):
                    client.decide(request)
                document = client.call("metrics")
        assert document["identity"]["role"] == "server"
        decides = [
            item
            for item in document["counters"]
            if item["name"] == "repro_ops_total" and item["labels"].get("op") == "decide"
        ]
        assert decides and decides[0]["value"] == 10
        latency = [
            item
            for item in document["histograms"]
            if item["name"] == "repro_op_latency_seconds"
            and item["labels"].get("op") == "decide"
        ]
        assert latency and latency[0]["count"] == 10
        cache_size = [
            item for item in document["gauges"] if item["name"] == "repro_cache_size"
        ]
        assert cache_size and cache_size[0]["value"] >= 1

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_spans_echoed_and_grafted(self, wire):
        hierarchy = _hierarchy()
        server = LtamServer(_seeded_engine(hierarchy), cache=DecisionCache())
        with server:
            with ServiceClient(*server.address, wire=wire) as client:
                trace = Trace()
                with telemetry.activated(trace):
                    client.decide(_requests(hierarchy, count=1)[0])
        names = [item[2] for item in trace.spans_to_wire()]
        assert "server.op" in names  # grafted from the response envelope
        assert "pipeline.evaluate" in names  # the cold decide ran the pipeline
        spans = {item[2]: item for item in trace.spans_to_wire()}
        assert spans["pipeline.evaluate"][1] == spans["server.op"][0]
        assert spans["server.op"][5]["cache"] == "miss"

    def test_no_tctx_means_no_spans_key(self):
        """The inertness contract at the frame level: a request without tctx
        gets a byte-shape-identical response even when the server samples
        every request (slow_request_ms=0)."""
        hierarchy = _hierarchy()
        server = LtamServer(
            _seeded_engine(hierarchy), cache=DecisionCache(), slow_request_ms=0.0
        )
        with server:
            with ServiceClient(*server.address) as client:
                message_id = next(client._ids)
                frame = (
                    json.dumps({"op": "health", "id": message_id}) + "\n"
                ).encode("utf-8")
                client._sock.sendall(frame)
                line = client._reader.readline()
        response = json.loads(line)
        assert "spans" not in response

    def test_slow_sampler_dumps_span_tree(self):
        hierarchy = _hierarchy()
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        logger = logging.getLogger("repro.service.requests")
        handler = Capture()
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            server = LtamServer(
                _seeded_engine(hierarchy), cache=DecisionCache(), slow_request_ms=0.0
            )
            with server:
                with ServiceClient(*server.address) as client:
                    client.decide(_requests(hierarchy, count=1)[0])
        finally:
            logger.removeHandler(handler)
        slow = [json.loads(line) for line in records if '"slow"' in line]
        assert slow, f"no slow-request line in {records!r}"
        entry = slow[0]
        assert entry["op"] == "decide"
        assert entry["threshold_ms"] == 0.0
        names = [item[2] for item in entry["spans"]]
        assert "server.op" in names and "pipeline.evaluate" in names
        assert server.metrics.counter_value("repro_slow_requests_total") >= 1


# --------------------------------------------------------------------- #
# The fabric: one connected tree across a scatter-gather
# --------------------------------------------------------------------- #
class TestFabricTracePropagation:
    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_trace_connects_router_and_both_partitions(self, wire):
        hierarchy = _hierarchy()
        servers = []
        addresses = {}
        for partition in ("east", "west"):
            engine = _seeded_engine(hierarchy)
            server = LtamServer(engine, cache=DecisionCache(), partition=partition)
            server.start()
            servers.append(server)
            addresses[partition] = "%s:%d" % server.address
        partition_map = PartitionMap(addresses)
        router = FabricRouter(partition_map, wire=wire)
        try:
            # A batch whose subjects span both partitions forces a true
            # scatter-gather (not a single-owner fast path).
            subjects = generate_subjects(SUBJECT_COUNT)
            east = [s for s in subjects if partition_map.owner(s) == "east"]
            west = [s for s in subjects if partition_map.owner(s) == "west"]
            assert east and west, "workload subjects all hash to one partition"
            location = sorted(hierarchy.primitive_names)[0]
            requests = [
                {"time": 10, "subject": east[0], "location": location},
                {"time": 10, "subject": west[0], "location": location},
            ]
            trace = Trace()
            with telemetry.activated(trace):
                decisions = router.decide_many_raw(requests, trace=False)
            assert len(decisions) == 2
        finally:
            router.close()
            for server in servers:
                server.stop()

        wire_spans = trace.spans_to_wire()
        by_id = {item[0]: item for item in wire_spans}
        by_name = {}
        for item in wire_spans:
            by_name.setdefault(item[2], []).append(item)

        fan_outs = by_name.get("router.fan_out", [])
        calls = by_name.get("router.call", [])
        # The binary wire's hello handshake is traced too when it happens
        # inside the traced region — only the decide dispatches matter here.
        server_ops = [
            item
            for item in by_name.get("server.op", [])
            if item[5].get("op") == "decide_many"
        ]
        assert len(fan_outs) == 1
        assert len(calls) == 2, f"expected one router.call per partition: {by_name}"
        assert len(server_ops) == 2, f"expected one server.op per partition: {by_name}"

        # Parent linkage: server.op -> router.call -> router.fan_out -> root.
        fan_out_id = fan_outs[0][0]
        assert fan_outs[0][1] is None
        call_ids = set()
        for call in calls:
            assert call[1] == fan_out_id
            call_ids.add(call[0])
        seen_partitions = set()
        for op_span in server_ops:
            assert op_span[1] in call_ids, (
                f"server.op parent {op_span[1]!r} is not a router.call span"
            )
            seen_partitions.add(op_span[5]["partition"])
        assert seen_partitions == {"east", "west"}
        # Every span's parent chain resolves inside this one trace.
        for item in wire_spans:
            parent = item[1]
            assert parent is None or parent in by_id or parent == fan_outs[0][1]


# --------------------------------------------------------------------- #
# Satellite: the fingerprint covers derivation rules
# --------------------------------------------------------------------- #
class TestFingerprintRules:
    def _engine_with_rule(self, operators=None, rule_id=None, description=""):
        # The base id need not resolve — rules over unknown bases are
        # skipped at derivation time, which keeps the engines comparable
        # while still exercising the fingerprint's rule canonicalization.
        engine = _seeded_engine()
        engine.add_rule(
            AuthorizationRule(
                5,
                "base-under-test",
                operators if operators is not None else OperatorTuple(),
                rule_id=rule_id,
                description=description,
            )
        )
        return engine

    def test_same_rules_same_fingerprint(self):
        assert engine_fingerprint(self._engine_with_rule()) == engine_fingerprint(
            self._engine_with_rule()
        )

    def test_rule_edit_flips_fingerprint(self):
        plain = engine_fingerprint(_seeded_engine())
        with_rule = engine_fingerprint(self._engine_with_rule())
        assert plain != with_rule
        edited = engine_fingerprint(
            self._engine_with_rule(
                operators=OperatorTuple(op_entry=Intersection((10, 30)))
            )
        )
        assert edited != with_rule

    def test_rule_instance_trivia_is_ignored(self):
        a = engine_fingerprint(
            self._engine_with_rule(rule_id="rule-x", description="first")
        )
        b = engine_fingerprint(
            self._engine_with_rule(rule_id="rule-y", description="second")
        )
        assert a == b
