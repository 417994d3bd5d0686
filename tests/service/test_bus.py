"""Invalidation-bus unit behavior: seq fencing, replay, resync, reconnect."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.bus import BusLink, InvalidationBus, resolve_bus_address
from repro.service.errors import ProtocolError


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class Recorder:
    """Collects the frames a link applies, plus resync invocations."""

    def __init__(self) -> None:
        self.events = []
        self.resyncs = 0
        self.lock = threading.Lock()

    def on_events(self, origin, events):
        with self.lock:
            self.events.append((origin, events))

    def on_resync(self):
        with self.lock:
            self.resyncs += 1

    @property
    def payloads(self):
        with self.lock:
            return [event for _, batch in self.events for event in batch]


def make_link(bus, replica_id, recorder):
    return BusLink(
        bus.address,
        replica_id=replica_id,
        on_events=recorder.on_events,
        on_resync=recorder.on_resync,
        reconnect_delay=0.05,
    )


class TestAddressParsing:
    def test_accepts_tuple_string_and_bare_port(self):
        assert resolve_bus_address(("h", 9)) == ("h", 9)
        assert resolve_bus_address("example:7472") == ("example", 7472)
        assert resolve_bus_address("7472") == ("127.0.0.1", 7472)

    def test_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            resolve_bus_address("no-port-here")
        with pytest.raises(ProtocolError):
            resolve_bus_address(1234)  # type: ignore[arg-type]


class TestFanOut:
    def test_seq_stamped_fan_out_reaches_every_replica(self):
        with InvalidationBus() as bus:
            a_rec, b_rec = Recorder(), Recorder()
            link_a = make_link(bus, "a", a_rec)
            link_b = make_link(bus, "b", b_rec)
            try:
                assert wait_until(lambda: link_a.connected and link_b.connected)
                link_a.publish([{"kind": "admin", "location": "L1", "subject": None}])
                link_a.publish([{"kind": "clear"}])
                assert wait_until(lambda: len(b_rec.payloads) == 2)
                # The origin receives its own frames too (for seq tracking);
                # the coherence layer filters them by origin.
                assert wait_until(lambda: len(a_rec.payloads) == 2)
                assert b_rec.events[0][0] == "a"
                assert link_a.last_seen == link_b.last_seen == bus.seq == 2
            finally:
                link_a.close()
                link_b.close()

    def test_empty_publish_is_a_noop(self):
        with InvalidationBus() as bus:
            rec = Recorder()
            link = make_link(bus, "a", rec)
            try:
                assert wait_until(lambda: link.connected)
                assert link.publish([])
                assert bus.seq == 0
            finally:
                link.close()


class TestGapRecovery:
    def test_dropped_frame_is_replayed_from_the_hub_buffer(self):
        dropped = {("b", 2)}
        bus = InvalidationBus(drop=lambda replica, seq: (replica, seq) in dropped)
        with bus:
            a_rec, b_rec = Recorder(), Recorder()
            link_a = make_link(bus, "a", a_rec)
            link_b = make_link(bus, "b", b_rec)
            try:
                assert wait_until(lambda: link_a.connected and link_b.connected)
                for index in range(3):
                    link_a.publish([{"kind": "admin", "location": f"L{index}", "subject": None}])
                # b missed seq 2; seq 3's arrival exposes the gap and the
                # hub's buffer replays the missed range (the gap frame is
                # applied twice — eviction is idempotent).
                assert wait_until(lambda: link_b.last_seen == 3)
                assert {event["location"] for event in b_rec.payloads} == {"L0", "L1", "L2"}
                assert link_b.stats["gaps"] == 1
                assert bus.stats["replayed"] >= 1
            finally:
                link_a.close()
                link_b.close()

    def test_uncoverable_gap_forces_a_full_resync(self):
        # Buffer of 1: by the time the gap is noticed the missed frames are
        # gone, so the hub orders a full resync instead of a replay.
        drop_for_b = lambda replica, seq: replica == "b" and seq in (2, 3, 4)  # noqa: E731
        bus = InvalidationBus(replay_buffer=1, drop=drop_for_b)
        with bus:
            a_rec, b_rec = Recorder(), Recorder()
            link_a = make_link(bus, "a", a_rec)
            link_b = make_link(bus, "b", b_rec)
            try:
                assert wait_until(lambda: link_a.connected and link_b.connected)
                resyncs_before = b_rec.resyncs
                for index in range(5):
                    link_a.publish([{"kind": "admin", "location": f"L{index}", "subject": None}])
                assert wait_until(lambda: b_rec.resyncs > resyncs_before)
                assert wait_until(lambda: link_b.last_seen == 5)
                assert bus.stats["resyncs"] >= 1
            finally:
                link_a.close()
                link_b.close()


class TestReconnect:
    def test_hub_restart_triggers_reconnect_and_resync(self):
        first = InvalidationBus()
        first.start()
        host, port = first.address
        rec = Recorder()
        link = make_link(first, "a", rec)
        try:
            assert wait_until(lambda: link.connected)
            resyncs_after_connect = rec.resyncs
            assert resyncs_after_connect >= 1  # every connect recovers fully
            first.stop()
            assert wait_until(lambda: not link.connected)
            second = InvalidationBus(host=host, port=port)
            second.start()
            try:
                assert wait_until(lambda: link.connected, timeout=10)
                assert rec.resyncs > resyncs_after_connect
                assert link.stats["reconnects"] >= 1
            finally:
                second.stop()
        finally:
            link.close()

    def test_publishes_that_raced_the_outage_flow_after_reconnect(self):
        first = InvalidationBus()
        first.start()
        host, port = first.address
        a_rec, b_rec = Recorder(), Recorder()
        link_a = make_link(first, "a", a_rec)
        link_b = make_link(first, "b", b_rec)
        try:
            assert wait_until(lambda: link_a.connected and link_b.connected)
            first.stop()
            assert wait_until(lambda: not link_a.connected)
            # Published into the void: buffered client-side as unsent.
            link_a.publish([{"kind": "admin", "location": "LOST", "subject": None}])
            second = InvalidationBus(host=host, port=port)
            second.start()
            try:
                assert wait_until(
                    lambda: any(e.get("location") == "LOST" for e in b_rec.payloads),
                    timeout=10,
                )
            finally:
                second.stop()
        finally:
            link_a.close()
            link_b.close()


class TestRequestSync:
    def test_request_sync_drains_missed_frames_before_returning(self):
        dropped = {("b", 1)}
        bus = InvalidationBus(drop=lambda replica, seq: (replica, seq) in dropped)
        with bus:
            a_rec, b_rec = Recorder(), Recorder()
            link_a = make_link(bus, "a", a_rec)
            link_b = make_link(bus, "b", b_rec)
            try:
                assert wait_until(lambda: link_a.connected and link_b.connected)
                link_a.publish([{"kind": "admin", "location": "L-only", "subject": None}])
                assert wait_until(lambda: link_a.last_seen == 1)
                # b never saw the frame and has no follow-up to expose the
                # gap; the barrier must pull it out of the hub's buffer.
                assert link_b.last_seen == 0
                assert link_b.request_sync()
                assert link_b.last_seen == 1
                assert any(e.get("location") == "L-only" for e in b_rec.payloads)
            finally:
                link_a.close()
                link_b.close()

    def test_request_sync_waits_for_a_link_still_connecting(self):
        # A barrier issued before the link's first hello must not report
        # success (or failure) early: it waits for the handshake, so the
        # events published while connecting are sequenced before its pong.
        class SlowLink(BusLink):
            def _connect_and_read(self):
                time.sleep(0.3)
                return super()._connect_and_read()

        bus = InvalidationBus()
        with bus:
            a_rec, b_rec = Recorder(), Recorder()
            link_b = make_link(bus, "b", b_rec)
            link_a = SlowLink(
                bus.address,
                replica_id="a",
                on_events=a_rec.on_events,
                on_resync=a_rec.on_resync,
                reconnect_delay=0.05,
            )
            try:
                assert wait_until(lambda: link_b.connected)
                assert not link_a.connected
                link_a.publish([{"kind": "occupancy", "counts": {"HOT": 6}}])
                assert link_a.request_sync()
                assert link_b.request_sync()
                assert {"kind": "occupancy", "counts": {"HOT": 6}} in b_rec.payloads
            finally:
                link_a.close()
                link_b.close()

    def test_request_sync_reports_failure_when_down(self):
        bus = InvalidationBus()
        bus.start()
        rec = Recorder()
        link = make_link(bus, "a", rec)
        try:
            assert wait_until(lambda: link.connected)
            bus.stop()
            assert wait_until(lambda: not link.connected)
            assert link.request_sync(timeout=0.2) is False
        finally:
            link.close()


class TestBoundedBuffers:
    def test_nondurable_publishes_are_dropped_during_an_outage(self):
        bus = InvalidationBus()
        bus.start()
        rec = Recorder()
        link = make_link(bus, "a", rec)
        try:
            assert wait_until(lambda: link.connected)
            bus.stop()
            assert wait_until(lambda: not link.connected)
            assert link.publish([{"kind": "movement", "notices": []}], durable=False) is False
            assert link._unsent == []  # pickup re-derives these; never buffered
        finally:
            link.close()

    def test_unsent_buffer_collapses_to_clear_at_the_cap(self):
        bus = InvalidationBus()
        bus.start()
        rec = Recorder()
        link = make_link(bus, "a", rec)
        try:
            assert wait_until(lambda: link.connected)
            bus.stop()
            assert wait_until(lambda: not link.connected)
            for index in range(link.UNSENT_CAP + 10):
                link.publish([{"kind": "admin", "location": f"L{index}", "subject": None}])
            # Bounded memory: crossing the cap collapses the backlog into a
            # clear event (over-eviction on reconnect), with only the
            # post-collapse events queued behind it.
            assert len(link._unsent) <= link.UNSENT_CAP
            assert link._unsent[0] == [{"kind": "clear"}]
        finally:
            link.close()

    def test_sync_interval_must_be_positive_or_none(self):
        from repro.api import Ltam
        from repro.locations.multilevel import LocationHierarchy
        from repro.simulation.buildings import grid_building
        from repro.service.bus import ReplicaCoherence
        from repro.service.errors import ServiceError

        engine = Ltam(LocationHierarchy(grid_building("B", 2, 2)))
        with pytest.raises(ServiceError):
            ReplicaCoherence(engine, bus="127.0.0.1:1", sync_interval=0)
        with pytest.raises(ServiceError):
            ReplicaCoherence(engine, bus="127.0.0.1:1", sync_interval=-1.0)
