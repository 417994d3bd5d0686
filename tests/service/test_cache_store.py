"""The durable cache tier: sidecar store, spill/promote, warm restart.

Three layers of proof:

* unit tests of :class:`CacheStore` (the SQLite sidecar) and of the
  :class:`TieredDecisionCache` tier mechanics — write-through, demotion,
  promotion, the tombstone invariant on every invalidation path (bus-driven
  included), single-flight on concurrent identical misses;
* warm-restart tests — survivors re-admitted, foreign writes / config
  drift / bucket-geometry changes dropped;
* a hypothesis property: **no persisted entry is ever served after an
  invalidating sequence**, for arbitrary interleavings of observes, grants,
  revokes, capacity changes, foreign-write pickups and kill/restart — the
  cached engine must stay decision-for-decision identical to an uncached
  oracle replaying the same script.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Ltam, grant
from repro.api.decision import Decision
from repro.core.requests import AccessRequest, DenialReason
from repro.locations.multilevel import LocationHierarchy
from repro.service import InvalidationBus, LtamServer, ServiceClient
from repro.service.cache import DEFAULT_ACTION, DecisionCache
from repro.service.cache_store import (
    CacheStore,
    TieredDecisionCache,
    WireFragments,
    engine_fingerprint,
)
from repro.service.errors import ServiceError
from repro.service.protocol import decision_to_dict
from repro.simulation.buildings import grid_building
from repro.storage.movement_db import (
    InMemoryMovementDatabase,
    MovementKind,
    MovementRecord,
    SqliteMovementDatabase,
)


def _decision(time=15, subject="Alice", location="CAIS"):
    return Decision.denied_by(
        AccessRequest(time, subject, location), DenialReason.NO_AUTHORIZATION
    )


def _fragments(decision) -> WireFragments:
    return WireFragments(decision_to_dict(decision))


def _key(subject, location, time, bucket=1):
    return (subject, location, DEFAULT_ACTION, time // bucket)


def _put(cache, subject, location, time, decision=None):
    decision = decision if decision is not None else _decision(time, subject, location)
    return cache.put(
        subject, location, time, decision, payload=_fragments(decision)
    )


def wait_until(predicate, timeout=5.0, interval=0.01):
    import time as _time

    deadline = _time.monotonic() + timeout
    while _time.monotonic() < deadline:
        if predicate():
            return True
        _time.sleep(interval)
    return predicate()


# --------------------------------------------------------------------- #
# CacheStore (the sidecar file)
# --------------------------------------------------------------------- #
class TestCacheStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = CacheStore(str(tmp_path / "c.db"))
        key = _key("Alice", "CAIS", 15)
        store.put(
            key,
            position=7,
            generation=(1, 3),
            json_full='{"granted":false}',
            json_elided='{"granted":false}',
            bin_full=b"\x01\x02",
            bin_elided=b"\x03",
        )
        row = store.get(key)
        assert row == (7, 1, 3, '{"granted":false}', '{"granted":false}', b"\x01\x02", b"\x03")
        assert store.get(_key("Bob", "CAIS", 15)) is None
        assert store.count() == 1
        store.close()

    def test_fill_binary_only_backfills_null(self, tmp_path):
        store = CacheStore(str(tmp_path / "c.db"))
        key = _key("A", "L", 1)
        store.put(key, position=0, generation=None, json_full="{}", json_elided="{}")
        store.fill_binary(key, b"full", b"elided")
        assert store.get(key)[5:] == (b"full", b"elided")
        store.fill_binary(key, b"other", b"other")  # already filled: no-op
        assert store.get(key)[5:] == (b"full", b"elided")
        store.close()

    def test_scoped_deletes(self, tmp_path):
        store = CacheStore(str(tmp_path / "c.db"))
        for subject, location in (("A", "L1"), ("A", "L2"), ("B", "L1"), ("B", "L2")):
            store.put(
                _key(subject, location, 1),
                position=0, generation=None, json_full="{}", json_elided="{}",
            )
        assert store.delete_pair("A", "L1") == 1
        assert store.delete_location("L2") == 2
        assert store.delete_subject("B") == 1
        assert store.count() == 0
        store.close()

    def test_trim_drops_oldest_written(self, tmp_path):
        store = CacheStore(str(tmp_path / "c.db"))
        for index in range(5):
            store.put(
                _key(f"s{index}", "L", 1),
                position=index, generation=None, json_full="{}", json_elided="{}",
            )
        assert store.trim(3) == 2
        assert store.get(_key("s0", "L", 1)) is None
        assert store.get(_key("s1", "L", 1)) is None
        assert store.get(_key("s4", "L", 1)) is not None
        assert store.trim(3) == 0
        store.close()

    def test_meta_upsert_and_peek(self, tmp_path):
        path = str(tmp_path / "c.db")
        store = CacheStore(path)
        store.set_meta("fingerprint", "aaa")
        store.set_meta("fingerprint", "bbb")
        assert store.get_meta("fingerprint") == "bbb"
        store.put(
            _key("A", "L", 1), position=9, generation=None, json_full="{}", json_elided="{}"
        )
        store.close()
        report = CacheStore.peek(path)
        assert report["entries"] == 1
        assert report["meta"]["fingerprint"] == "bbb"
        assert report["min_position"] == report["max_position"] == 9

    def test_peek_rejects_non_sidecar(self, tmp_path):
        alien = tmp_path / "movements.db"
        db = SqliteMovementDatabase(str(alien))
        db.close()
        assert CacheStore.peek(str(alien)) == {}

    def test_bucket_mismatch_purges(self, tmp_path):
        path = str(tmp_path / "c.db")
        store = CacheStore(path, bucket=1)
        store.put(
            _key("A", "L", 1), position=0, generation=None, json_full="{}", json_elided="{}"
        )
        store.close()
        # Same geometry: entries survive a reopen.
        store = CacheStore(path, bucket=1)
        assert store.count() == 1
        store.close()
        # Different bucket width: the persisted keys mean something else.
        store = CacheStore(path, bucket=10)
        assert store.count() == 0
        assert store.get_meta("bucket") == "10"
        store.close()

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ServiceError):
            CacheStore(str(tmp_path / "c.db"), bucket=0)
        with pytest.raises(ServiceError):
            TieredDecisionCache(str(tmp_path / "t.db"), spill=0)


# --------------------------------------------------------------------- #
# TieredDecisionCache: write-through, demote, promote, tombstone
# --------------------------------------------------------------------- #
class TestTiering:
    def test_put_writes_through(self, tmp_path):
        cache = TieredDecisionCache(str(tmp_path / "c.db"))
        _put(cache, "Alice", "CAIS", 15)
        row = cache.sidecar.get(_key("Alice", "CAIS", 15))
        assert row is not None
        assert '"granted"' in row[3]
        cache.close()

    def test_eviction_demotes_and_hit_promotes(self, tmp_path):
        cache = TieredDecisionCache(str(tmp_path / "c.db"), maxsize=2)
        _put(cache, "a", "L", 1)
        _put(cache, "b", "L", 2)
        _put(cache, "c", "L", 3)  # evicts "a" from RAM — but not from disk
        assert len(cache) == 2
        assert cache.sidecar.count() == 3
        entry = cache.get("a", "L", 1)  # promoted back
        assert entry is not None
        assert isinstance(entry.payload, WireFragments)
        stats = cache.stats
        assert stats["spilled"] == 2  # "a" demoted, then "b" when "a" returned
        assert stats["disk_hits"] == 1 and stats["promoted"] == 1
        assert stats["hits"] == 1  # a disk hit is a hit, not a miss
        cache.close()

    def test_promotion_serves_the_persisted_fragments_verbatim(self, tmp_path):
        cache = TieredDecisionCache(str(tmp_path / "c.db"), maxsize=1)
        decision = _decision(1, "a", "L")
        fragments = _fragments(decision)
        fragments.binary(decision, include_trace=True)  # compute binary forms
        cache.put("a", "L", 1, decision, payload=fragments)
        _put(cache, "b", "L", 2)  # demote "a" (binary backfilled on demotion)
        entry = cache.get("a", "L", 1)
        assert entry.payload.json_full == fragments.json_full
        assert entry.payload.json_elided == fragments.json_elided
        assert entry.payload.bin_full == fragments.bin_full
        assert entry.payload.bin_elided == fragments.bin_elided
        cache.close()

    def test_promoted_entry_attaches_the_current_generation(self, tmp_path):
        cache = TieredDecisionCache(str(tmp_path / "c.db"), maxsize=1)
        _put(cache, "a", "L", 1)
        _put(cache, "b", "OTHER", 2)  # demote "a"
        entry = cache.get("a", "L", 1)
        token = cache.generation("L")
        assert entry.generation == token

    def test_spill_cap_trims_oldest(self, tmp_path):
        cache = TieredDecisionCache(str(tmp_path / "c.db"), maxsize=2, spill=3)
        for index in range(5):
            _put(cache, f"s{index}", "L", index)
        assert cache.sidecar.count() == 3
        assert cache.stats["spill_trimmed"] == 2
        assert cache.sidecar.get(_key("s0", "L", 0)) is None
        cache.close()

    @pytest.mark.parametrize(
        "invalidate",
        [
            lambda cache: cache.invalidate_location("CAIS"),
            lambda cache: cache.invalidate_pair("Alice", "CAIS"),
            lambda cache: cache.invalidate_subject("Alice"),
            lambda cache: cache.clear(),
        ],
        ids=["location", "pair", "subject", "clear"],
    )
    def test_every_invalidation_path_tombstones_disk(self, tmp_path, invalidate):
        cache = TieredDecisionCache(str(tmp_path / "c.db"), maxsize=1)
        _put(cache, "Alice", "CAIS", 15)
        _put(cache, "Bob", "Lab", 3)  # demotes Alice's row to disk-only
        assert cache.sidecar.get(_key("Alice", "CAIS", 15)) is not None
        invalidate(cache)
        # The RAM tier never held the entry anymore — only the tombstone
        # proves the invalidation reached the disk tier.
        assert cache.sidecar.get(_key("Alice", "CAIS", 15)) is None
        assert cache.get("Alice", "CAIS", 15) is None
        assert cache.stats["tombstoned"] >= 1
        cache.close()

    def test_movement_notices_tombstone_disk(self, tmp_path):
        cache = TieredDecisionCache(str(tmp_path / "c.db"), maxsize=1)
        db = InMemoryMovementDatabase()
        cache.connect(db)
        _put(cache, "Alice", "CAIS", 15)
        _put(cache, "Bob", "Lab", 3)  # demote Alice
        db.record_entry(16, "Carol", "CAIS")
        assert cache.sidecar.get(_key("Alice", "CAIS", 15)) is None
        assert cache.get("Alice", "CAIS", 15) is None  # no promotion either
        cache.close()

    def test_corrupt_row_is_a_miss_not_a_crash(self, tmp_path):
        cache = TieredDecisionCache(str(tmp_path / "c.db"), maxsize=1)
        key = _key("x", "L", 1)
        cache.sidecar.put(
            key, position=0, generation=None, json_full="not json", json_elided="{}"
        )
        assert cache.get("x", "L", 1) is None
        assert cache.sidecar.get(key) is None  # the bad row was dropped
        cache.close()


class TestBusDrivenTombstones:
    def test_remote_movement_tombstones_the_replica_sidecar(self, tmp_path):
        """A foreign replica's observe must tombstone this replica's disk
        rows — the bus eviction goes through CoherentDecisionCache into the
        tiered hooks."""
        shared = str(tmp_path / "shared.db")
        hierarchy = LocationHierarchy(grid_building("B", 2, 2))
        engine_a = (
            Ltam.builder().hierarchy(hierarchy).backend("sqlite", shared).build()
        )
        engine_a.grant(grant("alice").at("B.R0C0").during(0, 10_000).entries(500))
        bus = InvalidationBus()
        server_a = LtamServer(
            engine_a, cache=DecisionCache(), bus=bus, replica_id="ts-a"
        )
        server_a.start()
        engine_b = (
            Ltam.builder().hierarchy(hierarchy).backend("sqlite", shared).build()
        )
        cache_b = TieredDecisionCache(str(tmp_path / "b.cache.db"), maxsize=1)
        server_b = LtamServer(
            engine_b, cache=cache_b, bus=bus.address, replica_id="ts-b"
        )
        server_b.start()
        try:
            with ServiceClient(*server_b.address) as reader:
                reader.decide((5, "alice", "B.R0C0"))
                reader.decide((5, "alice", "B.R0C1"))  # demotes the R0C0 row
                key = _key("alice", "B.R0C0", 5)
                assert cache_b.sidecar.get(key) is not None
                with ServiceClient(*server_a.address) as writer:
                    writer.observe_entry(6, "alice", "B.R0C0")
                assert wait_until(lambda: cache_b.sidecar.get(key) is None), (
                    "bus-driven eviction did not tombstone the disk row"
                )
                reader.sync()
                decision = reader.decide((7, "alice", "B.R0C0"))
                assert decision.entries_used == 1  # fresh state, not the spill
        finally:
            server_b.stop()
            server_a.stop()
            cache_b.close()


# --------------------------------------------------------------------- #
# Warm restart
# --------------------------------------------------------------------- #
class TestWarmRestart:
    def _db(self, tmp_path):
        return SqliteMovementDatabase(str(tmp_path / "movements.db"))

    def test_survivors_are_readmitted(self, tmp_path):
        path = str(tmp_path / "c.db")
        db = self._db(tmp_path)
        cache = TieredDecisionCache(path)
        cache.connect(db)
        _put(cache, "Alice", "CAIS", 15)
        _put(cache, "Bob", "Lab", 3)
        cache.close()

        warmed = TieredDecisionCache(path)
        report = warmed.warm(db)
        assert report == {
            "examined": 2, "readmitted": 2, "dropped": 0, "retained_on_disk": 0
        }
        assert warmed.get("Alice", "CAIS", 15) is not None
        assert warmed.get("Bob", "Lab", 3) is not None
        assert warmed.stats["readmitted"] == 2
        warmed.close()
        db.close()

    def test_foreign_write_while_down_drops_only_touched_locations(self, tmp_path):
        path = str(tmp_path / "c.db")
        db = self._db(tmp_path)
        cache = TieredDecisionCache(path)
        cache.connect(db)
        _put(cache, "Alice", "CAIS", 15)
        _put(cache, "Bob", "Lab", 3)
        cache.close()
        # While "down": a foreign writer lands a movement touching CAIS.
        db.record(MovementRecord(20, "Carol", "CAIS", MovementKind.ENTER))

        warmed = TieredDecisionCache(path)
        report = warmed.warm(db)
        assert report["readmitted"] == 1 and report["dropped"] == 1
        assert warmed.get("Alice", "CAIS", 15) is None  # invalidated while down
        assert warmed.get("Bob", "Lab", 3) is not None
        assert warmed.sidecar.get(_key("Alice", "CAIS", 15)) is None  # tombstoned
        warmed.close()
        db.close()

    def test_fingerprint_mismatch_purges_wholesale(self, tmp_path):
        path = str(tmp_path / "c.db")
        db = self._db(tmp_path)
        cache = TieredDecisionCache(path)
        cache.connect(db)
        _put(cache, "Alice", "CAIS", 15)
        cache.warm(db, fingerprint="config-v1")  # stamps the print
        cache.close()

        warmed = TieredDecisionCache(path)
        report = warmed.warm(db, fingerprint="config-v2")
        assert report["readmitted"] == 0 and report["dropped"] == 1
        assert warmed.sidecar.count() == 0
        warmed.close()
        db.close()

    def test_position_beyond_high_water_is_dropped(self, tmp_path):
        # The movement file was reset while the cache survived: rows claim
        # positions the log never reached, and must not be trusted.
        path = str(tmp_path / "c.db")
        cache = TieredDecisionCache(path)
        cache.sidecar.put(
            _key("Alice", "CAIS", 15),
            position=99, generation=None, json_full="{}", json_elided="{}",
        )
        db = self._db(tmp_path)  # fresh: high_water == 0
        report = cache.warm(db)
        assert report["dropped"] == 1 and report["readmitted"] == 0
        cache.close()
        db.close()

    def test_warm_without_a_movement_db_purges(self, tmp_path):
        path = str(tmp_path / "c.db")
        cache = TieredDecisionCache(path)
        _put(cache, "Alice", "CAIS", 15)
        cache.close()
        warmed = TieredDecisionCache(path)
        report = warmed.warm()  # never connected: nothing to validate against
        assert report["dropped"] == 1
        assert warmed.sidecar.count() == 0
        warmed.close()

    def test_excess_survivors_stay_spilled(self, tmp_path):
        path = str(tmp_path / "c.db")
        db = self._db(tmp_path)
        cache = TieredDecisionCache(path)
        cache.connect(db)
        for index in range(5):
            _put(cache, f"s{index}", "L", index)
        cache.close()

        warmed = TieredDecisionCache(path, maxsize=2)
        report = warmed.warm(db)
        assert report["readmitted"] == 2 and report["retained_on_disk"] == 3
        assert len(warmed) == 2
        assert warmed.sidecar.count() == 5
        # The newest rows won RAM; the older ones still promote on demand.
        assert warmed.get("s4", "L", 4) is not None
        assert warmed.stats["disk_hits"] == 0  # that was a RAM hit
        assert warmed.get("s0", "L", 0) is not None
        assert warmed.stats["disk_hits"] == 1
        warmed.close()
        db.close()

    def test_archive_pruned_while_down_refuses_and_purges(self, tmp_path):
        path = str(tmp_path / "c.db")
        db = self._db(tmp_path)
        for index in range(3):
            db.record(MovementRecord(index + 1, "x", "Lab", MovementKind.ENTER))
        cache = TieredDecisionCache(path)
        cache.connect(db)
        _put(cache, "Alice", "CAIS", 15)  # stored at position 3
        cache.close()
        # While down: more movements land (none naming CAIS — with an intact
        # log the row would survive), then a checkpoint + retention prune
        # destroys the history needed to PROVE none touched CAIS.  The warm
        # pass must refuse to guess and purge.
        for index in range(3):
            db.record(MovementRecord(index + 10, "x", "Lab", MovementKind.ENTER))
        db.checkpoint(compact=True)
        db.prune_archive(0)
        assert db.touch_marks_since(3) is None  # reconstruction refused

        warmed = TieredDecisionCache(path)
        report = warmed.warm(db)
        assert report["readmitted"] == 0 and report["dropped"] == 1
        warmed.close()
        db.close()


# --------------------------------------------------------------------- #
# Cached wire fragments
# --------------------------------------------------------------------- #
class TestWireFragments:
    def test_binary_decide_miss_encodes_the_decision_once(self, monkeypatch):
        import repro.service.cache_store as cache_store_module
        import repro.service.server as server_module

        calls = []

        def counting(decision, *args, **kwargs):
            calls.append(decision)
            return decision_to_dict(decision, *args, **kwargs)

        monkeypatch.setattr(server_module, "decision_to_dict", counting)
        monkeypatch.setattr(cache_store_module, "decision_to_dict", counting)
        hierarchy = LocationHierarchy(grid_building("B", 2, 2))
        engine = Ltam(hierarchy)
        engine.grant(grant("alice").at("B.R0C0").during(0, 100).entries(5))
        server = LtamServer(engine, cache=DecisionCache())
        server.start()
        try:
            with ServiceClient(*server.address, wire="binary") as client:
                assert client.wire == "binary"
                for time in (10, 11, 12):
                    assert client.decide((time, "alice", "B.R0C0")).granted
                assert len(calls) == 3  # one encode per miss
                # A hit serves the stored bytes: no encode at all.
                client.decide((10, "alice", "B.R0C0"), trace=True)
                assert len(calls) == 3
        finally:
            server.stop()


# --------------------------------------------------------------------- #
# Single-flight
# --------------------------------------------------------------------- #
class TestSingleFlight:
    def test_leader_and_follower_roles(self):
        cache = DecisionCache()
        leader = cache.flight("Alice", "CAIS", 15)
        assert leader.leader
        follower = cache.flight("Alice", "CAIS", 15)
        assert not follower.leader
        assert follower._event is leader._event  # joined the same flight
        other = cache.flight("Bob", "CAIS", 15)
        assert other.leader  # distinct key: its own flight
        leader.done()
        relaunched = cache.flight("Alice", "CAIS", 15)
        assert relaunched.leader  # the finished flight left the registry

    def test_follower_is_served_the_leaders_store(self):
        hierarchy = LocationHierarchy(grid_building("B", 2, 2))
        engine = Ltam(hierarchy)
        engine.grant(grant("alice").at("B.R0C0").during(0, 100).entries(5))
        cache = engine.attach_decision_cache()
        # Claim the flight, as a leader mid-evaluation would.
        flight = cache.flight("alice", "B.R0C0", 10)
        assert flight.leader

        results = []
        follower = threading.Thread(
            target=lambda: results.append(engine.decide((10, "alice", "B.R0C0")))
        )
        follower.start()
        assert wait_until(lambda: cache.stats["flights_joined"] == 1)
        # The "leader" finishes: plant a sentinel decision and release the
        # flight.  The sentinel is a denial the pipeline would never produce
        # for this granted subject — identity AND content prove the follower
        # was served the store instead of evaluating.
        planted = _decision(10, "alice", "B.R0C0")
        cache.put("alice", "B.R0C0", 10, planted)
        flight.done()
        follower.join(timeout=5)
        assert not follower.is_alive()
        assert results and results[0] is planted  # served, not re-evaluated

    def test_follower_evaluates_when_leader_stored_nothing(self):
        hierarchy = LocationHierarchy(grid_building("B", 2, 2))
        engine = Ltam(hierarchy)
        engine.grant(grant("alice").at("B.R0C0").during(0, 100).entries(5))
        cache = engine.attach_decision_cache()
        flight = cache.flight("alice", "B.R0C0", 10)

        results = []
        follower = threading.Thread(
            target=lambda: results.append(engine.decide((10, "alice", "B.R0C0")))
        )
        follower.start()
        assert wait_until(lambda: cache.stats["flights_joined"] == 1)
        flight.done()  # leader "failed": no store happened
        follower.join(timeout=5)
        assert not follower.is_alive()
        assert results and results[0].granted  # fell back to evaluating itself
        assert cache.stats["stores"] == 1


# --------------------------------------------------------------------- #
# The staleness property (hypothesis)
# --------------------------------------------------------------------- #
LOCATIONS = ("B.R0C0", "B.R0C1", "B.R1C0")
SUBJECTS = ("alice", "bob")

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.sampled_from(SUBJECTS),
            st.sampled_from(LOCATIONS),
            st.sampled_from(["enter", "exit"]),
        ),
        st.tuples(st.just("grant"), st.sampled_from(SUBJECTS), st.sampled_from(LOCATIONS)),
        st.tuples(st.just("revoke"), st.sampled_from(SUBJECTS), st.sampled_from(LOCATIONS)),
        st.tuples(
            st.just("set_capacity"), st.sampled_from(LOCATIONS), st.integers(1, 2)
        ),
        st.tuples(
            st.just("foreign"),
            st.sampled_from(SUBJECTS),
            st.sampled_from(LOCATIONS),
        ),
        st.tuples(st.just("restart")),
        st.tuples(
            st.just("decide"), st.sampled_from(SUBJECTS), st.sampled_from(LOCATIONS)
        ),
    ),
    min_size=4,
    max_size=14,
)


class _CachedDeployment:
    """The system under test: a durable-cached engine over SQLite files,
    killed and rebooted on demand (same movement file, same cache file)."""

    def __init__(self, tmp_path):
        self._db_path = str(tmp_path / "prop-movements.db")
        self._cache_path = str(tmp_path / "prop-cache.db")
        self._hierarchy = LocationHierarchy(grid_building("B", 2, 2))
        self._auth_ids = {}
        self._boot()

    def _boot(self):
        self.engine = (
            Ltam.builder()
            .hierarchy(self._hierarchy)
            .backend("sqlite", self._db_path)
            .build()
        )
        self.cache = TieredDecisionCache(self._cache_path)
        self.engine.attach_decision_cache(self.cache)  # connects invalidation
        self.cache.warm(
            self.engine.movement_db, fingerprint=engine_fingerprint(self.engine)
        )
        # Rebuild the id map from the reloaded database (ids persist).
        self._auth_ids = {
            (a.subject, a.location): a.auth_id
            for a in self.engine.authorization_db.all()
        }

    def restart(self):
        self.cache.close()
        self._boot()

    def foreign_write(self, record):
        # A second handle on the same file writes behind the engine's back;
        # pickup() folds it in and fires the invalidation notices.
        other = SqliteMovementDatabase(self._db_path)
        try:
            other.record(record)
        finally:
            other.close()
        self.engine.movement_db.pickup()

    def close(self):
        self.cache.close()


@settings(max_examples=25, deadline=None)
@given(ops=_ops, data=st.data())
def test_no_persisted_entry_survives_an_invalidating_sequence(tmp_path_factory, ops, data):
    """Differential staleness check: the durable-cached engine must agree
    with an uncached in-memory oracle after EVERY operation, no matter how
    observes, admin mutations, foreign writes and kill/restarts interleave.
    A stale served-from-disk decision is exactly a disagreement."""
    tmp_path = tmp_path_factory.mktemp("prop")
    hierarchy = LocationHierarchy(grid_building("B", 2, 2))
    oracle = Ltam(hierarchy)  # in-memory, uncached, never restarted
    sut = _CachedDeployment(tmp_path)
    clock = 0
    try:
        for op in ops:
            clock += 1
            kind = op[0]
            if kind == "observe":
                _, subject, location, direction = op
                record = MovementRecord(
                    clock,
                    subject,
                    location,
                    MovementKind.ENTER if direction == "enter" else MovementKind.EXIT,
                )
                # record (not observe): identical semantics on both sides
                # without monitor alert side-channels.
                oracle.movement_db.record(record)
                sut.engine.movement_db.record(record)
            elif kind == "grant":
                _, subject, location = op
                if (subject, location) in sut._auth_ids:
                    continue  # one auth per pair keeps revoke deterministic
                built = grant(subject).at(location).during(0, 10_000).entries(3).build()
                stored = sut.engine.grant(built)
                sut._auth_ids[(subject, location)] = stored.auth_id
                oracle.grant(
                    grant(subject).at(location).during(0, 10_000).entries(3)
                )
            elif kind == "revoke":
                _, subject, location = op
                auth_id = sut._auth_ids.pop((subject, location), None)
                if auth_id is None:
                    continue
                sut.engine.revoke(auth_id)
                oracle_id = next(
                    a.auth_id
                    for a in oracle.authorization_db.all()
                    if a.subject == subject and a.location == location
                )
                oracle.revoke(oracle_id)
            elif kind == "set_capacity":
                _, location, limit = op
                sut.engine.set_capacity(location, limit)
                oracle.set_capacity(location, limit)
            elif kind == "foreign":
                _, subject, location = op
                record = MovementRecord(clock, subject, location, MovementKind.ENTER)
                oracle.movement_db.record(record)
                sut.foreign_write(record)
            elif kind == "restart":
                sut.restart()
            elif kind == "decide":
                _, subject, location = op
                got = sut.engine.decide((clock, subject, location))
                want = oracle.decide((clock, subject, location))
                assert (got.granted, got.reason, got.entries_used) == (
                    want.granted,
                    want.reason,
                    want.entries_used,
                ), f"stale decision after {ops!r} at {op!r}"
        # Final sweep: every (subject, location) must agree — this catches a
        # stale persisted row even if the random script never re-decided it.
        clock += 1
        for subject in SUBJECTS:
            for location in LOCATIONS:
                got = sut.engine.decide((clock, subject, location))
                want = oracle.decide((clock, subject, location))
                assert (got.granted, got.reason, got.entries_used) == (
                    want.granted,
                    want.reason,
                    want.entries_used,
                ), f"stale decision in final sweep at {(subject, location)}"
    finally:
        sut.close()


@settings(max_examples=25, deadline=None)
@given(
    bucket=st.integers(min_value=2, max_value=10),
    t1=st.integers(min_value=0, max_value=100),
    t2=st.integers(min_value=0, max_value=100),
)
def test_bucket_boundary_entries_never_resurrect_across_buckets(
    tmp_path_factory, bucket, t1, t2
):
    """An entry cached at one time bucket must never be served — from RAM,
    from disk, or across a warm restart — for a time in another bucket."""
    tmp_path = tmp_path_factory.mktemp("bucket")
    path = str(tmp_path / "c.db")
    db = SqliteMovementDatabase(str(tmp_path / "m.db"))
    cache = TieredDecisionCache(path, bucket=bucket)
    cache.connect(db)
    decision = _decision(t1, "Alice", "CAIS")
    cache.put("Alice", "CAIS", t1, decision, payload=_fragments(decision))
    same_bucket = (t1 // bucket) == (t2 // bucket)
    assert (cache.get("Alice", "CAIS", t2) is not None) == same_bucket
    cache.close()

    warmed = TieredDecisionCache(path, bucket=bucket)
    warmed.warm(db)
    assert (warmed.get("Alice", "CAIS", t2) is not None) == same_bucket
    warmed.close()
    db.close()


class TestLruSpill:
    """v2 recency: trim drops the least-recently-*used* row, not the
    least-recently-written one (the v1 rowid order evicted just-promoted
    hot rows while stale cold ones survived)."""

    def test_a_read_rescues_a_row_from_trim(self, tmp_path):
        store = CacheStore(str(tmp_path / "c.db"))
        for index in range(5):
            store.put(
                _key(f"s{index}", "L", 1),
                position=index, generation=None, json_full="{}", json_elided="{}",
            )
        assert store.get(_key("s0", "L", 1)) is not None  # refreshes recency
        assert store.trim(3) == 2  # drops s1 and s2, the least recently used
        assert store.get(_key("s0", "L", 1)) is not None
        assert store.get(_key("s1", "L", 1)) is None
        assert store.get(_key("s2", "L", 1)) is None
        store.close()

    def test_recency_survives_a_reopen(self, tmp_path):
        path = str(tmp_path / "c.db")
        store = CacheStore(path)
        for index in range(3):
            store.put(
                _key(f"s{index}", "L", 1),
                position=index, generation=None, json_full="{}", json_elided="{}",
            )
        assert store.get(_key("s0", "L", 1)) is not None
        store.close()
        # The access clock reseeds past every persisted stamp: new activity
        # is newer than everything that came before the restart.
        store = CacheStore(path)
        store.put(
            _key("s3", "L", 1),
            position=3, generation=None, json_full="{}", json_elided="{}",
        )
        assert store.trim(2) == 2  # drops s1 and s2; keeps read-s0 and new-s3
        assert store.get(_key("s0", "L", 1)) is not None
        assert store.get(_key("s3", "L", 1)) is not None
        store.close()

    def test_just_promoted_row_survives_a_trim(self, tmp_path):
        cache = TieredDecisionCache(str(tmp_path / "c.db"), maxsize=2)
        _put(cache, "a", "L", 1)
        _put(cache, "b", "L", 2)
        _put(cache, "c", "L", 3)  # "a" demoted to disk-only
        assert cache.get("a", "L", 1) is not None  # disk hit -> promotion
        # "a" owns the oldest rowid in the file: the v1 insertion-order trim
        # would evict exactly the row that was just proven hot.
        assert cache.sidecar.trim(2) == 1
        assert cache.sidecar.get(_key("a", "L", 1)) is not None
        assert cache.sidecar.get(_key("c", "L", 3)) is None
        cache.close()

    def test_v1_sidecar_is_migrated_then_purged(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "c.db")
        store = CacheStore(path)
        store.put(
            _key("A", "L", 1), position=0, generation=None, json_full="{}", json_elided="{}"
        )
        store.close()
        # Forge a v1 file: no last_access column, format_version 1.
        raw = sqlite3.connect(path)
        raw.execute("UPDATE cache_meta SET value = '1' WHERE key = 'format_version'")
        raw.execute("DROP INDEX IF EXISTS idx_cache_access")
        raw.execute("ALTER TABLE cache_entries DROP COLUMN last_access")
        raw.commit()
        raw.close()
        store = CacheStore(path)  # must not crash on the missing column
        assert store.count() == 0  # a foreign format never resurrects entries
        assert store.get_meta("format_version") == "2"
        store.put(
            _key("B", "L", 2), position=1, generation=None, json_full="{}", json_elided="{}"
        )
        assert store.get(_key("B", "L", 2)) is not None
        assert store.trim(0) == 1  # the migrated schema trims cleanly
        store.close()
