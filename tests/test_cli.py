"""Unit tests for the administrator CLI."""

import io

import pytest

from repro.cli import main
from repro.core.serialization import save_authorizations
from repro.locations.layouts import figure4_graph, ntu_campus
from repro.locations.serialization import save as save_layout
from repro.paper import fixtures as paper


@pytest.fixture
def deployment(tmp_path):
    layout_path = str(tmp_path / "campus.json")
    auths_path = str(tmp_path / "auths.json")
    save_layout(ntu_campus(), layout_path)
    save_authorizations(paper.section5_authorizations(), auths_path)
    return layout_path, auths_path


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestValidateLayout:
    def test_valid_layout(self, deployment):
        layout_path, _ = deployment
        code, output = run_cli("validate-layout", layout_path)
        assert code == 0
        assert "OK" in output
        assert "20 primitive locations" in output

    def test_missing_file(self, tmp_path):
        code, output = run_cli("validate-layout", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in output


class TestInaccessible:
    def test_figure4_example(self, tmp_path):
        layout_path = str(tmp_path / "fig4.json")
        auths_path = str(tmp_path / "table1.json")
        save_layout(figure4_graph(), layout_path)
        save_authorizations(paper.table1_authorizations(), auths_path)
        code, output = run_cli(
            "inaccessible", "--layout", layout_path, "--auths", auths_path, "--subject", "Alice"
        )
        assert code == 0
        assert "inaccessible : C" in output
        assert "A, B, D" in output


class TestCheck:
    def test_granted_request(self, deployment):
        layout_path, auths_path = deployment
        code, output = run_cli(
            "check", "--layout", layout_path, "--auths", auths_path,
            "--subject", "Alice", "--location", "CAIS", "--time", "15",
        )
        assert code == 0
        assert "GRANTED" in output

    def test_denied_request(self, deployment):
        layout_path, auths_path = deployment
        code, output = run_cli(
            "check", "--layout", layout_path, "--auths", auths_path,
            "--subject", "Bob", "--location", "CAIS", "--time", "15",
        )
        assert code == 2
        assert "DENIED" in output
        assert "no_authorization" in output


class TestQuery:
    def test_authorizations_query(self, deployment):
        layout_path, auths_path = deployment
        code, output = run_cli(
            "query", "--layout", layout_path, "--auths", auths_path, "AUTHORIZATIONS FOR Alice"
        )
        assert code == 0
        assert "CAIS" in output

    def test_malformed_query_reports_error(self, deployment):
        layout_path, auths_path = deployment
        code, output = run_cli(
            "query", "--layout", layout_path, "--auths", auths_path, "HELLO WORLD"
        )
        assert code == 1
        assert "error" in output


class TestExampleCampus:
    def test_writes_usable_files(self, tmp_path):
        layout_path = str(tmp_path / "ntu.json")
        auths_path = str(tmp_path / "auths.json")
        code, output = run_cli("example-campus", "--out", layout_path, "--auths-out", auths_path)
        assert code == 0
        # The generated files immediately work with the other commands.
        code, output = run_cli(
            "check", "--layout", layout_path, "--auths", auths_path,
            "--subject", "Alice", "--location", "CAIS", "--time", "15",
        )
        assert code == 0


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCheckpoint:
    def _seeded_db(self, tmp_path):
        from repro.storage.movement_db import (
            MovementKind,
            MovementRecord,
            SqliteMovementDatabase,
        )

        path = str(tmp_path / "deployment.db")
        database = SqliteMovementDatabase(path)
        database.record_many(
            [
                MovementRecord(index, f"user-{index % 5}", "lobby", MovementKind.ENTER)
                if index % 2 == 0
                else MovementRecord(index, f"user-{index % 5}", "lobby", MovementKind.EXIT)
                for index in range(50)
            ]
        )
        database.close()
        return path

    def test_checkpoint_compacts_the_log(self, tmp_path):
        from repro.storage.movement_db import SqliteMovementDatabase

        path = self._seeded_db(tmp_path)
        code, output = run_cli("checkpoint", "--db", path)
        assert code == 0
        assert "checkpoint @ 50" in output
        assert "50 event(s) archived" in output
        assert "live log: 50 -> 0" in output
        reopened = SqliteMovementDatabase(path)
        assert len(reopened) == 0
        assert reopened.archived_count == 50
        assert reopened.entry_count("user-0", "lobby") == 5
        reopened.close()

    def test_no_compact_leaves_the_log(self, tmp_path):
        from repro.storage.movement_db import SqliteMovementDatabase

        path = self._seeded_db(tmp_path)
        code, output = run_cli("checkpoint", "--db", path, "--no-compact")
        assert code == 0
        assert "0 event(s) archived" in output
        reopened = SqliteMovementDatabase(path)
        assert len(reopened) == 50
        assert reopened.events_since_checkpoint == 0
        reopened.close()

    def test_missing_database_path_fails_instead_of_creating_one(self, tmp_path):
        import os

        missing = str(tmp_path / "typo.db")
        code, output = run_cli("checkpoint", "--db", missing)
        assert code == 1
        assert "error" in output
        assert not os.path.exists(missing)


class TestServe:
    def _spawn(self, *argv):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )

    def test_serve_boots_and_answers(self, deployment):
        import re

        from repro.service import ServiceClient

        layout_path, auths_path = deployment
        process = self._spawn(
            "--layout", layout_path, "--auths", auths_path, "--port", "0"
        )
        try:
            banner = process.stdout.readline()
            match = re.search(
                r"serving on 127\.0\.0\.1:(\d+) \(backend=memory, cache=on, wire=binary\)",
                banner,
            )
            assert match, f"unexpected serve banner: {banner!r}"
            port = int(match.group(1))
            with ServiceClient("127.0.0.1", port) as client:
                decision = client.decide((15, "Alice", "CAIS"))
                assert decision.granted
                client.observe_entry(15, "Alice", "CAIS")
                assert client.query("ENTRIES OF Alice INTO CAIS").scalar == 1
                assert client.health()["status"] == "ok"
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_serve_parser_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--layout", "campus.json",
                "--db", "deploy.db",
                "--port", "7471",
                "--no-cache",
                "--checkpoint-every-events", "5000",
                "--retain-archived", "100000",
            ]
        )
        assert args.command == "serve"
        assert args.db == "deploy.db" and args.port == 7471
        assert args.no_cache and args.checkpoint_every_events == 5000
        assert args.retain_archived == 100000

    def test_retention_without_trigger_fails(self, deployment):
        layout_path, _ = deployment
        code, output = run_cli(
            "serve", "--layout", layout_path, "--retain-archived", "10", "--port", "0"
        )
        assert code == 1
        assert "checkpoint trigger" in output

    def test_replication_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--layout", "campus.json",
                "--db", "deploy.db",
                "--peers", "10.0.0.5:7472",
                "--replica-id", "b",
                "--sync-interval", "0.5",
            ]
        )
        assert args.peers == "10.0.0.5:7472"
        assert args.replica_id == "b" and args.sync_interval == 0.5

    def test_bus_and_peers_are_mutually_exclusive(self):
        import pytest

        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--layout", "c.json", "--db", "d.db",
                 "--bus", "7472", "--peers", "x:7472"]
            )

    def test_replication_requires_a_shared_db(self, deployment):
        """--bus/--peers without --db would be a silently-diverging fleet:
        each replica's in-memory projection has nothing pickup() can sync."""
        layout_path, auths_path = deployment
        code, output = run_cli(
            "serve", "--layout", layout_path, "--auths", auths_path,
            "--peers", "127.0.0.1:7472", "--port", "0",
        )
        assert code == 1
        assert "require --db" in output


class TestRoute:
    """The fabric commands: 'serve --partition/--map' and 'repro route'."""

    def _partition_servers(self, names=("east", "west")):
        from repro.api import Ltam
        from repro.locations.multilevel import LocationHierarchy
        from repro.paper import fixtures as paper
        from repro.service import LtamServer, PartitionMap

        servers = []
        addresses = {}
        for name in names:
            engine = Ltam.builder().hierarchy(LocationHierarchy(ntu_campus())).build()
            engine.grant_all(paper.section5_authorizations())
            server = LtamServer(engine, partition=name)
            server.start()
            servers.append(server)
            addresses[name] = "%s:%d" % server.address
        return servers, PartitionMap(addresses)

    def test_fabric_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--layout", "campus.json",
             "--partition", "east", "--map", "fabric.json"]
        )
        assert args.partition == "east" and args.map_path == "fabric.json"

        args = build_parser().parse_args(
            ["route", "--map", "fabric.json", "--port", "0",
             "--pool-size", "2", "--status"]
        )
        assert args.command == "route"
        assert args.map_path == "fabric.json" and args.pool_size == 2 and args.status

    def test_serve_rejects_a_partition_missing_from_the_map(self, deployment, tmp_path):
        from repro.service import PartitionMap

        layout_path, auths_path = deployment
        map_path = str(tmp_path / "fabric.json")
        PartitionMap({"east": "127.0.0.1:7481"}).save(map_path)
        code, output = run_cli(
            "serve", "--layout", layout_path, "--auths", auths_path,
            "--partition", "west", "--map", map_path, "--port", "0",
        )
        assert code == 1
        assert "not in the map" in output and "east" in output

    def test_route_status_reports_every_partition(self, tmp_path):
        servers, partition_map = self._partition_servers()
        map_path = str(tmp_path / "fabric.json")
        partition_map.save(map_path)
        try:
            code, output = run_cli("route", "--map", map_path, "--status")
            assert code == 0
            assert "map v1 — fabric ok" in output
            assert "east" in output and "west" in output
            assert "coverage=" in output
        finally:
            for server in servers:
                server.stop()

    def test_route_status_degrades_when_a_partition_is_down(self, tmp_path):
        servers, partition_map = self._partition_servers()
        map_path = str(tmp_path / "fabric.json")
        partition_map.save(map_path)
        servers[1].stop()  # kill "west"
        try:
            code, output = run_cli("route", "--map", map_path, "--status")
            assert code == 2
            assert "fabric degraded" in output
            assert "unreachable" in output
        finally:
            servers[0].stop()

    def test_route_boots_and_routes(self, tmp_path):
        import re
        import subprocess
        import sys
        from pathlib import Path

        from repro.service import ServiceClient

        servers, partition_map = self._partition_servers()
        map_path = str(tmp_path / "fabric.json")
        partition_map.save(map_path)
        env = dict(__import__("os").environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            (":" + env["PYTHONPATH"]) if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "route", "--map", map_path, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(
                r"serving on 127\.0\.0\.1:(\d+) \(role=router, map=v1, "
                r"wire=binary, partitions=east,west\)",
                banner,
            )
            assert match, f"unexpected route banner: {banner!r}"
            port = int(match.group(1))
            with ServiceClient("127.0.0.1", port) as client:
                decision = client.decide((15, "Alice", "CAIS"))
                assert decision.granted
                client.observe_entry(15, "Alice", "CAIS")
                assert client.query("WHERE IS Alice").scalar == "CAIS"
                report = client.health()
                assert report["role"] == "router" and report["status"] == "ok"
        finally:
            process.terminate()
            process.wait(timeout=10)
            for server in servers:
                server.stop()


def _seed_sidecar(path, subject="Alice", location="CAIS", time=15):
    from repro.api.decision import Decision
    from repro.core.requests import AccessRequest, DenialReason
    from repro.service.cache_store import TieredDecisionCache, WireFragments

    cache = TieredDecisionCache(path)
    try:
        decision = Decision.denied_by(
            AccessRequest(time, subject, location), DenialReason.NO_AUTHORIZATION
        )
        cache.put(
            subject, location, time, decision,
            payload=WireFragments(decision),
        )
    finally:
        cache.close()


class TestCacheCommand:
    def test_stats_reports_the_sidecar(self, tmp_path):
        path = str(tmp_path / "decisions.cache.db")
        _seed_sidecar(path)
        code, output = run_cli("cache", "stats", "--path", path)
        assert code == 0
        assert "1 persisted" in output
        assert "bucket=1" in output
        assert "(never warmed)" in output

    def test_purge_drops_every_row(self, tmp_path):
        path = str(tmp_path / "decisions.cache.db")
        _seed_sidecar(path)
        code, output = run_cli("cache", "purge", "--path", path)
        assert code == 0
        assert "purged 1" in output
        code, output = run_cli("cache", "stats", "--path", path)
        assert code == 0
        assert "0 persisted" in output

    def test_missing_file_fails_loudly(self, tmp_path):
        path = tmp_path / "nope.cache.db"
        code, output = run_cli("cache", "stats", "--path", str(path))
        assert code == 1
        assert "no cache sidecar" in output
        # The typo'd path must not be silently created as an empty sidecar.
        assert not path.exists()

    def test_foreign_sqlite_file_is_rejected(self, tmp_path):
        from repro.storage.movement_db import SqliteMovementDatabase

        path = str(tmp_path / "movements.db")
        SqliteMovementDatabase(path).close()
        code, output = run_cli("cache", "stats", "--path", path)
        assert code == 1
        assert "is not a cache sidecar" in output

    def test_warm_validates_in_place_and_stamps_the_fingerprint(
        self, deployment, tmp_path
    ):
        layout_path, auths_path = deployment
        path = str(tmp_path / "decisions.cache.db")
        _seed_sidecar(path)
        code, output = run_cli(
            "cache", "warm", "--path", path,
            "--layout", layout_path, "--auths", auths_path,
        )
        assert code == 0
        assert "1 examined, 1 valid, 0 dropped" in output
        code, output = run_cli("cache", "stats", "--path", path)
        assert code == 0
        assert "(never warmed)" not in output

    def test_serve_cache_parser_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--layout", "campus.json",
                "--cache-path", "decisions.cache.db",
                "--cache-spill", "50000",
                "--max-connections", "64",
                "--log-requests",
            ]
        )
        assert args.cache_path == "decisions.cache.db"
        assert args.cache_spill == 50000
        assert args.max_connections == 64 and args.log_requests

    def test_cache_path_conflicts_with_no_cache(self, deployment, tmp_path):
        layout_path, _ = deployment
        code, output = run_cli(
            "serve", "--layout", layout_path, "--no-cache",
            "--cache-path", str(tmp_path / "d.db"), "--port", "0",
        )
        assert code == 1
        assert "mutually exclusive" in output

    def test_cache_spill_needs_cache_path(self, deployment):
        layout_path, _ = deployment
        code, output = run_cli(
            "serve", "--layout", layout_path, "--cache-spill", "10", "--port", "0"
        )
        assert code == 1
        assert "--cache-spill needs --cache-path" in output
