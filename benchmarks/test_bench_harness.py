"""The benchmark harness itself: ``BENCH_*.json`` dumps land where asked.

``REPRO_BENCH_DIR`` may name a directory that does not exist yet (a fresh
CI artifact folder); the session-end dump must create it rather than die
with ``FileNotFoundError`` after every benchmark already ran.
"""

import importlib.util
import json
import pathlib


def _harness():
    path = pathlib.Path(__file__).with_name("conftest.py")
    spec = importlib.util.spec_from_file_location("bench_harness_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_creates_a_missing_directory(tmp_path):
    harness = _harness()
    directory = tmp_path / "not" / "there" / "yet"
    results = {"wire": {"tables": [], "metrics": {"ratio": 2.5}}}
    harness.write_bench_dumps(str(directory), results, "abc1234")
    payload = json.loads((directory / "BENCH_wire.json").read_text(encoding="utf-8"))
    assert payload["metrics"] == {"ratio": 2.5}
    assert payload["revision"] == "abc1234"
    assert payload["schema_version"] == harness.BENCH_SCHEMA_VERSION
