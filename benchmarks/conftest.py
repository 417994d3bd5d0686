"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one artifact of the paper (figure, table,
worked example or claim) — see DESIGN.md's per-experiment index and
EXPERIMENTS.md for the paper-vs-measured record.  Benchmarks both *time* the
operation (pytest-benchmark) and *assert* the reproduced shape, so running
``pytest benchmarks/ --benchmark-only`` doubles as a reproduction check.

Every measured table and metric is also **dumped to disk**: each benchmark
module ``test_bench_<name>.py`` gets a ``BENCH_<name>.json`` written at the
end of the session (into ``$REPRO_BENCH_DIR``, default the invocation
directory) containing every table the module printed through the
``table_printer`` fixture plus any structured metrics it recorded through
``bench_json``.  The CI benchmark job uploads the ``BENCH_*.json`` files as
artifacts, so measured ratios are diffable across commits, not just visible
in scrollback.
"""

from __future__ import annotations

import json
import os
import subprocess
from collections import OrderedDict
from typing import Iterable, Sequence

import pytest

#: Version of the BENCH_*.json layout.  Bump when the dump's shape changes
#: (new top-level keys, renamed fields) so downstream diff tooling can tell
#: a format change from a measurement change.
BENCH_SCHEMA_VERSION = 2

#: module slug -> {"tables": [...], "metrics": {...}}, in execution order.
_RESULTS: "OrderedDict[str, dict]" = OrderedDict()


def _module_slug(request) -> str:
    name = request.node.module.__name__.rpartition(".")[2]
    for prefix in ("test_bench_", "test_"):
        if name.startswith(prefix):
            return name[len(prefix) :]
    return name


def _bucket(slug: str) -> dict:
    return _RESULTS.setdefault(slug, {"tables": [], "metrics": {}})


def print_table(title: str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a small fixed-width table (visible with ``pytest -s``)."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(c) for c in columns]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    print(f"\n--- {title} ---")
    header = "  ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))


@pytest.fixture
def table_printer(request):
    """Fixture handing benchmark tests the table printer.

    Every printed table is also recorded into the module's
    ``BENCH_<name>.json`` dump (rows stringified exactly as displayed).
    """
    slug = _module_slug(request)

    def _print_and_record(title, columns, rows):
        rows = [[str(cell) for cell in row] for row in rows]
        _bucket(slug)["tables"].append(
            {
                "test": request.node.name,
                "title": title,
                "columns": [str(column) for column in columns],
                "rows": rows,
            }
        )
        print_table(title, columns, rows)

    return _print_and_record


@pytest.fixture
def bench_json(request):
    """Record structured (machine-readable) metrics into ``BENCH_<name>.json``.

    ``bench_json(key=value, ...)`` merges the keyword pairs into the
    module's ``metrics`` object — use it for the raw numbers behind the
    printed table (throughputs, ratios, floors) so downstream tooling does
    not have to parse display strings.
    """
    slug = _module_slug(request)

    def _record(**metrics):
        _bucket(slug)["metrics"].update(metrics)

    return _record


def _git_describe() -> str:
    """The commit the numbers were measured at, or ``"unknown"``.

    ``--always`` falls back to a bare abbreviated hash when no tag exists;
    ``--dirty`` flags measurements taken on uncommitted changes.
    """
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_bench_dumps(directory: str, results: "dict[str, dict]", revision: str) -> None:
    """Write one ``BENCH_<slug>.json`` per module into *directory*.

    The directory is created (with any missing parents) if it does not
    exist yet.
    """
    if results:
        os.makedirs(directory, exist_ok=True)
    for slug, payload in results.items():
        payload["schema_version"] = BENCH_SCHEMA_VERSION
        payload["revision"] = revision
        path = os.path.join(directory, f"BENCH_{slug}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


def pytest_sessionfinish(session, exitstatus):
    directory = os.environ.get("REPRO_BENCH_DIR") or os.getcwd()
    write_bench_dumps(directory, _RESULTS, _git_describe())
