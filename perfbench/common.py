"""Shared pieces of the decision benchmark.

* host calibration: a fixed pure-Python reference loop timed between
  measurement rounds, and the scaling of each round's timings by it;
* seeded inputs: hierarchy, grants, movement history, request streams and
  the movement feed, identical in the load generator and in child processes;
* the span recorder used by the traced run, with self-time accounting;
* the correctness oracle's decision signature;
* small statistics and process helpers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import random
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.requests import AccessRequest
from repro.locations.multilevel import LocationHierarchy
from repro.simulation.buildings import grid_building
from repro.simulation.workload import (
    AuthorizationWorkloadGenerator,
    WorkloadConfig,
    generate_subjects,
)
from repro.storage.movement_db import MovementKind, MovementRecord

# --------------------------------------------------------------------- #
# Host calibration
# --------------------------------------------------------------------- #
#: Iterations of one reference run (15-25 ms on the host the figures were taken on).
REF_ITERATIONS = 40_000
#: Reference iterations per second of the host the calibrated figures are
#: expressed in.  A constant: calibrated = raw scaled by (measured / this).
NOMINAL_REF_PER_S = 2_400_000.0

_REF_SUBJECTS = tuple(f"user-{index:03d}" for index in range(256))
_REF_LOCATIONS = tuple(f"B.R{row}C{col}" for row in range(6) for col in range(6))


def reference_work(iterations: int) -> int:
    """Pure-Python dict, tuple and str work shaped like the decide path.

    The table grows to a few thousand keys, so like the decide path the
    loop depends on cache and memory speed as well as on the core's.
    """
    table: Dict[Tuple[str, str], int] = {}
    total = 0
    subjects, locations = _REF_SUBJECTS, _REF_LOCATIONS
    for index in range(iterations):
        spread = index * 7_919
        key = (subjects[spread & 255], locations[spread % 36])
        table[key] = table.get(key, 0) + index
        label = f"{key[0]}@{key[1]}"
        total += len(label) + (table[key] & 7)
    return total


def reference_speed() -> float:
    """Reference iterations per second, measured now."""
    started = time.perf_counter()
    reference_work(REF_ITERATIONS)
    return REF_ITERATIONS / (time.perf_counter() - started)


def time_factor(speed: float) -> float:
    """Multiplier turning a raw duration into a calibrated one."""
    return speed / NOMINAL_REF_PER_S


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(share * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------- #
HORIZON = 10_000
HISTORY_END = 5_000
GRID = (6, 6)
GRANT_ROUNDS = 3


@dataclasses.dataclass
class Inputs:
    hierarchy: LocationHierarchy
    locations: List[str]
    subjects: List[str]
    grants: list
    history: List[MovementRecord]
    capacities: Dict[str, int]


def build_inputs(seed: int, subject_count: int, history_events: int, *, capacities: int = 0) -> Inputs:
    """The seeded hierarchy, grants (with stable ids) and movement history.

    The history ends with every subject outside, so any feed can start from
    an empty building.
    """
    hierarchy = LocationHierarchy(grid_building("B", *GRID))
    locations = sorted(hierarchy.primitive_names)
    subjects = generate_subjects(subject_count)
    config = WorkloadConfig(horizon=HORIZON, window_length=2_000)
    grants = []
    for round_index in range(GRANT_ROUNDS):
        generator = AuthorizationWorkloadGenerator(
            hierarchy, config=config, seed=seed * 31 + round_index
        )
        grants.extend(generator.authorizations(subjects))
    grants = [
        dataclasses.replace(grant, auth_id=f"g{index}") for index, grant in enumerate(grants)
    ]
    rng = random.Random(seed * 131 + 7)
    feed = MovementFeed(rng, subjects, locations, start_time=0)
    history = feed.events(history_events, until=HISTORY_END)
    history.extend(feed.close_all(HISTORY_END))
    capped = rng.sample(locations, capacities) if capacities else []
    return Inputs(
        hierarchy=hierarchy,
        locations=locations,
        subjects=subjects,
        grants=grants,
        history=history,
        capacities={location: rng.randint(2, 4) for location in capped},
    )


class MovementFeed:
    """An occupancy-consistent ENTER/EXIT stream that can be continued.

    A subject outside enters a random location of the feed's pool; a
    subject inside leaves where it is.  Time never goes backwards.
    """

    def __init__(self, rng: random.Random, subjects, locations, *, start_time: int) -> None:
        self._rng = rng
        self._subjects = list(subjects)
        self._locations = list(locations)
        self._inside: Dict[str, str] = {}
        self.time = start_time

    def events(self, count: int, *, until: Optional[int] = None) -> List[MovementRecord]:
        rng = self._rng
        records = []
        span = None if until is None else max(1, until - self.time)
        for index in range(count):
            subject = rng.choice(self._subjects)
            location = self._inside.pop(subject, None)
            if location is not None:
                records.append(MovementRecord(self.time, subject, location, MovementKind.EXIT))
            else:
                location = rng.choice(self._locations)
                self._inside[subject] = location
                records.append(MovementRecord(self.time, subject, location, MovementKind.ENTER))
            if span is None:
                self.time += rng.randint(0, 1)
            elif rng.random() < span / count:
                self.time += 1
        return records

    def close_all(self, at: int) -> List[MovementRecord]:
        self.time = max(self.time, at)
        records = [
            MovementRecord(self.time, subject, location, MovementKind.EXIT)
            for subject, location in sorted(self._inside.items())
        ]
        self._inside.clear()
        return records


def random_requests(rng: random.Random, subjects, locations, count: int) -> List[AccessRequest]:
    return [
        AccessRequest(rng.randrange(HORIZON), rng.choice(subjects), rng.choice(locations))
        for _ in range(count)
    ]


# --------------------------------------------------------------------- #
# Correctness oracle
# --------------------------------------------------------------------- #
def signature(decision) -> Tuple[bool, Optional[str], Optional[str], int]:
    """What the oracle compares: grant/deny, reason, admitting id, entries used."""
    authorization = decision.authorization
    reason = decision.reason
    return (
        bool(decision.granted),
        reason.value if reason is not None else None,
        authorization.auth_id if authorization is not None else None,
        int(decision.entries_used),
    )


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span is ``(span_id, parent_id, name, start, end, request_id, size)``.
    Calls made from the load generator's thread nest through a stack; calls
    made from helper threads (the fabric router's fan-out) become children
    of the span the load generator is inside.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._request = 0
        self._undo: List[tuple] = []
        self._main = threading.main_thread()

    def root(self, name: str):
        self._request += 1
        return self.span(name)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self._request, None))

    def wrap(self, owner, attr: str, name: str, *, sized: bool = False) -> None:
        """Replace ``owner.attr`` by a timing wrapper (undone by :meth:`unwrap`)."""
        had_own = isinstance(owner, type) or attr in getattr(owner, "__dict__", {}) or (
            attr in getattr(type(owner), "__slots__", ())
        )
        original = getattr(owner, attr)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            on_main = threading.current_thread() is tracer._main
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else 0
            if on_main:
                tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if on_main:
                    tracer._stack.pop()
            size = len(result) if sized and result is not None else None
            tracer.spans.append((sid, parent, name, start, end, tracer._request, size))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, had_own))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for sid, parent, _name, start, end, _rid, _size in self.spans:
            children.setdefault(parent, []).append((start, end))
        result = {}
        for sid, _parent, _name, start, end, _rid, _size in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(sid, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result[sid] = (end - start) - covered
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write("%d %d %s %.9f %.9f %d %s\n" % (*span[:6], span[6]))


# --------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------- #
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of *pid* (default: this process), in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of *pid*, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
