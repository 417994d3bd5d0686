"""Host-calibrated LTAM decision benchmark.

    python3 perfbench/run.py --workload embedded-cold --seed 1 --seconds 12 --trace 0

Runs one workload (``embedded-cold``, ``served-hot`` or ``fabric-churn``, see
README.md) through the public API, checks a seeded sample of its decisions
against an embedded uncached engine replaying the same inputs, and prints
as its last stdout line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (host-calibrated);
with ``--trace 1`` half the time runs traced and the metrics are the
per-layer ones.  The line before it carries the run's details: raw and
calibrated figures, the reference speed, sample counts, the deterministic
decision and alert counts, nproc, Python version, git revision and seed.
Must be run from a checkout that holds ``src/repro``; exits non-zero
without a result otherwise.
"""

from __future__ import annotations

import argparse
import array
import collections
import contextlib
import gc
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; the reported set-up time is their median.
SETUP_REPEATS = 3
#: Rounds run before timing starts (cache priming, allocator warm-up).
WARMUP_ROUNDS = 2
#: Timed rounds every run makes, however short ``--seconds`` is (a traced
#: run splits them into two halves).
MIN_ROUNDS = 4
#: One sampled decision in this many is checked by the oracle.
SAMPLE_EVERY = 8
PHASES = ("point", "batch", "observe")

END_TO_END_UNITS = {
    "setup_s": "s",
    "decide_p50_us": "us",
    "decide_p90_us": "us",
    "decisions_per_s": "1/s",
    "observe_events_per_s": "1/s",
    "rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "host.ref_per_s": "1/s",
    "raw.setup_s": "s",
    "raw.decide_p50_us": "us",
    "raw.decide_p90_us": "us",
    "raw.decisions_per_s": "1/s",
    "raw.observe_events_per_s": "1/s",
    "storage.candidates_for_us": "us",
    "storage.enterable_at_us": "us",
    "storage.entry_count_us": "us",
    "storage.occupancy_us": "us",
    "storage.candidates_per_request": "count",
    "storage.record_many_us_per_event": "us",
    "storage.events_per_commit": "count",
    "api.decide_traced_us": "us",
    "api.decide_lean_us": "us",
    "api.decide_many_us_per_request": "us",
    "api.share_of_decide": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.lookup_us": "us",
    "cache.invalidated_per_1k_events": "count",
    "cache.evicted_per_1k_lookups": "count",
    "codec.request_encode_us": "us",
    "codec.response_decode_us": "us",
    "codec.bytes_per_decision": "bytes",
    "server.op_decide_us": "us",
    "server.op_decide_many_us_per_request": "us",
    "server.transport_us": "us",
    "server.cpu_us_per_op": "us",
    "fabric.partitions_per_batch": "count",
    "fabric.router_overhead_us": "us",
    "fabric.sync_us": "us",
    "bus.lag_s": "s",
    "ledger.converged": "bool",
    "engine.observe_us_per_event": "us",
    "engine.alerts_per_1k_events": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}


def _git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


class Run:
    """One workload run: set-up, rounds, oracle, figures."""

    def __init__(self, workload, seed: int) -> None:
        self.wl = workload
        self.seed = seed
        self.rounds = []          # per timed round: timings and reference speeds
        self.log = []             # per round (all): sampled (request, signature), records
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.next_round = 0
        self.tracer = None
        self.traced_batches = []

    # -- set-up --------------------------------------------------------- #
    def setup(self):
        """Run the set-up SETUP_REPEATS times; median calibrated and raw seconds.

        Each step is calibrated on its own, like a round phase: the CPU time
        the load generator and the child spent in it, each scaled by that
        process's reference speed around the step.
        """
        wl = self.wl
        calibrated, raw, steps = [], [], collections.defaultdict(list)
        for _ in range(SETUP_REPEATS):
            total_cal = total_raw = 0.0
            for label, step in wl.setup_steps():
                gc.collect()
                parent_before, child_before = wl.host_speeds()
                pid_before, child_cpu_before = wl.child_usage()
                cpu_before = time.process_time()
                started = time.perf_counter()
                step()
                wall = time.perf_counter() - started
                parent_cpu = time.process_time() - cpu_before
                pid_after, child_cpu = wl.child_usage()
                parent_after, child_after = wl.host_speeds()
                if pid_after == pid_before:
                    child_cpu -= child_cpu_before
                    child_after = (child_before + child_after) / 2
                else:
                    # A new child spent the step starting up and building
                    # its engine, seconds on a vCPU whose speed changes
                    # sub-second.  One reference snapshot taken afterwards
                    # misjudged it (fabric-churn: spread 0.21 calibrated
                    # against 0.09 raw), so its share is left unscaled.
                    child_after = common.NOMINAL_REF_PER_S
                factor = calibration_factor(
                    shares(wall, parent_cpu, child_cpu),
                    ((parent_before + parent_after) / 2, child_after),
                )
                total_raw += wall
                total_cal += wall * factor
                steps[label].append(wall)
            calibrated.append(total_cal)
            raw.append(total_raw)
        self.setup_steps = {label: common.median(values) for label, values in steps.items()}
        return common.median(calibrated), common.median(raw)

    # -- rounds --------------------------------------------------------- #
    def _sample(self, round_index: int, count: int):
        rng = random.Random(self.seed * 7_919 + round_index)
        return sorted(rng.sample(range(count), max(1, count // SAMPLE_EVERY)))

    def _fail(self, count: int, exc: BaseException) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append("".join(traceback.format_exception_only(type(exc), exc)).strip())

    def _root(self, name: str):
        return self.tracer.root(name) if self.tracer is not None else contextlib.nullcontext()

    def one_round(self, timed: bool, speeds_before) -> tuple:
        """Run round ``next_round``; returns the reference speeds measured after it.

        Each phase records its wall time and the CPU time the load generator
        and the child spent in it, which ``figures`` uses to weight the two
        processes' reference speeds.
        """
        wl, tracer = self.wl, self.tracer
        round_index = self.next_round
        self.next_round += 1
        points, batches, records = wl.round_inputs(round_index)
        phases = {}

        def phase_start():
            return time.perf_counter(), time.process_time(), wl.child_usage()[1]

        def phase_end(name, start):
            wall, cpu, child = start
            phases[name] = (time.perf_counter() - wall, time.process_time() - cpu,
                            wl.child_usage()[1] - child)

        latencies = array.array("d")
        point_results = [None] * len(points)
        start = phase_start()
        for index, request in enumerate(points):
            self.attempted += 1
            try:
                with self._root("decide"):
                    started = time.perf_counter()
                    point_results[index] = wl.point(request)
                    latencies.append(time.perf_counter() - started)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                self._fail(1, exc)
        phase_end("point", start)
        batch_results = []
        start = phase_start()
        for requests in batches:
            self.attempted += len(requests)
            try:
                with self._root("batch"):
                    decisions = wl.batch(requests)
                if len(decisions) != len(requests):
                    raise RuntimeError(f"{len(decisions)} decisions for {len(requests)} requests")
                batch_results.append(decisions)
            except Exception as exc:  # noqa: BLE001
                self._fail(len(requests), exc)
                batch_results.append(None)
        phase_end("batch", start)
        self.attempted += len(records)
        start = phase_start()
        try:
            with self._root("observe"):
                wl.observe(records)
        except Exception as exc:  # noqa: BLE001
            self._fail(len(records), exc)
        phase_end("observe", start)
        speeds_after = wl.host_speeds()

        sampled = []
        for index in self._sample(round_index, len(points)):
            sampled.append((points[index], point_results[index]))
        flat_requests = [r for requests in batches for r in requests]
        flat_results = []
        for requests, decisions in zip(batches, batch_results):
            flat_results.extend(decisions if decisions is not None else [None] * len(requests))
        for index in self._sample(round_index + 500_000, len(flat_requests)):
            sampled.append((flat_requests[index], flat_results[index]))
        self.log.append((
            [(request, common.signature(d) if d is not None else None) for request, d in sampled],
            records,
        ))
        if timed:
            self.rounds.append({
                "latencies": latencies,
                "batch_decisions": len(flat_requests),
                "events": len(records),
                "phases": phases,
                "speeds": tuple((a + b) / 2 for a, b in zip(speeds_before, speeds_after)),
                "traced": tracer is not None,
            })
            if tracer is not None:
                self.traced_batches.extend(batches)
        return speeds_after

    def measure(self, rounds: int) -> None:
        gc.collect()
        speeds = self.wl.host_speeds()
        for _ in range(rounds):
            speeds = self.one_round(True, speeds)

    def warm(self) -> None:
        if hasattr(self.wl, "warm"):
            self.wl.warm()
        speeds = self.wl.host_speeds()
        for _ in range(WARMUP_ROUNDS):
            speeds = self.one_round(False, speeds)

    # -- figures -------------------------------------------------------- #
    def figures(self, traced: bool):
        rounds = [r for r in self.rounds if r["traced"] == traced]
        # Per phase, summed over the rounds: the shares of wall time spent
        # on the load generator's CPU, on the child's, and on neither.
        cpu_shares = {
            phase: shares(*(sum(r["phases"][phase][i] for r in rounds) for i in range(3)))
            for phase in PHASES
        }

        def factor(r, phase):
            return calibration_factor(cpu_shares[phase], r["speeds"])

        cal_lat, raw_lat, cal_batch, raw_batch, cal_obs, raw_obs = [], [], [], [], [], []
        for r in rounds:
            point_factor = factor(r, "point")
            for value in r["latencies"]:
                raw_lat.append(value * 1e6)
                cal_lat.append(value * 1e6 * point_factor)
            batch_rate = r["batch_decisions"] / r["phases"]["batch"][0]
            raw_batch.append(batch_rate)
            cal_batch.append(batch_rate / factor(r, "batch"))
            observe_rate = r["events"] / r["phases"]["observe"][0]
            raw_obs.append(observe_rate)
            cal_obs.append(observe_rate / factor(r, "observe"))
        return {
            "samples": len(cal_lat),
            "rounds": len(rounds),
            "ref_per_s": common.median([r["speeds"][0] for r in rounds]),
            "child_ref_per_s": common.median([r["speeds"][1] for r in rounds]),
            "cpu_shares": {phase: [round(x, 4) for x in share]
                           for phase, share in cpu_shares.items()},
            "calibrated": {
                "decide_p50_us": common.percentile(cal_lat, 0.5),
                "decide_p90_us": common.percentile(cal_lat, 0.9),
                "decide_p99_us": common.percentile(cal_lat, 0.99),
                "decisions_per_s": common.median(cal_batch),
                "observe_events_per_s": common.median(cal_obs),
            },
            "raw": {
                "decide_p50_us": common.percentile(raw_lat, 0.5),
                "decide_p90_us": common.percentile(raw_lat, 0.9),
                "decide_p99_us": common.percentile(raw_lat, 0.99),
                "decisions_per_s": common.median(raw_batch),
                "observe_events_per_s": common.median(raw_obs),
            },
        }

    # -- oracle --------------------------------------------------------- #
    def oracle(self, tracer=None):
        """Replay every round on an embedded uncached engine; compare the sample.

        With *tracer*, the replay engine is instrumented so its spans give
        the pipeline and monitor figures of topologies whose own engine is
        in a child process.
        """
        engine = workloads.build_engine(self.wl.inputs)
        if tracer is not None:
            workloads.instrument_engine(tracer, engine)
        live, self.tracer = self.tracer, tracer
        try:
            return engine, self._replay(engine)
        finally:
            self.tracer = live

    def _replay(self, engine) -> dict:
        mismatches = 0
        reasons = collections.Counter()
        alerts_total = 0
        checked = 0
        sample_requests, sample_decisions = [], []
        for round_index, (sampled, records) in enumerate(self.log):
            for request, observed in sampled:
                with self._root("decide"):
                    expected = engine.decide(request)
                checked += 1
                reasons[expected.reason.value if expected.reason else "granted"] += 1
                if len(sample_requests) < 2_000:
                    sample_requests.append(request)
                    sample_decisions.append(expected)
                if observed is not None and common.signature(expected) != observed:
                    mismatches += 1
                    if len(self.errors) < 5:
                        self.errors.append(
                            f"mismatch at round {round_index} on {request}: "
                            f"{observed} != {common.signature(expected)}"
                        )
            with self._root("observe"):
                alerts_total += len(engine.observe_many(records))
        self.failed += mismatches
        events = sum(len(records) for _, records in self.log)
        return {
            "checked": checked,
            "mismatches": mismatches,
            "reason_counts": dict(sorted(reasons.items())),
            "alerts": alerts_total,
            "alerts_per_1k_events": alerts_total * 1000 / events if events else 0.0,
            "sample_requests": sample_requests,
            "sample_decisions": sample_decisions,
        }


def shares(wall: float, parent_cpu: float, child_cpu: float) -> tuple:
    """Shares of *wall* on the load generator's CPU, the child's, and neither.

    Threads in both processes can overlap; CPU time then exceeds the wall
    time and nothing is left for waiting.
    """
    busy = max(wall, parent_cpu + child_cpu)
    return parent_cpu / busy, child_cpu / busy, 1 - (parent_cpu + child_cpu) / busy


def calibration_factor(cpu_shares: tuple, speeds: tuple) -> float:
    """Raw-to-calibrated time multiplier: each process's CPU share scaled by
    its reference speed, the waiting share left as it is."""
    parent, child, waiting = cpu_shares
    parent_speed, child_speed = speeds
    return (parent * common.time_factor(parent_speed)
            + child * common.time_factor(child_speed) + waiting)


def budget(tracer, extra: dict) -> dict:
    """Per-layer self time of a point decide, as shares of the traced round trip."""
    selfs = tracer.self_times()
    roots = {s[0]: s for s in tracer.spans if s[2] == "decide" and s[1] == 0}
    requests = {s[5] for s in roots.values()}
    rows = collections.Counter()
    total = 0.0
    layer_of = {
        "api.decide": "api (pipeline)",
        "client.decide": "codec (client conversions)",
        "router.decide": "fabric (router)",
        "client.call": "client.call",
    }
    for span in tracer.spans:
        if span[5] not in requests:
            continue
        if span[0] in roots:
            rows["unattributed"] += selfs[span[0]]
            total += span[4] - span[3]
        elif span[2].startswith("storage."):
            rows["storage (PIP reads)"] += selfs[span[0]]
        elif span[2] in layer_of:
            rows[layer_of[span[2]]] += selfs[span[0]]
    count = len(roots)
    if "client.call" in rows and count:
        call = rows.pop("client.call") / count * 1e6
        server = extra["server.op_decide_us"]
        codec = extra["codec.request_encode_us"] + extra["codec.response_decode_us"]
        rows["server op (incl. cache)"] = server * count / 1e6
        rows["codec (binary encode/decode)"] = codec * count / 1e6
        rows["transport"] = (call - server - codec) * count / 1e6
    return {name: value / total for name, value in rows.items()} if total else {}


def execute(run: Run, wl, args) -> dict:
    """Set up, measure, check; returns the detail and the result line."""
    # A fixed number of rounds, not a deadline: the inputs, the engine's
    # state after each round and every decision and alert count are then
    # the same for a seed whatever the host's speed.  ``--seconds`` sets
    # how many rounds, at the workload's nominal round duration.
    rounds = max(MIN_ROUNDS, round(args.seconds / wl.round_seconds))
    setup_cal, setup_raw = run.setup()
    run.warm()
    if args.trace:
        run.measure(rounds // 2)
        before = wl.counters()
        run.tracer = common.Tracer()
        wl.instrument(run.tracer)
        run.measure(rounds // 2)
        run.tracer.unwrap()
        after = wl.counters()
    else:
        run.measure(rounds)
    rss = wl.rss_mb()
    replay_tracer = common.Tracer() if args.trace and args.workload != "embedded-cold" else None
    engine, oracle = run.oracle(replay_tracer)

    untraced = run.figures(False)
    cal, raw = untraced["calibrated"], untraced["raw"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "ref_per_s": untraced["ref_per_s"],
        "child_ref_per_s": untraced["child_ref_per_s"],
        "cpu_shares": untraced["cpu_shares"],
        "nominal_ref_per_s": common.NOMINAL_REF_PER_S,
        "rounds": untraced["rounds"],
        "point_samples": untraced["samples"],
        "batch_size": workloads.BATCH_SIZE,
        "calibrated": dict(cal, setup_s=setup_cal, rss_mb=rss),
        "raw": dict(raw, setup_s=setup_raw),
        "setup_steps_raw_s": run.setup_steps,
        "oracle": {k: v for k, v in oracle.items()
                   if k not in ("sample_requests", "sample_decisions")},
        "errors": run.errors,
    }
    if args.trace:
        context = {
            "events": sum(r["events"] for r in run.rounds if r["traced"]),
            "batches": run.traced_batches,
            "after": after,
        }
        delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}
        layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        layers.update(workloads.replay_metrics(
            engine, oracle["sample_requests"], oracle["sample_decisions"], wl.cache_cap))
        layers["engine.alerts_per_1k_events"] = oracle["alerts_per_1k_events"]
        if replay_tracer is not None:
            layers.update(workloads.engine_layer_metrics(replay_tracer))
        layers.update(wl.layer_metrics(run.tracer, delta, context, layers))
        shares = budget(run.tracer, layers)
        traced = run.figures(True)
        layers.update({
            "host.ref_per_s": untraced["ref_per_s"],
            "raw.setup_s": setup_raw,
            "raw.decide_p50_us": raw["decide_p50_us"],
            "raw.decide_p90_us": raw["decide_p90_us"],
            "raw.decisions_per_s": raw["decisions_per_s"],
            "raw.observe_events_per_s": raw["observe_events_per_s"],
            "trace.unattributed_share": shares.get("unattributed", 0.0),
            "trace.overhead_share": (
                traced["calibrated"]["decide_p50_us"] / cal["decide_p50_us"] - 1.0
            ),
        })
        detail["budget_us"] = {name: share * cal["decide_p50_us"]
                               for name, share in sorted(shares.items())}
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        spans_path = os.path.join(ROOT, ".perfbench_out",
                                  f"spans-{args.workload}-{args.seed}.txt")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        run.tracer.write(spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        values = {
            "setup_s": setup_cal,
            "decide_p50_us": cal["decide_p50_us"],
            "decide_p90_us": cal["decide_p90_us"],
            "decisions_per_s": cal["decisions_per_s"],
            "observe_events_per_s": cal["observe_events_per_s"],
            "rss_mb": rss,
        }
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": run.failed == 0 and oracle["checked"] > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return {"detail": detail, "result": result}


def _terminated(signum, frame):
    # Turn SIGTERM into SystemExit so the child is reaped and its
    # temporary directory removed on the way out.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    global common, workloads
    import common
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminated)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        outcome = execute(Run(wl, args.seed), wl, args)
    except Exception:  # noqa: BLE001 - the run cannot produce a result
        traceback.print_exc()
        return 1
    finally:
        wl.teardown()
    print(json.dumps({"detail": outcome["detail"]}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
