"""Self-check of the host calibration: a CPU hog must move raw, not calibrated.

    python3 perfbench/selfcheck.py          # or: python3 -m pytest perfbench/selfcheck.py

A fixed job (uncached embedded ``decide`` calls) runs in rounds with the
reference loop between rounds, exactly as ``run.py`` measures.  It runs
once alone and once with a busy-loop process pinned to the same CPU, which
takes about half of that CPU.  The raw rate must drop by more than
RAW_DROP_MIN while the calibrated rate stays within CALIBRATED_TOLERANCE of
the unloaded one.  Needs Linux (``sched_setaffinity``).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import common  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 12
DECIDES_PER_ROUND = 1_500
RAW_DROP_MIN = 0.25
CALIBRATED_TOLERANCE = 0.10


def _job_rates(engine, requests):
    """Median raw and calibrated decide rates over ROUNDS rounds."""
    raw, calibrated = [], []
    before = common.reference_speed()
    for round_index in range(ROUNDS):
        started = time.perf_counter()
        for request in requests:
            engine.decide(request)
        elapsed = time.perf_counter() - started
        after = common.reference_speed()
        rate = len(requests) / elapsed
        raw.append(rate)
        calibrated.append(rate / common.time_factor((before + after) / 2))
        before = after
    return common.median(raw), common.median(calibrated)


def check() -> dict:
    cpu = min(os.sched_getaffinity(0))
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    hog = None
    try:
        inputs = workloads.embedded_inputs(1)
        engine = workloads.build_engine(inputs)
        requests = common.random_requests(random.Random(1), inputs.subjects,
                                          inputs.locations, DECIDES_PER_ROUND)
        alone = _job_rates(engine, requests)
        hog = subprocess.Popen(
            [sys.executable, "-c",
             f"import os; os.sched_setaffinity(0, {{{cpu}}})\nwhile True: pass"]
        )
        time.sleep(0.5)
        loaded = _job_rates(engine, requests)
    finally:
        if hog is not None:
            hog.kill()
            hog.wait(timeout=30)
        os.sched_setaffinity(0, previous)
    return {
        "raw_alone": alone[0], "raw_loaded": loaded[0],
        "calibrated_alone": alone[1], "calibrated_loaded": loaded[1],
        "raw_drop": 1 - loaded[0] / alone[0],
        "calibrated_change": loaded[1] / alone[1] - 1,
    }


def test_calibration_holds_under_cpu_hog():
    result = check()
    assert result["raw_drop"] > RAW_DROP_MIN, result
    assert abs(result["calibrated_change"]) < CALIBRATED_TOLERANCE, result


if __name__ == "__main__":
    outcome = check()
    for key, value in outcome.items():
        print(f"{key:20} {value:12.4f}")
    ok = outcome["raw_drop"] > RAW_DROP_MIN and abs(outcome["calibrated_change"]) < CALIBRATED_TOLERANCE
    print("calibration self-check:", "PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)
