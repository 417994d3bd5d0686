"""Run-to-run spread of the end-to-end metrics, calibrated and raw.

    python3 perfbench/spread.py --workload served-hot --seeds 1-10 [--seconds 12]

Runs ``run.py`` once per seed (one after another, never concurrently) and
prints, for every end-to-end metric, the median, the quartiles and the
spread (inter-quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) of the
host-calibrated figures next to the raw ones.  The summary is also written
to ``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAW_KEYS = {
    "setup_s": "setup_s",
    "decide_p50_us": "decide_p50_us",
    "decide_p90_us": "decide_p90_us",
    "decisions_per_s": "decisions_per_s",
    "observe_events_per_s": "observe_events_per_s",
}


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3, "spread": (q3 - q1) / middle}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="12")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    calibrated, raw, failed = {}, {}, 0
    for seed in _seeds(args.seeds):
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        failed += result["failed"] + (0 if result["correct"] else 1)
        for name, metric in result["metrics"].items():
            calibrated.setdefault(name, []).append(metric["value"])
            if name in RAW_KEYS:
                raw.setdefault(name, []).append(detail["raw"][RAW_KEYS[name]])
        print(f"seed {seed}: {time.perf_counter() - started:.1f} s, ref {detail['ref_per_s']:,.0f}/s  "
              + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
    summary = {"workload": args.workload, "failed": failed, "metrics": {}}
    print(f"{args.workload}: {len(calibrated['setup_s'])} runs, failed={failed}")
    print(f"{'metric':24} {'bound':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'raw spread':>10} {'raw median':>12}")
    for name, values in calibrated.items():
        row = {"calibrated": summarize(values), "bound": bounds.get(name)}
        if name in raw:
            row["raw"] = summarize(raw[name])
        summary["metrics"][name] = row
        cal = row["calibrated"]
        raw_row = row.get("raw", {"spread": float("nan"), "median": float("nan")})
        print(f"{name:24} {str(row['bound']):>6} {cal['median']:>12.4f} {cal['q1']:>12.4f} "
              f"{cal['q3']:>12.4f} {cal['spread']:>7.3f} {raw_row['spread']:>10.3f} "
              f"{raw_row['median']:>12.4f}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spread-{args.workload}.json"), "w") as handle:
        json.dump(summary, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
