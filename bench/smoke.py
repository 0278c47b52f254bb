"""Smoke test of the benchmark at tiny horizons.

    python3 bench/smoke.py

Runs every workload once untraced and once traced at a few hundred slots,
one iteration each, and checks that BENCHMARK.json and the harness name
the same workloads and metrics, that every named metric is reported as a
finite number with its unit, and that the correctness gate passes.  Exits
non-zero on the first problem.  Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import sys

import run

run.use_checkout_sources()
import harness  # noqa: E402

TINY_HORIZON = 300


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if end_to_end != harness.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {end_to_end} != harness {harness.END_TO_END}")
    if per_layer != harness.PER_LAYER:
        problems.append(f"BENCHMARK.json per_layer {per_layer} != harness {harness.PER_LAYER}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(harness.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness")

    for name in harness.WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result, lines = run.execute(name, seed=1, seconds=0, trace=trace, horizon=TINY_HORIZON, setup_probes=2)
            label = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: gate failed: " + "; ".join(l for l in lines if "FAIL" in l))
            reported = result["metrics"]
            if set(reported) != set(expected):
                problems.append(f"{label}: metrics {sorted(reported)} != {sorted(expected)}")
            for metric, unit in expected.items():
                entry = reported.get(metric, {})
                value = entry.get("value")
                if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {metric} reported as {entry}, expected a finite number in {unit}")
            print(f"{label}: {result['attempted']} operations, {result['failed']} failed", flush=True)

    for problem in problems:
        print("FAIL " + problem)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        run.stop_multiprocessing_helpers()
    sys.exit(status)
