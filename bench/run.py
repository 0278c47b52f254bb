"""railsched benchmark: one command, three closed-loop workloads, host-time metrics.

    python3 bench/run.py --workload proposed-slack --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/` of
the same checkout; without it the command fails before printing a result.

With `--trace 0` the workload's workflow repeats untraced for `--seconds`
and the end-to-end metrics are reported: median wall time per iteration,
simulated slots per host second inside `run()`, set-up time (median of
fresh interpreters reaching the first slot) and peak resident memory.
Wall time and slots per second are scaled by a calibration loop timed
before each iteration (see `calibration.py`), so that the
shared host's speed swings cancel; the raw medians are printed too.
With `--trace 1` half the time runs untraced and half with spans around
every layer boundary, and the per-layer metrics are reported.

Either way one untraced warm-up iteration runs first (it is not timed; it
supplies the simulated-statistics record), and after the timing the
correctness gate re-runs the workload's cells with a recorded trace and
checks replay, summary, trace round trip and the solver against brute
force.  Every run, sweep cell and check is one operation; the last stdout
line is the JSON result, and the exit code is 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from multiprocessing import forkserver, resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench"


def use_checkout_sources() -> None:
    """Import railsched from this checkout's `src/`, and make worker processes do the same."""
    if not (SRC / "railsched" / "__init__.py").is_file():
        sys.exit(f"error: railsched sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)


def stop_multiprocessing_helpers() -> None:
    """Stop multiprocessing's resource tracker and fork server, if started, and wait for them.

    A spawn pool (the calibration's) starts the resource tracker, which
    otherwise outlives this process until it reads end-of-file.
    """
    gc.collect()
    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()


def execute(workload_name: str, seed: int, seconds: float, trace: bool, horizon: int | None = None, setup_probes=None):
    """Run one workload; returns the result dict printed as the last line, plus the report lines."""
    import harness

    workload = harness.make_workload(workload_name, horizon)
    probes = harness.SETUP_PROBES if setup_probes is None else setup_probes
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    lines = []
    try:
        warm = harness.run_phase(workload, seed, 0.0, traced=False, work=work, reference_fp=None)
        iterations = list(warm.iterations)
        warm_payload = warm.iterations[0].payload
        fingerprint = workload.fingerprint(warm_payload) if warm_payload is not None else None
        checks = []
        metrics = {}
        if fingerprint is not None:
            untraced_seconds = seconds / 2 if trace else seconds
            untraced = harness.run_phase(workload, seed, untraced_seconds, False, work, fingerprint)
            iterations += untraced.iterations
            rss = harness.peak_rss_mb(workload.workers)
            untraced_wall = statistics.median(untraced.walls)
            if trace:
                traced = harness.run_phase(workload, seed, seconds / 2, True, work, fingerprint)
                iterations += traced.iterations
                metrics, self_ms = harness.layer_metrics(workload, traced, untraced_wall)
                checks += harness.bypass_checks(workload, metrics, traced)
                traced.spans.save(OUT_DIR / f"spans-{workload.name}.npz")
                lines.append("self_ms_per_iteration " + json.dumps(self_ms, sort_keys=True))
                lines.append(f"iterations untraced={len(untraced.roots)} traced={len(traced.roots)}")
            gate_checks, gate_summaries = harness.run_gate(workload, seed, warm_payload, work)
            checks += gate_checks
            if not trace:
                setups = harness.setup_probes(workload, seed, probes) if probes else [{"total": float("nan")}]
                metrics, raw = harness.end_to_end_metrics(workload, untraced, setups, rss)
                lines.append(f"samples wall_s={len(untraced.roots)} setup_s={len(setups)}")
                lines.append("raw_medians " + json.dumps(raw))
                for key in ("import", "config", "profiles", "build_policy", "arrivals"):
                    if key in setups[0]:
                        values = sorted(s[key] for s in setups)
                        lines.append(f"setup.{key}_s median={values[len(values) // 2]!r}")
            record = workload.record(warm_payload, gate_summaries, work)
            reference = harness.load_reference().get(workload.name, {}).get(str(seed))
            changed = harness.decisions_changed(record, reference)
            lines.append("record " + json.dumps(record, sort_keys=True))
            lines.append(f"decisions_changed {changed if changed is not None else 'n/a (no reference for this seed)'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(it.runs for it in iterations) + len(checks)
    failed = sum(it.failed for it in iterations) + sum(not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        lines.append(f"check {'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    lines.append(f"fail_rate {failed / attempted!r} frac ({failed} of {attempted} operations)")
    units = harness.PER_LAYER if trace else harness.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    return result, lines


def main(argv=None) -> int:
    use_checkout_sources()
    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"# railsched benchmark workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        result, lines = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_multiprocessing_helpers()
    print("# provenance " + json.dumps(harness.provenance(args.seed, ROOT)))
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
