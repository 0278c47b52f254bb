"""Record the simulated statistics every later run is compared with.

    python3 bench/make_reference.py FIRST_SEED LAST_SEED [WORKLOAD ...]

For each workload (default: all) and each seed in the inclusive range,
runs the workflow once and the correctness gate, and stores Pbar, mean
Wbar, total drops and the output hashes in bench/reference.json, keeping
entries for other seeds.  `run.py` reports `decisions_changed` against
these values; regenerate them only when a change of decisions is intended
and explained.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

run.use_checkout_sources()
import harness  # noqa: E402


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    names = sys.argv[3:] or sorted(harness.WORKLOADS)
    reference = harness.load_reference()
    work = run.OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            workload = harness.make_workload(name)
            for seed in range(first, last + 1):
                warm = harness.run_phase(workload, seed, 0.0, traced=False, work=work, reference_fp=None)
                payload = warm.iterations[0].payload
                if payload is None:
                    raise SystemExit(f"{name} seed {seed}: the workflow failed")
                checks, summaries = harness.run_gate(workload, seed, payload, work)
                failed = [c for c in checks if not c[1]]
                if failed:
                    raise SystemExit(f"{name} seed {seed}: gate failed: {failed}")
                reference.setdefault(name, {})[str(seed)] = workload.record(payload, summaries, work)
                print(f"{name} seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    harness.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        run.stop_multiprocessing_helpers()
    sys.exit(status)
