"""Host-speed calibration for the timed end-to-end metrics.

The shared host's speed swings by 20-30% over minutes, per CPU, and the
same swing shows in a fixed pure-Python loop.  Before each workflow
iteration the harness times that loop on as many CPUs as the workload
keeps busy, and scales the iteration's wall time to a host on which the
loop takes REFERENCE_S.  The loop never calls railsched, so a change to the
package cannot move it.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import statistics
import time

REFERENCE_S = 0.010
REPEATS = 3


def calibration_loop() -> float:
    """Fixed work in the per-slot solver's style: sorted views, prefix sums, float powers."""
    acc = 0.0
    for i in range(1500):
        weights = [(i * 7 + k * 13) % 97 + 0.5 for k in range(6)]
        order = sorted(range(6), key=lambda k: (-weights[k], k))
        prefix = [0]
        for k in order:
            prefix.append(prefix[-1] + k + 1)
        gain = 0.0
        for j, x in enumerate(weights):
            gain += x * (prefix[j + 1] - prefix[j])
        acc += gain - 0.5 * (2.0 ** (0.048 * (i % 50)) - 1.0)
    return acc


def time_loop(_=None) -> float:
    """Median host seconds of `calibration_loop` over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@contextlib.contextmanager
def calibrator(processes: int):
    """Yield a function returning the loop's seconds, timed on `processes` CPUs at once (their mean)."""
    if processes <= 1:
        yield time_loop
        return
    pool = multiprocessing.get_context("spawn").Pool(processes)
    try:
        yield lambda: statistics.mean(pool.map(time_loop, range(processes), chunksize=1))
    finally:
        pool.close()
        pool.join()
