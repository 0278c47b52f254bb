#!/usr/bin/env python3
"""Per-slot dynamics over one cell period for all five policies.

Runs each policy for a few cell periods at the default scenario, writes one
fig3-style file per policy (slot, power, link capacity, mean backlog) over
the last simulated period, whose queues no longer start empty, plus the full
trace of the proposed policy for closer inspection.

Usage: python scripts/make_cell_period_data.py [--out DIR] [--seed N] [--periods N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from railsched import default_config, emit_plotdata, run, with_updates
from railsched.cli import _whole
from railsched.policies import POLICY_NAMES
from railsched.traceio import write_summary, write_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/cell_period"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--periods", type=_whole(1), default=3, help="cell periods to simulate")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    base = default_config()
    config = with_updates(base, horizon=args.periods * base.geometry.period_slots, seed=args.seed)
    last_period = (args.periods - 1) * base.geometry.period_slots
    for name in sorted(POLICY_NAMES):
        trace, summary = run(config, policy=name)
        emit_plotdata(trace, "fig3", args.out / f"fig3_{name}.csv", config=config, window_start=last_period)
        write_summary(summary, args.out / f"summary_{name}.txt")
        print(f"{name:13s} Pbar {summary.avg_power:8.4f} W   mean Wbar {sum(summary.avg_delay) / len(summary.avg_delay):7.4f} slots")
        if name == "proposed":
            write_trace(trace, args.out / "trace_proposed.csv")
    print(f"wrote {args.out}/fig3_<policy>.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
