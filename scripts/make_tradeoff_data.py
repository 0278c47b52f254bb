#!/usr/bin/env python3
"""Delay/power tradeoff sweeps: arrival rate, queue-weight omega, and power cap.

Reproduces the three comparison experiments (fig4/fig5/fig6 data): policies
versus arrival rate at a 100 W cap, the omega tradeoff curve with its
constraint reference lines, and the effect of the instantaneous power cap.

Usage: python scripts/make_tradeoff_data.py [--out DIR] [--horizon T] [--reps N] [--workers N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from railsched import SweepSpec, default_config, emit_plotdata, run_sweep, with_updates
from railsched.cli import _whole
from railsched.sweep import write_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/tradeoffs"))
    parser.add_argument("--horizon", type=_whole(1), default=300_000)
    parser.add_argument("--reps", type=_whole(1), default=3)
    parser.add_argument("--workers", type=_whole(1), default=2)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    experiments = [
        (
            "fig4",
            SweepSpec(
                parameter="lambda",
                values=(17.0, 19.0, 21.0, 23.0, 25.0),
                policies=("proposed", "wfpa-dynamic", "cpa-dynamic"),
                replications=args.reps,
            ),
            with_updates(default_config(), horizon=args.horizon, max_power_w=100.0),
        ),
        (
            "fig5",
            SweepSpec(parameter="omega", values=(0.2, 0.4, 0.6, 0.8, 1.0, 1.2), policies=("proposed",), replications=args.reps),
            with_updates(default_config(), horizon=args.horizon, arrival_rate_pkts=23.0, max_power_w=100.0),
        ),
        (
            "fig6",
            SweepSpec(parameter="pmax", values=(40.0, 60.0, 80.0, 100.0), policies=("proposed",), replications=args.reps),
            with_updates(default_config(), horizon=args.horizon, arrival_rate_pkts=23.0, omega=0.6),
        ),
    ]

    for figure, spec, config in experiments:
        table = run_sweep(spec, config, workers=args.workers)
        write_sweep(table, args.out / f"sweep_{spec.parameter}.csv")
        emit_plotdata(table, figure, args.out / f"{figure}.csv", config=config)
        failed = len(table.failures)
        print(f"{figure}: {len(table.rows)} cells ({failed} failed) -> {args.out / (figure + '.csv')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
