#!/usr/bin/env python3
"""Per-slot dynamics over one cell period for all five policies.

For each policy, runs `railsched run` for a few cell periods of the default
scenario, then `railsched plotdata --figure fig3` over the last simulated
period, whose queues no longer start empty. Keeps fig3_<policy>.csv (slot,
power, link capacity, mean backlog) and summary_<policy>.txt for every
policy, plus the full trace of the proposed policy as trace_proposed.csv.

Usage: python scripts/make_cell_period_data.py [--out DIR] [--periods N] [--seed N]

--seed goes to each run, which checks it; any other flag is a usage error. The
script stops at the first command that fails and exits with its code.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from railsched import cli, default_config
from railsched.policies import POLICY_NAMES


def main() -> int:
    base, parser = default_config(), cli._Parser(description=__doc__)  # a malformed flag is a config error, exit 1
    parser.add_argument("--out", type=Path, default=Path("results/cell_period"))
    parser.add_argument("--periods", type=cli._whole(1), default=3, help="cell periods to simulate")
    parser.add_argument("--seed", default=str(base.seed), help="passed to railsched run")
    try:
        args = parser.parse_args()
    except cli.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return cli.EXIT_CONFIG
    horizon, window_start = (str(n * base.geometry.period_slots) for n in (args.periods, args.periods - 1))
    with tempfile.TemporaryDirectory() as tmp:  # the CLI's fixed file names stay out of --out
        work = Path(tmp)
        for name in sorted(POLICY_NAMES):
            code = cli.main(["run", "--policy", name, "--horizon", horizon, "--seed", args.seed, "--out", tmp]) or cli.main(
                ["plotdata", "--figure", "fig3", "--source", str(work / "trace.csv"), "--window-start", window_start, "--out", tmp]
            )
            if code:
                return code
            args.out.mkdir(parents=True, exist_ok=True)
            shutil.move(work / "fig3.csv", args.out / f"fig3_{name}.csv")
            shutil.move(work / "summary.txt", args.out / f"summary_{name}.txt")
            if name == "proposed":
                shutil.move(work / "trace.csv", args.out / "trace_proposed.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
