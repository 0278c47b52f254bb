#!/usr/bin/env python3
"""Delay/power tradeoff sweeps: arrival rate, queue-weight omega, and power cap.

Reproduces the three comparison experiments (fig4/fig5/fig6 data) as
defined in experiments/: each line of sweeps.txt is one `railsched sweep`
over the scenario <figure>.ini, kept as sweep_<param>.csv, then one
`railsched plotdata` that writes <figure>.csv.

Usage: python scripts/make_tradeoff_data.py [--out DIR] [--horizon T] [--reps N] [--workers N]

--horizon, --reps (3 by default) and --workers (2 by default) go to each sweep,
which checks them; any other flag is a usage error. The script stops at the first
command that fails and exits with its code: 1 for a malformed flag, 3 for failed cells.
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from railsched import cli, default_config

EXPERIMENTS = ROOT / "experiments"


def main() -> int:
    parser = cli._Parser(description=__doc__)  # a malformed flag is a config error, exit 1
    parser.add_argument("--out", type=Path, default=Path("results/tradeoffs"))
    parser.add_argument("--horizon", default=str(default_config().horizon), help="passed to railsched sweep")
    parser.add_argument("--reps", default="3", help="passed to railsched sweep")
    parser.add_argument("--workers", default="2", help="passed to railsched sweep")
    try:
        args = parser.parse_args()
    except cli.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return cli.EXIT_CONFIG
    flags = ["--horizon", args.horizon, "--reps", args.reps, "--workers", args.workers]
    lines = (EXPERIMENTS / "sweeps.txt").read_text().splitlines()  # blank lines and # comments are skipped
    with tempfile.TemporaryDirectory() as tmp:  # the CLI's sweep.csv stays out of --out
        for figure, *sweep in (line.split() for line in lines if line.strip() and not line.startswith("#")):
            config, table = str(EXPERIMENTS / f"{figure}.ini"), str(Path(tmp) / "sweep.csv")
            code = cli.main(["sweep", "--config", config, *sweep, *flags, "--out", tmp]) or cli.main(
                ["plotdata", "--figure", figure, "--source", table, "--config", config, "--out", str(args.out)]
            )
            if code:
                return code
            shutil.move(table, args.out / f"sweep_{sweep[sweep.index('--param') + 1]}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
