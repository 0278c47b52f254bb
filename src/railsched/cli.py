"""Command-line interface: run, sweep, plotdata.

Exit codes: 0 success, 1 configuration or command-line error, 2 runtime
or invariant failure, 3 sweep finished with some failed cells.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .engine import run
from .policies import POLICY_NAMES
from .sweep import FIGURES, SWEEP_PARAMETERS, SweepSpec, read_sweep, run_sweep, write_cell_period, write_sweep, write_tradeoff
from .traceio import read_trace, write_summary, write_trace

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A malformed command line is a configuration error (exit 1), not argparse's exit 2."""
        raise ConfigError(message)


def _values(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in raw.split(","))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {raw!r}")


def _whole(low: int):
    """An argparse type: a whole number >= `low`."""

    def whole_number(raw: str) -> int:
        if not raw.isdecimal() or int(raw) < low:
            raise argparse.ArgumentTypeError(f"expected a whole number >= {low}, got {raw!r}")
        return int(raw)

    return whole_number


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="scenario file (INI); defaults built in")
    parser.add_argument("--seed", type=_whole(0), default=None)
    parser.add_argument("--horizon", type=_whole(1), default=None, help="slots to simulate")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _load(args) -> "ScenarioConfig":
    keys = ("policy", "seed", "horizon")
    return load_config(args.config, **{key: getattr(args, key) for key in keys if getattr(args, key, None) is not None})


def _cmd_run(args) -> int:
    config = _load(args)
    args.out.mkdir(parents=True, exist_ok=True)
    trace, summary = run(config, record_trace=not args.no_trace)
    if trace is not None:
        write_trace(trace, args.out / "trace.csv")
    write_summary(summary, args.out / "summary.txt")
    print(f"policy={config.policy} seed={config.seed} T={config.horizon}")
    print(f"avg power {summary.avg_power:.4f} W (budget {config.traffic.avg_power} W, ok={summary.power_ok})")
    mean_delay = float(np.mean(summary.avg_delay))
    print(f"mean delay {mean_delay:.4f} slots (bounds {config.traffic.delay_bounds}, ok={all(summary.delay_ok)})")
    if any(summary.total_drops):
        print(f"dropped packets per service: {summary.total_drops}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load(args)
    spec = SweepSpec(
        parameter=args.param,
        values=args.values,
        policies=tuple(p.strip() for p in args.policies.split(",")),
        replications=args.reps,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    table = run_sweep(spec, config, workers=args.workers)
    out_path = args.out / "sweep.csv"
    write_sweep(table, out_path)
    print(f"{len(table.rows)} cells -> {out_path} ({len(table.failures)} failed)")
    for row in table.failures:
        print(f"  failed: {row.parameter}={row.value} {row.policy} seed={row.seed}: {row.error}")
    return EXIT_PARTIAL if table.failures else EXIT_OK


def _cmd_plotdata(args) -> int:
    config = load_config(args.config) if args.config or args.figure in ("fig3", "fig5") else None
    out = args.out / f"{args.figure}.csv"
    args.out.mkdir(parents=True, exist_ok=True)
    if args.figure == "fig3":
        write_cell_period(read_trace(args.source), config, out, window_start=args.window_start)
    else:
        write_tradeoff(read_sweep(args.source), args.figure, out, config=config)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="railsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario, write trace and summary")
    _add_common(p_run)
    p_run.add_argument("--policy", default=None, help=" | ".join(POLICY_NAMES))
    p_run.add_argument("--no-trace", action="store_true", help="skip the per-slot trace file")
    p_run.set_defaults(func=_cmd_run)

    # A sweep's policies come from --policies, so it takes no --policy.
    p_sweep = sub.add_parser("sweep", help="run a parameter sweep, write a tidy table")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p_sweep.add_argument("--values", required=True, type=_values, help="comma-separated parameter values")
    p_sweep.add_argument("--policies", default="proposed", help="comma-separated policy names")
    p_sweep.add_argument("--reps", type=_whole(1), default=1, help="replications; seed ladder starts at the config seed")
    p_sweep.add_argument("--workers", type=_whole(1), default=1, help="parallel worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plotdata", help="emit plot-ready columns for one figure")
    p_plot.add_argument("--figure", required=True, choices=FIGURES)
    p_plot.add_argument("--source", type=Path, required=True, help="trace.csv for fig3, sweep.csv otherwise")
    p_plot.add_argument("--config", type=Path, default=None, help="scenario file (fig3/fig5 reference values)")
    p_plot.add_argument("--window-start", type=_whole(0), default=0, help="fig3 window start slot")
    p_plot.add_argument("--out", type=Path, default=Path("."))
    p_plot.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
