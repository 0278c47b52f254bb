"""Experiment sweeps over omega, arrival rate, or the power cap, plus plot data.

A sweep runs every (value, policy, replication) cell, keeps per-cell
summaries in a tidy long-format table (one row per run), and aggregates
mean and sample stddev across replications on demand.  Cells that fail
keep their error message in the table; the remaining cells still run.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, ScenarioConfig, with_updates
from .engine import Trace, run
from .traceio import _finite, _flag, _fmt, _parse

SWEEP_PARAMETERS = ("omega", "lambda", "pmax")

FIGURES = ("fig3", "fig4", "fig5", "fig6")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str  # one of SWEEP_PARAMETERS
    values: tuple[float, ...]
    policies: tuple[str, ...]
    replications: int = 1

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"parameter must be one of {SWEEP_PARAMETERS}")
        if not self.values:
            raise ValueError("values must be nonempty")
        if not self.policies:
            raise ValueError("policies must be nonempty")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass
class SweepRow:
    parameter: str
    value: float
    policy: str
    seed: int
    status: str  # "ok" or "failed"
    avg_power: float = math.nan
    mean_delay: float = math.nan
    avg_delay: tuple[float, ...] = ()
    delay_ok: bool = False
    power_ok: bool = False
    error: str = ""


@dataclass
class SweepTable:
    rows: list[SweepRow]

    @property
    def failures(self) -> list[SweepRow]:
        return [row for row in self.rows if row.status != "ok"]

    def aggregate(self) -> list[dict]:
        """Mean and sample stddev of P-bar and mean W-bar per (value, policy)."""
        groups: dict[tuple[float, str], list[SweepRow]] = {}
        for row in self.rows:
            if row.status == "ok":
                groups.setdefault((row.value, row.policy), []).append(row)
        out = []
        for (value, policy), rows in sorted(groups.items()):
            powers = [r.avg_power for r in rows]
            delays = [r.mean_delay for r in rows]
            out.append(
                {
                    "value": value,
                    "policy": policy,
                    "avg_power_mean": float(np.mean(powers)),
                    "avg_power_std": float(np.std(powers, ddof=1)) if len(powers) > 1 else 0.0,
                    "mean_delay_mean": float(np.mean(delays)),
                    "mean_delay_std": float(np.std(delays, ddof=1)) if len(delays) > 1 else 0.0,
                    "replications": len(rows),
                }
            )
        return out


def apply_parameter(config: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    """Install one sweep value into a base config."""
    if parameter == "omega":
        return with_updates(config, omega=float(value))
    if parameter == "lambda":
        return with_updates(config, arrival_rate=float(value))
    if parameter == "pmax":
        return with_updates(config, max_power=float(value))
    raise ValueError(f"unknown sweep parameter {parameter!r}")


def _run_cell(config: ScenarioConfig, policy: str, seed: int) -> tuple[float, float, tuple[float, ...], bool, bool]:
    _, summary = run(config, policy=policy, seed=seed, record_trace=False)
    mean_delay = float(np.mean(summary.avg_delay))
    return summary.avg_power, mean_delay, summary.avg_delay, all(summary.delay_ok), summary.power_ok


def run_sweep(spec: SweepSpec, base_config: ScenarioConfig, workers: int = 1) -> SweepTable:
    """Run every sweep cell; failed cells are marked and do not stop the rest.

    Each replication r uses seed base_config.seed + r, identical across
    values and policies so comparisons share arrival sample paths.
    """
    cells = []
    rows = []
    for value in spec.values:
        for policy in spec.policies:
            for rep in range(spec.replications):
                seed = base_config.seed + rep
                row = SweepRow(parameter=spec.parameter, value=float(value), policy=policy, seed=seed, status="failed")
                rows.append(row)
                try:
                    cell_config = apply_parameter(base_config, spec.parameter, value)
                except ConfigError as exc:
                    row.error = str(exc)
                    continue
                cells.append((row, cell_config, policy, seed))

    if workers > 1 and len(cells) > 1:
        # The fork start method launches every worker up front, so ask for no
        # more workers than there are cells.
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            futures = [(pool.submit(_run_cell, *cell[1:]), cell) for cell in cells]
        broken = [cell for future, cell in futures if not _store_result(cell[0], future)]
        # A worker that dies breaks the whole pool and fails every cell still
        # in it; rerun those alone, each in a fresh pool, so only a cell that
        # crashes again fails.
        for row, cfg, pol, seed in broken:
            with concurrent.futures.ProcessPoolExecutor(max_workers=1) as solo:
                _store_result(row, solo.submit(_run_cell, cfg, pol, seed))
    else:
        for row, cfg, pol, seed in cells:
            try:
                _fill_row(row, _run_cell(cfg, pol, seed))
            except Exception as exc:  # noqa: BLE001 - cell isolation is the point
                row.error = str(exc)
    return SweepTable(rows=rows)


def _store_result(row: SweepRow, future) -> bool:
    """Record a finished cell; False when the pool broke before the cell could finish."""
    try:
        _fill_row(row, future.result())
    except concurrent.futures.BrokenExecutor as exc:
        row.error = str(exc)
        return False
    except Exception as exc:  # noqa: BLE001
        row.error = str(exc)
    return True


def _fill_row(row: SweepRow, result) -> None:
    row.avg_power, row.mean_delay, row.avg_delay, row.delay_ok, row.power_ok = result
    row.status = "ok"


_SWEEP_COLUMNS = ("parameter", "value", "policy", "seed", "status", "avg_power", "mean_delay", "avg_delay", "delay_ok", "power_ok", "error")


def write_sweep(table: SweepTable, path: str | Path) -> None:
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in table.rows:
        lines.append(
            ",".join(
                [
                    row.parameter,
                    _fmt(row.value),
                    row.policy,
                    str(row.seed),
                    row.status,
                    _fmt(row.avg_power),
                    _fmt(row.mean_delay),
                    ";".join(_fmt(v) for v in row.avg_delay),
                    str(int(row.delay_ok)),
                    str(int(row.power_ok)),
                    row.error.replace(",", ";").replace("\n", " "),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_sweep(path: str | Path) -> SweepTable:
    """Parse a sweep table; a malformed one raises ValueError naming the file, the row and the column.

    Rows count from 0 at the first line after the header.  A row has one
    field per column and a status of `ok` or `failed`.  Flags are 0 or 1.
    An `ok` row needs finite numbers, and its avg_delay vector must be as
    long as every other `ok` row's; a failed row may carry NaN.
    """
    lines = Path(path).read_text(encoding="utf-8").rstrip("\n").split("\n")
    if lines[0] != ",".join(_SWEEP_COLUMNS):
        raise ValueError(f"{path}: unexpected sweep header")
    rows = []
    k_count = None
    for index, line in enumerate(lines[1:]):
        cells = dict(zip(_SWEEP_COLUMNS, line.split(",", maxsplit=len(_SWEEP_COLUMNS) - 1)))
        if len(cells) != len(_SWEEP_COLUMNS):
            raise ValueError(f"{path}: row {index} has {len(cells)} fields, but the header has {len(_SWEEP_COLUMNS)} columns")
        if cells["status"] not in ("ok", "failed"):
            raise ValueError(f"{path}: row {index}, column status: {cells['status']!r} is not 'ok' or 'failed'")
        number = _finite if cells["status"] == "ok" else float
        converters = {
            "value": _finite,
            "seed": int,
            "avg_power": number,
            "mean_delay": number,
            "avg_delay": lambda raw: tuple(map(number, raw.split(";"))) if raw else (),
            "delay_ok": _flag,
            "power_ok": _flag,
        }
        for name, convert in converters.items():
            cells[name] = _parse(path, f"row {index}, column {name}", convert, cells[name])
        if cells["status"] == "ok":
            if k_count not in (None, len(cells["avg_delay"])):
                raise ValueError(f"{path}: row {index}, column avg_delay: {len(cells['avg_delay'])} values, but earlier rows have {k_count}")
            k_count = len(cells["avg_delay"])
        rows.append(SweepRow(**cells))
    return SweepTable(rows=rows)


def emit_plotdata(
    source: Trace | SweepTable,
    figure: str,
    path: str | Path,
    config: Optional[ScenarioConfig] = None,
    window_start: int = 0,
) -> None:
    """Write the columnar series behind one of the four standard figures.

    fig3 wants a Trace and the scenario config (for the cell-period length);
    fig4/fig5/fig6 want a SweepTable over lambda/omega/pmax respectively.
    Nothing is written when the needed series are missing.
    """
    if figure not in FIGURES:
        raise ValueError(f"figure must be one of {FIGURES}")
    if figure == "fig3":
        if not isinstance(source, Trace):
            raise ValueError("fig3 needs a simulation trace")
        if config is None:
            raise ValueError("fig3 needs the scenario config for the cell-period window")
        if len(source) == 0:
            raise ValueError("cannot emit plot data from an empty trace")
        window = config.geometry.period_slots
        if window_start < 0 or window_start + window > len(source):
            raise ValueError(
                f"window [{window_start}, {window_start + window}) outside the trace of {len(source)} slots"
            )
        lines = ["t,P,C,mean_Q"]
        mean_q = source.queues.mean(axis=1)
        for t in range(window_start, window_start + window):
            lines.append(f"{t},{_fmt(source.power[t])},{int(source.capacity[t])},{_fmt(mean_q[t])}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return

    if not isinstance(source, SweepTable):
        raise ValueError(f"{figure} needs a sweep table")
    wanted = {"fig4": "lambda", "fig5": "omega", "fig6": "pmax"}[figure]
    present = {row.parameter for row in source.rows}
    if present != {wanted}:
        raise ValueError(f"{figure} needs a sweep over {wanted!r}, table holds {sorted(present)}")
    aggregated = source.aggregate()
    if not aggregated:
        raise ValueError(f"{figure}: no successful sweep cells to plot")

    header = [wanted, "policy", "avg_power_mean", "avg_power_std", "mean_delay_mean", "mean_delay_std"]
    extra: list[str] = []
    if figure == "fig5":
        if config is None:
            raise ValueError("fig5 needs the scenario config for the constraint reference lines")
        extra = [_fmt(config.traffic.avg_power), _fmt(float(np.mean(config.traffic.delay_bounds)))]
        header += ["p_av_ref", "w_av_ref"]
    lines = [",".join(header)]
    for group in aggregated:
        row = [
            _fmt(group["value"]),
            group["policy"],
            _fmt(group["avg_power_mean"]),
            _fmt(group["avg_power_std"]),
            _fmt(group["mean_delay_mean"]),
            _fmt(group["mean_delay_std"]),
        ]
        lines.append(",".join(row + extra))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
