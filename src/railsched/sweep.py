"""Experiment sweeps over omega, arrival rate, or the power cap, plus plot data.

A sweep runs every (value, policy, replication) cell and keeps per-cell
summaries in a tidy long-format table (one row per run).  Cells that fail
keep their error message in the table; the remaining cells still run.
The sweep.csv columns are listed once, in a table that both the writer and
the reader follow.  Each figure family has one writer: `write_cell_period`
takes fig3's series from a trace, and `write_tradeoff` groups a sweep's
successful rows by (value, policy) into fig4-fig6's mean and sample stddev.
"""

from __future__ import annotations

import concurrent.futures
import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, ScenarioConfig, with_updates
from .engine import SimSummary, Trace, run
from .traceio import _fmt, _named_decode_errors

# Each sweep parameter and the config key it sets.
SWEEP_PARAMETERS = {"omega": "omega", "lambda": "arrival_rate_pkts", "pmax": "max_power_w"}

# The sweep parameter behind each tradeoff figure.
_FIGURE_PARAMETERS = {"fig4": "lambda", "fig5": "omega", "fig6": "pmax"}

FIGURES = ("fig3", *_FIGURE_PARAMETERS)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str  # one of SWEEP_PARAMETERS
    values: tuple[float, ...]
    policies: tuple[str, ...]
    replications: int = 1

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"parameter must be one of {tuple(SWEEP_PARAMETERS)}")
        # A string is a sequence and a bool is a Real to Python (numpy's is not); neither field takes one.
        values, policies = self.values, self.policies
        if isinstance(values, str) or not isinstance(values, Sequence) or not values or not all(
            isinstance(v, Real) and not isinstance(v, bool) for v in values
        ):
            raise ValueError(f"values must be numbers in a nonempty sequence, got {values!r}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"values must be finite, got {values}")
        if isinstance(policies, str) or not isinstance(policies, Sequence) or not policies or not all(isinstance(name, str) for name in policies):
            raise ValueError(f"policies must be a sequence of one or more names, got {policies!r}")
        if type(self.replications) is not int or self.replications < 1:
            raise ValueError(f"replications must be an int >= 1, got {self.replications!r}")


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


def _run_cell(config: ScenarioConfig) -> SimSummary:
    return run(config, record_trace=False)[1]


def run_sweep(spec: SweepSpec, base_config: ScenarioConfig, workers: int = 1) -> SweepTable:
    """Run every sweep cell; failed cells are marked and do not stop the rest.

    A cell is the base config with the swept key, the policy and the seed
    replaced, exactly what `railsched run` would run with those keys.  Each
    replication r uses seed base_config.seed + r, identical across values
    and policies so comparisons share arrival sample paths.
    """
    key = SWEEP_PARAMETERS[spec.parameter]
    cells, rows = [], []
    for value in spec.values:
        for policy in spec.policies:
            for rep in range(spec.replications):
                seed = base_config.seed + rep
                row = SweepRow(parameter=spec.parameter, value=float(value), policy=policy, seed=seed, status="failed")
                rows.append(row)
                try:
                    cells.append((row, with_updates(base_config, **{key: float(value)}, policy=policy, seed=seed)))
                except ConfigError as exc:
                    row.error = str(exc)

    if workers > 1 and len(cells) > 1:
        # The fork start method launches every worker up front, so ask for no
        # more workers than there are cells.
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            futures = [(pool.submit(_run_cell, config), row, config) for row, config in cells]
        broken = [(row, config) for future, row, config in futures if not _store_result(row, future.result)]
        # A worker that dies breaks the whole pool and fails every cell still
        # in it; rerun those alone, each in a fresh pool, so only a cell that
        # crashes again fails.
        for row, config in broken:
            with concurrent.futures.ProcessPoolExecutor(max_workers=1) as solo:
                _store_result(row, solo.submit(_run_cell, config).result)
    else:
        for row, config in cells:
            _store_result(row, lambda: _run_cell(config))
    return SweepTable(rows=rows)


def _store_result(row: SweepRow, result) -> bool:
    """Record a cell's outcome, `result()`; False when the pool broke before the cell could finish."""
    try:
        _fill_row(row, result())
    except concurrent.futures.BrokenExecutor as exc:
        row.error = str(exc)
        return False
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        row.error = str(exc)
    return True


def _fill_row(row: SweepRow, summary: SimSummary) -> None:
    row.avg_power, row.avg_delay, row.power_ok = summary.avg_power, summary.avg_delay, summary.power_ok
    row.mean_delay, row.delay_ok, row.status = float(np.mean(summary.avg_delay)), all(summary.delay_ok), "ok"


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(f"{raw!r} is not 0 or 1")
    return raw == "1"


def _parse(path, where: str, convert, raw: str):
    """`convert(raw)`, with a ValueError naming the file and `where` in the text."""
    try:
        return convert(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {where}: {exc}") from None


def _sweep_schema(number=float) -> tuple:
    """(column, text of a value, parser of a field) for every sweep.csv column in file order.

    `number` parses one measured value: avg_power, mean_delay and each
    avg_delay entry.
    """
    return (
        ("parameter", str, str),
        ("value", _fmt, _finite),
        ("policy", str, str),
        ("seed", _fmt, int),
        ("status", str, str),
        ("avg_power", _fmt, number),
        ("mean_delay", _fmt, number),
        ("avg_delay", lambda values: ";".join(map(_fmt, values)), lambda raw: tuple(map(number, raw.split(";"))) if raw else ()),
        ("delay_ok", _fmt, _flag),
        ("power_ok", _fmt, _flag),
        ("error", lambda text: text.replace(",", ";").replace("\n", " "), str),
    )


def write_sweep(table: SweepTable, path: str | Path) -> None:
    columns = _sweep_schema()
    lines = [",".join(name for name, _, _ in columns)]
    lines += [",".join(text(getattr(row, name)) for name, text, _ in columns) for row in table.rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_sweep(path: str | Path) -> SweepTable:
    """Parse a sweep table; a malformed one raises ValueError naming the file, the row and the column.

    Rows count from 0 at the first line after the header.  A row has one
    field per column and a status of `ok` or `failed`.  Flags are 0 or 1.
    An `ok` row needs finite numbers, and its avg_delay vector must be as
    long as every other `ok` row's; a failed row may carry NaN.
    """
    with _named_decode_errors(path):
        lines = Path(path).read_text(encoding="utf-8").rstrip("\n").split("\n")
    names = [name for name, _, _ in _sweep_schema()]
    if lines[0] != ",".join(names):
        raise ValueError(f"{path}: unexpected sweep header")
    rows = []
    k_count = None
    for index, line in enumerate(lines[1:]):
        fields = line.split(",", maxsplit=len(names) - 1)
        if len(fields) != len(names):
            raise ValueError(f"{path}: row {index} has {len(fields)} fields, but the header has {len(names)} columns")
        status = fields[names.index("status")]
        if status not in ("ok", "failed"):
            raise ValueError(f"{path}: row {index}, column status: {status!r} is not 'ok' or 'failed'")
        # A failed row's measured values may be NaN; an ok row's must be finite.
        columns = _sweep_schema(_finite if status == "ok" else float)
        cells = {name: _parse(path, f"row {index}, column {name}", parse, raw) for (name, _, parse), raw in zip(columns, fields)}
        if status == "ok":
            if k_count not in (None, len(cells["avg_delay"])):
                raise ValueError(f"{path}: row {index}, column avg_delay: {len(cells['avg_delay'])} values, but earlier rows have {k_count}")
            k_count = len(cells["avg_delay"])
        rows.append(SweepRow(**cells))
    return SweepTable(rows=rows)


def write_cell_period(trace: Trace, config: ScenarioConfig, path: str | Path, window_start: int = 0) -> None:
    """Write fig3's series: slot, power, link capacity and mean backlog over one cell period from `window_start`."""
    window = config.geometry.period_slots
    if window_start < 0 or window_start + window > len(trace):
        raise ValueError(f"window [{window_start}, {window_start + window}) outside the trace of {len(trace)} slots")
    lines = ["t,P,C,mean_Q"]
    mean_q = trace.queues.mean(axis=1)
    for t in range(window_start, window_start + window):
        lines.append(f"{t},{_fmt(trace.power[t])},{int(trace.capacity[t])},{_fmt(mean_q[t])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_tradeoff(table: SweepTable, figure: str, path: str | Path, config: Optional[ScenarioConfig] = None) -> None:
    """Write fig4-fig6's series: mean and sample stddev of P-bar and mean W-bar per (value, policy).

    fig4/fig5/fig6 want a sweep over lambda/omega/pmax respectively, and
    fig5 also wants the scenario config for its constraint reference lines.
    Only `ok` rows count.
    """
    wanted = _FIGURE_PARAMETERS.get(figure)
    if wanted is None:
        raise ValueError(f"figure must be one of {tuple(_FIGURE_PARAMETERS)}")
    present = {row.parameter for row in table.rows}
    if present != {wanted}:
        raise ValueError(f"{figure} needs a sweep over {wanted!r}, table holds {sorted(present)}")
    groups: dict[tuple[float, str], list[SweepRow]] = {}
    for row in table.rows:
        if row.status == "ok":
            groups.setdefault((row.value, row.policy), []).append(row)
    if not groups:
        raise ValueError(f"{figure}: no successful sweep cells to plot")

    header = [wanted, "policy", "avg_power_mean", "avg_power_std", "mean_delay_mean", "mean_delay_std"]
    extra: list[str] = []
    if figure == "fig5":
        if config is None:
            raise ValueError("fig5 needs the scenario config for the constraint reference lines")
        extra = [_fmt(config.traffic.avg_power), _fmt(float(np.mean(config.traffic.delay_bounds)))]
        header += ["p_av_ref", "w_av_ref"]
    lines = [",".join(header)]
    for (value, policy), rows in sorted(groups.items()):
        stats = []
        for samples in ([r.avg_power for r in rows], [r.mean_delay for r in rows]):
            stats += [np.mean(samples), np.std(samples, ddof=1) if len(samples) > 1 else 0.0]
        lines.append(",".join([_fmt(value), policy, *map(_fmt, stats), *extra]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
