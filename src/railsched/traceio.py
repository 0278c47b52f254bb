"""Loss-free text serialization for traces, summaries, and sweep tables.

Traces are comma-delimited with one row per slot and a fixed column order:
t, d, N, P, C, served, then A/mu/Q/X per service, then Y and the slot's
total drops (6 + 4K + 2 columns).  Floats are written with 17 significant
digits so parsing returns the exact double and a write/read/write cycle is
byte-identical.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from .engine import SimSummary, Trace


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def trace_columns(num_services: int) -> list[str]:
    cols = ["t", "d", "N", "P", "C", "served"]
    for k in range(num_services):
        cols += [f"A{k}", f"mu{k}", f"Q{k}", f"X{k}"]
    cols += ["Y", "drops"]
    return cols


# Rows formatted per write; bounds the strings alive at once.
_WRITE_CHUNK_ROWS = 2048


def _int_columns(num_services: int) -> set[str]:
    return {"t", "C", "served", "drops"} | {f"{p}{k}" for k in range(num_services) for p in ("A", "mu", "Q")}


def write_trace(trace: Trace, path: str | Path) -> None:
    columns = [trace.slot, trace.distance, trace.noise, trace.power, trace.capacity, trace.served]
    for k in range(trace.num_services):
        columns += [trace.arrivals[:, k], trace.allocation[:, k], trace.queues[:, k], trace.virtual_delay[:, k]]
    columns += [trace.virtual_power, trace.drops]
    # The text `_fmt` gives each value: integers in full, floats with 17 digits.
    formats = [str if np.issubdtype(col.dtype, np.integer) else "{:.17g}".format for col in columns]
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(trace_columns(trace.num_services)) + "\n")
        for start in range(0, len(trace), _WRITE_CHUNK_ROWS):
            stop = start + _WRITE_CHUNK_ROWS
            cells = [map(fmt, col[start:stop].tolist()) for fmt, col in zip(formats, columns)]
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_trace(path: str | Path) -> Trace:
    """Parse a trace file; a malformed one raises ValueError naming the file and the row.

    Rows count from 0 at the first line after the header.  Every row needs
    one field per header column, integer columns whole numbers and float
    columns finite values.  Empty lines may only end the file; a header
    with no rows gives a zero-length trace.
    """
    with open(path, encoding="utf-8") as src:
        header = src.readline().rstrip("\n").split(",")
        if (len(header) - 8) % 4 != 0:
            raise ValueError(f"{path}: {len(header)} columns do not fit the 6 + 4K + 2 trace schema")
        k_count = (len(header) - 8) // 4
        if header != trace_columns(k_count):
            raise ValueError(f"{path}: unexpected trace header")
        ints = _int_columns(k_count)
        dtype = [(name, np.int64 if name in ints else np.float64) for name in header]
        lines = (line for _, line in _numbered_lines(path, src))
        first = next(lines, None)
        if first is None:
            rows = np.zeros(0, dtype=dtype)
        else:
            try:
                rows = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None, dtype=dtype, ndmin=1)
            except ValueError as exc:
                # Locate the fault one field at a time; fall back to numpy's own words.
                src.seek(0)
                src.readline()
                _check_rows(path, header, ints, src)
                raise ValueError(f"{path}: {exc}") from None
    for name, kind in dtype:
        if kind is np.float64:
            bad = np.flatnonzero(~np.isfinite(rows[name]))
            if bad.size:
                raise ValueError(f"{path}: row {bad[0]}, column {name}: non-finite value {float(rows[name][bad[0]])!r}")

    def column(name: str) -> np.ndarray:
        return np.ascontiguousarray(rows[name])

    def per_service(prefix: str, kind) -> np.ndarray:
        out = np.empty((len(rows), k_count), dtype=kind)
        for k in range(k_count):
            out[:, k] = rows[f"{prefix}{k}"]
        return out

    return Trace(
        slot=column("t"),
        distance=column("d"),
        noise=column("N"),
        power=column("P"),
        capacity=column("C"),
        served=column("served"),
        arrivals=per_service("A", np.int64),
        allocation=per_service("mu", np.int64),
        queues=per_service("Q", np.int64),
        virtual_delay=per_service("X", np.float64),
        virtual_power=column("Y"),
        drops=column("drops"),
    )


def _numbered_lines(path, src):
    """(row, line) for each data line; empty lines may only end the file."""
    empty_row = None
    for row, line in enumerate(src):
        if line == "\n":
            if empty_row is None:
                empty_row = row
        elif empty_row is not None:
            raise ValueError(f"{path}: row {empty_row} is empty")
        else:
            yield row, line


def _check_rows(path, header: list[str], ints: set[str], src) -> None:
    """Raise on the first malformed data line in `src`, naming its row and column."""
    k_count = (len(header) - 8) // 4
    is_int = [name in ints for name in header]
    for row, line in _numbered_lines(path, src):
        fields = line.rstrip("\n").split(",")
        if len(fields) != len(header):
            raise ValueError(f"{path}: row {row} has {len(fields)} fields, but the header has {len(header)} columns (K={k_count})")
        for name, integer, raw in zip(header, is_int, fields):
            try:
                value = int(raw) if integer else float(raw)
            except ValueError:
                raise ValueError(f"{path}: row {row}, column {name}: {raw!r} is not {'an integer' if integer else 'a number'}") from None
            if not integer and not math.isfinite(value):
                raise ValueError(f"{path}: row {row}, column {name}: non-finite value {raw!r}")


def write_summary(summary: SimSummary, path: str | Path) -> None:
    def vec(values) -> str:
        return ",".join(_fmt(v) for v in values)

    lines = [
        f"horizon = {summary.horizon}",
        f"avg_power = {_fmt(summary.avg_power)}",
        f"avg_backlog = {vec(summary.avg_backlog)}",
        f"avg_delay = {vec(summary.avg_delay)}",
        f"empirical_rates = {vec(summary.empirical_rates)}",
        f"delay_ok = {vec(int(b) for b in summary.delay_ok)}",
        f"power_ok = {int(summary.power_ok)}",
        f"total_drops = {vec(summary.total_drops)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def read_summary(path: str | Path) -> SimSummary:
    """Parse a summary file; a malformed one raises ValueError naming the file and the field.

    Every line is `key = value`.  Floats must be finite, flags 0 or 1, and
    every per-service vector as long as `avg_backlog`.
    """
    fields: dict[str, str] = {}
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if line.strip():
            key, sep, raw = line.partition(" = ")
            if not sep:
                raise ValueError(f"{path}: line {number} is not 'key = value'")
            fields[key] = raw

    def parse(key: str, convert, length: int | None) -> tuple:
        if key not in fields:
            raise ValueError(f"{path}: summary file missing field {key!r}")
        values = _parse(path, f"field {key}", lambda raw: tuple(map(convert, raw.split(","))), fields[key])
        if length is not None and len(values) != length:
            raise ValueError(f"{path}: field {key} has {len(values)} values, expected {length}")
        return values

    avg_backlog = parse("avg_backlog", _finite, None)
    k_count = len(avg_backlog)
    return SimSummary(
        avg_power=parse("avg_power", _finite, 1)[0],
        avg_backlog=avg_backlog,
        avg_delay=parse("avg_delay", _finite, k_count),
        empirical_rates=parse("empirical_rates", _finite, k_count),
        delay_ok=parse("delay_ok", _flag, k_count),
        power_ok=parse("power_ok", _flag, 1)[0],
        total_drops=parse("total_drops", int, k_count),
        horizon=parse("horizon", int, 1)[0],
    )
