"""Loss-free text serialization for traces, and the run summary file.

Traces are comma-delimited with one row per slot and a fixed column order:
t, d, N, P, C, served, then A/mu/Q/X per service, then Y and the slot's
total drops (6 + 4K + 2 columns), listed once in a table below that both
the writer and the reader follow.  Summaries are `field = value` lines,
written for people and other tools; nothing here reads them back.  Floats
are written with 17 significant digits so parsing returns the exact double
and a write/read/write cycle is byte-identical.

Many float columns hold only whole numbers: X adds whole backlogs and
drains a whole W_k * lambda_k at the defaults.  `%.17g` prints a whole
double in [0, 2**53) as the digits `%d` prints for it, and `%d` of an int
costs less, so in each write chunk where a float column holds only such
doubles the writer prints it with `%d` from an int64 copy.  -0.0 keeps
`%.17g`, which writes it as "-0".
"""

from __future__ import annotations

import contextlib
import itertools
import math
from pathlib import Path

import numpy as np

from .engine import SimSummary, Trace


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


# The trace schema: (column, Trace field, integer) for the columns before
# the services, for each service's columns (named with the service index
# appended), and for the columns after them.
_HEAD = (("t", "slot", True), ("d", "distance", False), ("N", "noise", False), ("P", "power", False), ("C", "capacity", True), ("served", "served", True))
_SERVICE = (("A", "arrivals", True), ("mu", "allocation", True), ("Q", "queues", True), ("X", "virtual_delay", False))
_TAIL = (("Y", "virtual_power", False), ("drops", "drops", True))


def _trace_schema(num_services: int) -> list[tuple[str, str, bool, int | None]]:
    """(column, Trace field, integer, service index or None) for every column in file order."""
    per_service = [(f"{column}{k}", name, integer, k) for k in range(num_services) for column, name, integer in _SERVICE]
    return [(*field, None) for field in _HEAD] + per_service + [(*field, None) for field in _TAIL]


def trace_columns(num_services: int) -> list[str]:
    return [column for column, *_ in _trace_schema(num_services)]


# Rows formatted per write; bounds the strings alive at once.
_WRITE_CHUNK_ROWS = 2048


def write_trace(trace: Trace, path: str | Path) -> None:
    schema = _trace_schema(trace.num_services)
    columns = [getattr(trace, name) if k is None else getattr(trace, name)[:, k] for _, name, _, k in schema]
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(trace_columns(trace.num_services)) + "\n")
        for start in range(0, len(trace), _WRITE_CHUNK_ROWS):
            chunk = [col[start : start + _WRITE_CHUNK_ROWS] for col in columns]
            # One row's text as `_fmt` gives each value: integers in full, floats
            # with 17 digits, or with `%d` where the chunk's column is whole
            # (the same text, cheaper; see the module docstring).
            whole = [integer or _whole(col) for (_, _, integer, _), col in zip(schema, chunk)]
            row = ",".join("%d" if w else "%.17g" for w in whole) + "\n"
            values = [(col.astype(np.int64, copy=False) if w else col).tolist() for w, col in zip(whole, chunk)]
            out.write("".join(map(row.__mod__, zip(*values))))


def _whole(values: np.ndarray) -> bool:
    """Every value is a whole double in [0, 2**53) with no sign bit, so `%d` of it is its `%.17g` text."""
    return bool(np.all((values < 2.0**53) & (values == np.trunc(values)) & ~np.signbit(values)))


def read_trace(path: str | Path) -> Trace:
    """Parse a trace file; a malformed one raises ValueError naming the file and the row.

    Rows count from 0 at the first line after the header.  Every row needs
    one field per header column, integer columns whole numbers and float
    columns finite values.  Empty lines may only end the file; a header
    with no rows gives a zero-length trace.
    """
    with _named_decode_errors(path), open(path, encoding="utf-8") as src:
        header = src.readline().rstrip("\n").split(",")
        k_count, extra = divmod(len(header) - len(_HEAD) - len(_TAIL), len(_SERVICE))
        if extra or k_count < 1:
            raise ValueError(f"{path}: {len(header)} columns do not fit the 6 + 4K + 2 trace schema with K >= 1")
        schema = _trace_schema(k_count)
        if header != trace_columns(k_count):
            raise ValueError(f"{path}: unexpected trace header")
        dtype = [(column, np.int64 if integer else np.float64) for column, _, integer, _ in schema]
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
                _check_rows(path, schema, k_count, src)
                raise ValueError(f"{path}: {exc}") from None
    fields = {}
    for column, name, integer, k in schema:
        values = rows[column]
        if not integer:
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{path}: row {bad[0]}, column {column}: non-finite value {float(values[bad[0]])!r}")
        if k is None:
            fields[name] = np.ascontiguousarray(values)
        else:
            fields.setdefault(name, np.empty((len(rows), k_count), dtype=values.dtype))[:, k] = values
    return Trace(**fields)


@contextlib.contextmanager
def _named_decode_errors(path):
    """Re-raise a file that is not UTF-8 as a ValueError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


def _check_rows(path, schema: list[tuple[str, str, bool, int | None]], k_count: int, src) -> None:
    """Raise on the first malformed data line in `src`, naming its row and column."""
    for row, line in _numbered_lines(path, src):
        fields = line.rstrip("\n").split(",")
        if len(fields) != len(schema):
            raise ValueError(f"{path}: row {row} has {len(fields)} fields, but the header has {len(schema)} columns (K={k_count})")
        for (name, _, integer, _), raw in zip(schema, fields):
            try:
                value = int(raw) if integer else float(raw)
                # Python also takes non-ASCII digits, `_` and any int size; numpy does not.
                if not raw.isascii() or "_" in raw or (integer and not -(2**63) <= value < 2**63):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: row {row}, column {name}: {raw!r} is not {'an integer' if integer else 'a number'}") from None
            if not integer and not math.isfinite(value):
                raise ValueError(f"{path}: row {row}, column {name}: non-finite value {raw!r}")


def write_summary(summary: SimSummary, path: str | Path) -> None:
    lines = []
    for name in _SUMMARY_FIELDS:
        value = getattr(summary, name)
        lines.append(f"{name} = {','.join(map(_fmt, value if isinstance(value, tuple) else (value,)))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# The summary file's SimSummary fields in order; a tuple field is written
# one value per service, comma-separated.
_SUMMARY_FIELDS = ("horizon", "avg_power", "avg_backlog", "avg_delay", "empirical_rates", "delay_ok", "power_ok", "total_drops")
