import concurrent.futures
import dataclasses
import hashlib
import math
import os
import re

import numpy as np
import pytest

from railsched import sweep
from railsched.cli import main
from railsched.config import default_config, with_updates
from railsched.engine import run
from railsched.sweep import SWEEP_PARAMETERS, SweepSpec, _run_cell, read_sweep, run_sweep, write_cell_period, write_sweep, write_tradeoff
BASE = with_updates(default_config(), horizon=400, seed=31)

# A compact track (30 m cells) so short test runs still cover whole cell periods.
SMALL_GEOM_INI = """
[geometry]
cell_radius_m = 30
rail_offset_m = 5
[run]
horizon = 1500
seed = 31
"""


def _crash_at_omega_half(config):
    """Sweep cell runner whose worker process dies on the omega = 0.5 cell."""
    if config.omega == 0.5:
        os._exit(1)
    return _run_cell(config)


def _raise_at_omega_half(config):
    """Sweep cell runner that raises on the omega = 0.5 cell."""
    if config.omega == 0.5:
        raise RuntimeError("cell blew up at omega 0.5")
    return _run_cell(config)


class TestSweep:
    def test_single_cell_matches_direct_run(self):
        # cpa-static is not the base policy, and a second replication runs on the next seed
        for parameter, value, key in [("omega", 0.8, "omega"), ("lambda", 7.0, "arrival_rate_pkts"), ("pmax", 40.0, "max_power_w")]:
            spec = SweepSpec(parameter=parameter, values=(value,), policies=("cpa-static",), replications=2)
            table = run_sweep(spec, BASE)
            assert [row.seed for row in table.rows] == [BASE.seed, BASE.seed + 1]
            for row in table.rows:
                _, summary = run(with_updates(BASE, **{key: value}, policy="cpa-static", seed=row.seed), record_trace=False)
                assert row.status == "ok"
                assert row.avg_power == summary.avg_power
                assert row.avg_delay == summary.avg_delay

    def test_grid_is_complete(self):
        spec = SweepSpec(parameter="omega", values=(0.4, 0.8), policies=("proposed", "cpa-dynamic"), replications=2)
        table = run_sweep(spec, BASE)
        assert len(table.rows) == 2 * 2 * 2
        assert not table.failures
        seeds = {row.seed for row in table.rows}
        assert seeds == {31, 32}

    def test_failed_cell_marked_and_rest_continue(self):
        # a 30 W cap cannot host the 36 W average-power budget, and a negative
        # arrival rate is no traffic at all
        for parameter, bad, good, reason in [("pmax", 30.0, 50.0, "avg_power"), ("lambda", -1.0, 20.0, "traffic.arrival_rate_pkts must be finite and non-negative")]:
            spec = SweepSpec(parameter=parameter, values=(bad, good), policies=("proposed",), replications=1)
            table = run_sweep(spec, BASE)
            assert len(table.rows) == 2
            failed = [r for r in table.rows if r.status == "failed"]
            ok = [r for r in table.rows if r.status == "ok"]
            assert len(failed) == 1 and failed[0].value == bad
            assert reason in failed[0].error
            assert len(ok) == 1 and ok[0].value == good

    def test_crashed_worker_fails_only_its_cell(self, monkeypatch, tmp_path):
        # workers are forked, so they inherit the patched cell runner
        monkeypatch.setattr(sweep, "_run_cell", _crash_at_omega_half)
        spec = SweepSpec(parameter="omega", values=(0.2, 0.4, 0.5, 0.6, 0.8, 1.0), policies=("proposed",), replications=1)
        table = run_sweep(spec, BASE, workers=2)
        assert [r.value for r in table.failures] == [0.5]
        assert "terminated abruptly" in table.failures[0].error
        for row in table.rows[:2] + table.rows[3:]:
            assert row.avg_power == _run_cell(with_updates(BASE, omega=row.value)).avg_power
        argv = ["sweep", "--horizon", "200", "--param", "omega", "--values", "0.4,0.5", "--workers", "2", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert [r.status for r in read_sweep(tmp_path / "sweep.csv").rows] == ["ok", "failed"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_cell_fails_only_its_cell(self, monkeypatch, workers):
        # a cell whose run raises keeps its message; the other cell still runs
        monkeypatch.setattr(sweep, "_run_cell", _raise_at_omega_half)
        spec = SweepSpec(parameter="omega", values=(0.5, 0.8), policies=("proposed",), replications=1)
        rows = run_sweep(spec, BASE, workers=workers).rows
        assert [(r.value, r.status, r.error) for r in rows] == [(0.5, "failed", "cell blew up at omega 0.5"), (0.8, "ok", "")]
        assert rows[1].avg_power == _run_cell(with_updates(BASE, omega=0.8)).avg_power

    def test_pool_capped_at_cell_count(self, monkeypatch):
        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        spec = SweepSpec(parameter="omega", values=(0.4, 0.6, 0.8), policies=("proposed",), replications=1)
        table = run_sweep(spec, BASE, workers=1000)
        assert asked == [3]
        assert not table.failures

    def test_parallel_equals_serial(self):
        spec = SweepSpec(parameter="lambda", values=(5.0, 20.0), policies=("proposed",), replications=1)
        serial = run_sweep(spec, BASE, workers=1)
        parallel = run_sweep(spec, BASE, workers=2)
        assert [(r.value, r.avg_power, r.mean_delay) for r in serial.rows] == [
            (r.value, r.avg_power, r.mean_delay) for r in parallel.rows
        ]

    def test_aggregate_mean_and_std(self, tmp_path):
        spec = SweepSpec(parameter="omega", values=(0.8,), policies=("proposed",), replications=3)
        table = run_sweep(spec, BASE)
        write_tradeoff(table, "fig5", tmp_path / "fig5.csv", config=BASE)
        header, *lines = (tmp_path / "fig5.csv").read_text().splitlines()
        assert len(lines) == 1
        row = dict(zip(header.split(","), lines[0].split(",")))
        for field in ("avg_power", "mean_delay"):
            samples = [getattr(r, field) for r in table.rows]
            # %.17g round-trips, so the file holds the statistics bit for bit
            assert float(row[f"{field}_mean"]) == np.mean(samples)
            assert float(row[f"{field}_std"]) == np.std(samples, ddof=1)

    def test_sweep_parameter_sets_its_field(self):
        fields = {"omega": lambda c: c.omega, "lambda": lambda c: c.traffic.arrival_rates, "pmax": lambda c: c.radio.max_power}
        expected = {"omega": 80.0, "lambda": (80.0,) * 6, "pmax": 80.0}
        assert SWEEP_PARAMETERS.keys() == fields.keys()
        for parameter, key in SWEEP_PARAMETERS.items():
            assert fields[parameter](with_updates(BASE, **{key: 80.0})) == expected[parameter]

    def test_table_round_trip(self, tmp_path):
        spec = SweepSpec(parameter="pmax", values=(30.0, 50.0), policies=("proposed",), replications=1)
        table = run_sweep(spec, BASE)
        path = tmp_path / "sweep.csv"
        write_sweep(table, path)
        loaded = read_sweep(path)
        assert [(r.value, r.status, r.avg_delay) for r in loaded.rows] == [
            (r.value, r.status, r.avg_delay) for r in table.rows
        ]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(parameter="volume", values=(1.0,), policies=("proposed",))
        with pytest.raises(ValueError):
            SweepSpec(parameter="omega", values=(), policies=("proposed",))
        with pytest.raises(ValueError):
            SweepSpec(parameter="omega", values=(1.0,), policies=("proposed",), replications=0)
        with pytest.raises(ValueError):
            SweepSpec(parameter="omega", values=(1.0,), policies=())
        # read_sweep refuses a non-finite value, so the spec does too
        with pytest.raises(ValueError, match="values must be finite"):
            SweepSpec(parameter="omega", values=(math.nan, 0.5), policies=("proposed",))
        # a fractional count reached run_sweep as a bare TypeError, a string ran
        # one failed cell per letter, and True ran a cell at omega = 1.0
        with pytest.raises(ValueError, match="replications must be an int"):
            SweepSpec(parameter="omega", values=(1.0,), policies=("proposed",), replications=2.5)
        with pytest.raises(ValueError, match="policies must be a sequence"):
            SweepSpec(parameter="omega", values=(1.0,), policies="proposed")
        with pytest.raises(ValueError, match="values must be numbers"):
            SweepSpec(parameter="omega", values=(0.5, True), policies=("proposed",))


@pytest.fixture(scope="module")
def sweep_lines(tmp_path_factory):
    """Lines of a written sweep table: rows 0 (30 W cap, below the budget) failed, rows 1 and 2 ok."""
    spec = SweepSpec(parameter="pmax", values=(30.0, 50.0, 60.0), policies=("proposed",), replications=1)
    path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    write_sweep(run_sweep(spec, with_updates(BASE, horizon=120)), path)
    return path.read_text().splitlines()


class TestSweepRejectsBadFiles:
    """Each malformed sweep table raises ValueError naming the file and, where one applies, the row and column."""

    @staticmethod
    def write(tmp_path, lines, edit=None):
        lines = list(lines)
        if edit is not None:
            edit(lines)
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def set_field(lines, row, column, value):
        fields = lines[1 + row].split(",", maxsplit=10)
        fields[lines[0].split(",").index(column)] = value
        lines[1 + row] = ",".join(fields)

    def expect(self, path, message):
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_sweep(path)

    def test_failed_row_keeps_nan(self, tmp_path, sweep_lines):
        table = read_sweep(self.write(tmp_path, sweep_lines))
        assert [r.status for r in table.rows] == ["failed", "ok", "ok"]
        assert math.isnan(table.rows[0].avg_power) and table.rows[0].avg_delay == ()

    def test_truncated_row(self, tmp_path, sweep_lines):
        path = self.write(tmp_path, sweep_lines, lambda lines: lines.__setitem__(2, lines[2].rsplit(",", 4)[0]))
        self.expect(path, "row 1 has 7 fields, but the header has 11 columns")

    def test_non_numeric_value(self, tmp_path, sweep_lines):
        path = self.write(tmp_path, sweep_lines, lambda lines: self.set_field(lines, 2, "value", "sixty"))
        self.expect(path, "row 2, column value: could not convert string to float: 'sixty'")

    def test_nan_in_ok_row(self, tmp_path, sweep_lines):
        path = self.write(tmp_path, sweep_lines, lambda lines: self.set_field(lines, 1, "avg_power", "nan"))
        self.expect(path, "row 1, column avg_power: 'nan' is not finite")

    def test_wrong_k(self, tmp_path, sweep_lines):
        path = self.write(tmp_path, sweep_lines, lambda lines: self.set_field(lines, 2, "avg_delay", "1.0;2.0"))
        self.expect(path, "row 2, column avg_delay: 2 values, but earlier rows have 6")

    def test_bad_status(self, tmp_path, sweep_lines):
        path = self.write(tmp_path, sweep_lines, lambda lines: self.set_field(lines, 1, "status", "done"))
        self.expect(path, "row 1, column status: 'done' is not 'ok' or 'failed'")

    def test_bad_flag(self, tmp_path, sweep_lines):
        path = self.write(tmp_path, sweep_lines, lambda lines: self.set_field(lines, 1, "power_ok", "2"))
        self.expect(path, "row 1, column power_ok: '2' is not 0 or 1")

    def test_bad_header(self, tmp_path, sweep_lines):
        path = self.write(tmp_path, sweep_lines, lambda lines: lines.__setitem__(0, lines[0].replace("seed", "sed")))
        self.expect(path, "unexpected sweep header")

    def test_not_utf8(self, tmp_path, sweep_lines, capsys):
        path = self.write(tmp_path, sweep_lines)
        path.write_bytes(path.read_bytes().replace(b"ok", b"\xff", 1))
        self.expect(path, "'utf-8' codec can't decode byte 0xff")
        assert main(["plotdata", "--figure", "fig4", "--source", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_plotdata_exit_code(self, tmp_path, sweep_lines, capsys):
        path = self.write(tmp_path, sweep_lines, lambda lines: lines.__setitem__(2, lines[2].rsplit(",", 4)[0]))
        assert main(["plotdata", "--figure", "fig6", "--source", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path}: row 1 has 7 fields" in capsys.readouterr().err


class TestPlotData:
    def test_fig5_reference_columns(self, tmp_path):
        spec = SweepSpec(parameter="omega", values=(0.4, 0.8), policies=("proposed",), replications=1)
        table = run_sweep(spec, BASE)
        out = tmp_path / "fig5.csv"
        write_tradeoff(table, "fig5", out, config=BASE)
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[-2:] == ["p_av_ref", "w_av_ref"]
        for line in lines[1:]:
            assert line.split(",")[-2:] == ["36", "15"]

    def test_fig4_from_lambda_sweep(self, tmp_path):
        spec = SweepSpec(parameter="lambda", values=(5.0, 20.0), policies=("proposed", "cpa-dynamic"), replications=1)
        table = run_sweep(spec, BASE)
        out = tmp_path / "fig4.csv"
        write_tradeoff(table, "fig4", out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lambda,policy,")
        assert len(lines) == 1 + 2 * 2

    def test_wrong_parameter_is_missing_series(self, tmp_path):
        spec = SweepSpec(parameter="omega", values=(0.8,), policies=("proposed",), replications=1)
        table = run_sweep(spec, BASE)
        out = tmp_path / "fig4.csv"
        with pytest.raises(ValueError):
            write_tradeoff(table, "fig4", out)
        assert not out.exists()

    def test_tradeoff_rejects_unplottable_input(self, tmp_path):
        spec = SweepSpec(parameter="omega", values=(0.8,), policies=("proposed",), replications=1)
        table = run_sweep(spec, BASE)
        failed = sweep.SweepTable(rows=[dataclasses.replace(table.rows[0], status="failed")])
        out = tmp_path / "fig5.csv"
        for source, figure, config, message in [
            (table, "fig3", BASE, r"figure must be one of \('fig4', 'fig5', 'fig6'\)"),
            (table, "fig5", None, "fig5 needs the scenario config"),
            (failed, "fig5", BASE, "fig5: no successful sweep cells to plot"),
        ]:
            with pytest.raises(ValueError, match=message):
                write_tradeoff(source, figure, out, config=config)
        assert not out.exists()

    def test_fig3_window(self, tmp_path):
        small = _small_config(tmp_path)
        trace, _ = run(small)
        out = tmp_path / "fig3.csv"
        write_cell_period(trace, small, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,P,C,mean_Q"
        assert len(lines) == 1 + small.geometry.period_slots

    def test_fig3_window_start_override(self, tmp_path):
        small = _small_config(tmp_path)
        trace, _ = run(small)
        out = tmp_path / "fig3.csv"
        write_cell_period(trace, small, out, window_start=250)
        assert out.read_text().splitlines()[1].split(",")[0] == "250"

    def test_fig3_window_beyond_trace(self, tmp_path):
        small = _small_config(tmp_path)
        trace, _ = run(small)
        with pytest.raises(ValueError):
            write_cell_period(trace, small, tmp_path / "x.csv", window_start=10**6)
        assert not (tmp_path / "x.csv").exists()

    def test_fig3_empty_trace(self, tmp_path):
        # the cell period is at least one slot, so the window check rejects an empty trace
        small = _small_config(tmp_path)
        trace, _ = run(small)
        empty = dataclasses.replace(
            trace,
            **{name: getattr(trace, name)[:0] for name in ("slot", "distance", "noise", "power", "capacity", "served", "arrivals", "allocation", "queues", "virtual_delay", "virtual_power", "drops")},
        )
        with pytest.raises(ValueError, match=r"^window \[0, \d+\) outside the trace of 0 slots$"):
            write_cell_period(empty, small, tmp_path / "y.csv")
        assert not (tmp_path / "y.csv").exists()


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# SHA-256 of each written file, generated before the sweep table and the
# figure columns were each laid out in one table.  sweep_lambda.csv was
# pinned again when config errors began with their `section.key`: only the
# error text of its four failed rows changed.
PINNED_SWEEP_OUTPUTS = {
    "sweep_pmax.csv": "e5850cad11aa5ffb68cc845e74e0e9f6cae81f5e72bb024337a34084bb4dda84",
    "sweep_lambda.csv": "caa88647676fdf920734ef6a4ba74464674f06b35ccc01e93993cf2f3ba0662c",
    "sweep_omega.csv": "4f3130fa36ae1d847169cb29975aad46595d1d005838eb5908465d33b1494e6d",
    "fig3.csv": "c131d15678d5f3b12f8d17512be7c5889899c7f8f3e0b60ef22a17a3ff1faa42",
    "fig4.csv": "9f11f96d6e8b2c4f06ed02f676c25e5523e9379900a5a4125c75e1ea3e490a13",
    "fig5.csv": "5d9320f9708f84e37d86433f702f8a52c3c2c4a2a41219cb4a6bc228a9616349",
    "fig6.csv": "1d3af8478fb9e7a5f3d08e37a460be27b837b81ac147ad3c00839bd56fd911f0",
}


class TestOutputsPinned:
    def test_sweep_and_figure_files_pinned(self, tmp_path):
        """sweep.csv and the fig3-fig6 files stay byte-identical, and a sweep file reads back to the same bytes.

        The pmax sweep's 30 W cells fail (the 36 W budget exceeds the cap)
        and the lambda sweep's -1 cells fail with commas in their error, so
        failed rows, with their NaN fields and escaped error text, are
        pinned too.
        """
        base = with_updates(BASE, horizon=200)
        sweeps = {
            "pmax": ((30.0, 50.0), "fig6"),
            "lambda": ((-1.0, 20.0), "fig4"),
            "omega": ((0.4, 0.8), "fig5"),
        }
        for parameter, (values, figure) in sweeps.items():
            spec = SweepSpec(parameter=parameter, values=values, policies=("proposed", "cpa-dynamic"), replications=2)
            path = tmp_path / f"sweep_{parameter}.csv"
            write_sweep(run_sweep(spec, base), path)
            write_sweep(read_sweep(path), tmp_path / "again.csv")
            assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
            write_tradeoff(read_sweep(path), figure, tmp_path / f"{figure}.csv", config=base)
        small = _small_config(tmp_path)
        write_cell_period(run(small)[0], small, tmp_path / "fig3.csv", window_start=250)
        assert {name: _digest(tmp_path / name) for name in PINNED_SWEEP_OUTPUTS} == PINNED_SWEEP_OUTPUTS


class TestLoadTrends:
    def test_heavier_load_needs_more_power_and_waits_longer(self):
        # one cell period per run keeps this cheap but representative
        config = with_updates(default_config(), horizon=30_000, seed=31)
        spec = SweepSpec(parameter="lambda", values=(10.0, 20.0, 25.0), policies=("proposed",), replications=1)
        rows = sorted(run_sweep(spec, config).rows, key=lambda r: r.value)
        powers = [r.avg_power for r in rows]
        delays = [r.mean_delay for r in rows]
        assert powers == sorted(powers)
        assert delays == sorted(delays)


def _small_config(tmp_path):
    from railsched.config import load_config

    path = tmp_path / "small.ini"
    path.write_text(SMALL_GEOM_INI)
    return load_config(path)


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nhorizon = 200\nseed = 5\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "summary.txt").exists()
        assert "avg power" in capsys.readouterr().out

    def test_run_reports_drops(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[traffic]\nbuffer_cap_pkts = 15\navg_power_w = 0.5\n")
        assert main(["run", "--config", str(cfg), "--horizon", "300", "--no-trace", "--out", str(tmp_path / "out")]) == 0
        assert "dropped packets per service: (" in capsys.readouterr().out

    def test_run_is_deterministic_end_to_end(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nhorizon = 200\nseed = 5\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    def test_run_policy_and_horizon_flags(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--policy", "cpa-static", "--horizon", "150", "--seed", "3", "--out", str(out), "--no-trace"])
        assert code == 0
        assert not (out / "trace.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "avg_power = 36" in summary

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[radio]\nmax_power_w = 1\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_sweep_partial_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nhorizon = 120\n")
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--param",
                "pmax",
                "--values",
                "30,50",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3
        assert (tmp_path / "sweep.csv").exists()

    def test_sweep_bad_value_exit_code(self, tmp_path):
        # the -1 cell fails on its arrival rate; the sweep still writes the other
        assert main(["sweep", "--horizon", "120", "--param", "lambda", "--values=-1,20", "--out", str(tmp_path)]) == 3
        rows = read_sweep(tmp_path / "sweep.csv").rows
        assert [(r.value, r.status) for r in rows] == [(-1.0, "failed"), (20.0, "ok")]
        assert rows[0].error.startswith("traffic.arrival_rate_pkts ")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--values", "abc"),
            ("--values", "nan,0.5"),
            ("--reps", "0"),
            ("--param", "bogus"),
            ("--seed", "x"),
            ("--seed", "-1"),
            ("--horizon", "0"),
            ("--workers", "0"),
            ("--workers", "-3"),
        ],
    )
    def test_malformed_command_line_exit_code(self, tmp_path, capsys, flag, value):
        argv = ["sweep", "--horizon", "120", "--param", "omega", "--values", "0.8", "--out", str(tmp_path), flag, value]
        assert main(argv) == 1
        assert f"config error: argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_takes_no_policy_flag(self, tmp_path, capsys):
        # each cell's policy comes from --policies
        argv = ["sweep", "--horizon", "120", "--policy", "cpa-static", "--param", "omega", "--values", "0.8", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "config error: unrecognized arguments: --policy cpa-static" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_plotdata_window_start_range_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "small.ini"
        cfg.write_text(SMALL_GEOM_INI)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        argv = ["plotdata", "--figure", "fig3", "--source", str(tmp_path / "trace.csv"), "--config", str(cfg), "--out", str(tmp_path)]
        assert main([*argv, "--window-start", "-5"]) == 1
        assert "config error: argument --window-start: expected a whole number >= 0, got '-5'" in capsys.readouterr().err
        assert not (tmp_path / "fig3.csv").exists()
        assert main([*argv, "--window-start", "0"]) == 0

    def test_sweep_bad_policy_fails_its_cells(self, tmp_path):
        argv = ["sweep", "--horizon", "120", "--param", "omega", "--values", "0.4,0.8", "--policies", "proposed,bogus", "--out", str(tmp_path)]
        assert main(argv) == 3
        rows = read_sweep(tmp_path / "sweep.csv").rows
        assert [(r.policy, r.status) for r in rows] == [("proposed", "ok"), ("bogus", "failed")] * 2
        assert all(r.error.startswith("run.policy 'bogus'") for r in rows if r.status == "failed")

    def test_sweep_and_plotdata_pipeline(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nhorizon = 120\n")
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(cfg),
                    "--param",
                    "omega",
                    "--values",
                    "0.4,0.8",
                    "--policies",
                    "proposed",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        code = main(
            [
                "plotdata",
                "--figure",
                "fig5",
                "--source",
                str(tmp_path / "sweep.csv"),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "fig5.csv").exists()

    def test_plotdata_fig3_pipeline(self, tmp_path):
        cfg = tmp_path / "small.ini"
        cfg.write_text(SMALL_GEOM_INI)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        code = main(
            [
                "plotdata",
                "--figure",
                "fig3",
                "--source",
                str(tmp_path / "trace.csv"),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "fig3.csv").read_text().splitlines()[0] == "t,P,C,mean_Q"

    def test_plotdata_missing_series_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nhorizon = 120\n")
        assert (
            main(["sweep", "--config", str(cfg), "--param", "omega", "--values", "0.8", "--out", str(tmp_path)]) == 0
        )
        code = main(["plotdata", "--figure", "fig4", "--source", str(tmp_path / "sweep.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["selftest"], "argument command: invalid choice: 'selftest'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["selftest", "bogus", "missing"],
    )
    def test_unknown_or_missing_command_exit_code(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
