import concurrent.futures
import math
import os
import re

import numpy as np
import pytest

from railsched import sweep
from railsched.cli import main
from railsched.config import default_config, with_updates
from railsched.engine import run
from railsched.sweep import SweepSpec, _run_cell, apply_parameter, emit_plotdata, read_sweep, run_sweep, write_sweep
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


def _crash_at_omega_half(config, policy, seed):
    """Sweep cell runner whose worker process dies on the omega = 0.5 cell."""
    if config.omega == 0.5:
        os._exit(1)
    return _run_cell(config, policy, seed)


class TestSweep:
    def test_single_cell_matches_direct_run(self):
        spec = SweepSpec(parameter="omega", values=(0.8,), policies=("proposed",), replications=1)
        table = run_sweep(spec, BASE)
        assert len(table.rows) == 1
        row = table.rows[0]
        _, summary = run(BASE, policy="proposed", seed=BASE.seed, record_trace=False)
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
        for parameter, bad, good, reason in [("pmax", 30.0, 50.0, "avg_power"), ("lambda", -1.0, 20.0, "traffic: arrival rates")]:
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
            assert row.avg_power == _run_cell(apply_parameter(BASE, "omega", row.value), "proposed", BASE.seed)[0]
        argv = ["sweep", "--horizon", "200", "--param", "omega", "--values", "0.4,0.5", "--workers", "2", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert [r.status for r in read_sweep(tmp_path / "sweep.csv").rows] == ["ok", "failed"]

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

    def test_aggregate_mean_and_std(self):
        spec = SweepSpec(parameter="omega", values=(0.8,), policies=("proposed",), replications=3)
        table = run_sweep(spec, BASE)
        agg = table.aggregate()
        assert len(agg) == 1
        powers = [r.avg_power for r in table.rows]
        assert agg[0]["avg_power_mean"] == pytest.approx(np.mean(powers))
        assert agg[0]["avg_power_std"] == pytest.approx(np.std(powers, ddof=1))
        assert agg[0]["replications"] == 3

    def test_apply_parameter(self):
        assert apply_parameter(BASE, "omega", 0.3).omega == 0.3
        assert apply_parameter(BASE, "lambda", 7.0).traffic.arrival_rates == (7.0,) * 6
        assert apply_parameter(BASE, "pmax", 80.0).radio.max_power == 80.0

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

    def test_plotdata_exit_code(self, tmp_path, sweep_lines, capsys):
        path = self.write(tmp_path, sweep_lines, lambda lines: lines.__setitem__(2, lines[2].rsplit(",", 4)[0]))
        assert main(["plotdata", "--figure", "fig6", "--source", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path}: row 1 has 7 fields" in capsys.readouterr().err


class TestPlotData:
    def test_fig5_reference_columns(self, tmp_path):
        spec = SweepSpec(parameter="omega", values=(0.4, 0.8), policies=("proposed",), replications=1)
        table = run_sweep(spec, BASE)
        out = tmp_path / "fig5.csv"
        emit_plotdata(table, "fig5", out, config=BASE)
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[-2:] == ["p_av_ref", "w_av_ref"]
        for line in lines[1:]:
            assert line.split(",")[-2:] == ["36", "15"]

    def test_fig4_from_lambda_sweep(self, tmp_path):
        spec = SweepSpec(parameter="lambda", values=(5.0, 20.0), policies=("proposed", "cpa-dynamic"), replications=1)
        table = run_sweep(spec, BASE)
        out = tmp_path / "fig4.csv"
        emit_plotdata(table, "fig4", out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lambda,policy,")
        assert len(lines) == 1 + 2 * 2

    def test_wrong_parameter_is_missing_series(self, tmp_path):
        spec = SweepSpec(parameter="omega", values=(0.8,), policies=("proposed",), replications=1)
        table = run_sweep(spec, BASE)
        out = tmp_path / "fig4.csv"
        with pytest.raises(ValueError):
            emit_plotdata(table, "fig4", out)
        assert not out.exists()

    def test_fig3_window(self, tmp_path):
        small = _small_config(tmp_path)
        trace, _ = run(small)
        out = tmp_path / "fig3.csv"
        emit_plotdata(trace, "fig3", out, config=small)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,P,C,mean_Q"
        assert len(lines) == 1 + small.geometry.period_slots

    def test_fig3_window_start_override(self, tmp_path):
        small = _small_config(tmp_path)
        trace, _ = run(small)
        out = tmp_path / "fig3.csv"
        emit_plotdata(trace, "fig3", out, config=small, window_start=250)
        assert out.read_text().splitlines()[1].split(",")[0] == "250"

    def test_fig3_window_beyond_trace(self, tmp_path):
        small = _small_config(tmp_path)
        trace, _ = run(small)
        with pytest.raises(ValueError):
            emit_plotdata(trace, "fig3", tmp_path / "x.csv", config=small, window_start=10**6)
        assert not (tmp_path / "x.csv").exists()

    def test_fig3_empty_trace(self, tmp_path):
        import dataclasses

        small = _small_config(tmp_path)
        trace, _ = run(small)
        empty = dataclasses.replace(
            trace,
            **{name: getattr(trace, name)[:0] for name in ("slot", "distance", "noise", "power", "capacity", "served", "arrivals", "allocation", "queues", "virtual_delay", "virtual_power", "drops")},
        )
        with pytest.raises(ValueError):
            emit_plotdata(empty, "fig3", tmp_path / "y.csv", config=small)
        assert not (tmp_path / "y.csv").exists()


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
        assert rows[0].error.startswith("traffic: ")

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

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
