import re

import numpy as np
import pytest

from railsched.config import ConfigError, default_config, load_config, with_updates
from railsched.engine import replay_check, run
from railsched.traceio import _fmt, read_summary, read_trace, trace_columns, write_summary, write_trace


class TestDefaults:
    def test_builtin_defaults(self):
        cfg = default_config()
        assert cfg.traffic.avg_power == 36.0
        assert cfg.radio.bandwidth == 5e6
        assert cfg.radio.packet_bits == 240.0
        assert cfg.geometry.slot_duration == 1e-3
        assert cfg.radio.pathloss_exp == 4.0
        assert cfg.radio.noise_psd == pytest.approx(10 ** (-17.4) * 1e-3, rel=1e-12)
        assert cfg.geometry.speed == pytest.approx(100.0)  # 360 km/h
        assert cfg.geometry.cell_radius == 1500.0
        assert cfg.geometry.rail_offset == 50.0
        assert cfg.traffic.num_services == 6

    def test_eta_computed(self):
        assert default_config().radio.eta == pytest.approx(0.048, rel=1e-15)

    def test_empty_file_equals_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert load_config(path) == default_config()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")


class TestLoading:
    def test_single_override(self, tmp_path):
        path = tmp_path / "omega.ini"
        path.write_text("[control]\nomega = 0.4\n")
        cfg = load_config(path)
        assert cfg.omega == 0.4
        assert with_updates(cfg, omega=0.8) == default_config()

    def test_keyword_overrides(self):
        cfg = load_config(None, seed=9, **{"control.omega": 0.2})
        assert cfg.seed == 9 and cfg.omega == 0.2

    def test_rate_vector(self, tmp_path):
        path = tmp_path / "rates.ini"
        path.write_text("[traffic]\nnum_services = 3\narrival_rate_pkts = 5, 10, 15\ndelay_bound_slots = 15\n")
        cfg = load_config(path)
        assert cfg.traffic.arrival_rates == (5.0, 10.0, 15.0)
        assert cfg.traffic.delay_bounds == (15.0, 15.0, 15.0)

    def test_rate_vector_wrong_length(self, tmp_path):
        path = tmp_path / "rates.ini"
        path.write_text("[traffic]\nnum_services = 3\narrival_rate_pkts = 5, 10\n")
        with pytest.raises(ConfigError, match="arrival_rate_pkts"):
            load_config(path)

    def test_eta_consistency_accepted(self, tmp_path):
        path = tmp_path / "eta.ini"
        path.write_text("[radio]\neta = 0.048\n")
        assert load_config(path).radio.eta == pytest.approx(0.048)

    def test_eta_mismatch_rejected(self, tmp_path):
        path = tmp_path / "eta.ini"
        path.write_text("[radio]\neta = 0.05\n")
        with pytest.raises(ConfigError, match="eta"):
            load_config(path)

    def test_avg_power_above_cap_rejected(self, tmp_path):
        path = tmp_path / "power.ini"
        path.write_text("[radio]\nmax_power_w = 30\n")
        with pytest.raises(ConfigError, match="avg_power_w"):
            load_config(path)

    def test_pathloss_exponent_floor(self, tmp_path):
        path = tmp_path / "alpha.ini"
        path.write_text("[radio]\npathloss_exp = 1.5\n")
        with pytest.raises(ConfigError, match="pathloss_exp"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "weird.ini"
        path.write_text("[radio]\nbandwidht_hz = 5e6\n")
        with pytest.raises(ConfigError, match="bandwidht"):
            load_config(path)

    def test_epsilon_rejected(self, tmp_path):
        # the slot solve is exact, so the old search-width knob is an unknown key
        path = tmp_path / "eps.ini"
        path.write_text("[control]\nepsilon = 0.001\n")
        with pytest.raises(ConfigError, match=r"control\.epsilon"):
            load_config(path)
        with pytest.raises(ConfigError, match=r"control\.epsilon"):
            load_config(**{"control.epsilon": 0.001})
        with pytest.raises(ConfigError, match="epsilon"):
            load_config(epsilon=0.001)
        with pytest.raises(ConfigError, match="epsilon"):
            with_updates(default_config(), epsilon=0.001)

    def test_bad_policy_rejected(self, tmp_path):
        path = tmp_path / "pol.ini"
        path.write_text("[run]\npolicy = psychic\n")
        with pytest.raises(ConfigError, match="policy"):
            load_config(path)


class TestValidation:
    """File loading and `with_updates` share one validator; each error names its field."""

    @pytest.mark.parametrize("omega", [-1.0, float("nan"), float("inf")])
    def test_bad_omega(self, omega):
        with pytest.raises(ConfigError, match=r"control\.omega must be finite and non-negative"):
            with_updates(default_config(), omega=omega)
        with pytest.raises(ConfigError, match=r"control\.omega must be finite and non-negative"):
            load_config(omega=str(omega))

    def test_bad_horizon(self):
        with pytest.raises(ConfigError, match=r"run\.horizon must be >= 1"):
            with_updates(default_config(), horizon=0)
        with pytest.raises(ConfigError, match=r"run\.horizon must be >= 1"):
            load_config(horizon=0)

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match=r"run\.policy 'banana' not one of"):
            with_updates(default_config(), policy="banana")
        with pytest.raises(ConfigError, match=r"run\.policy 'banana' not one of"):
            load_config(policy="banana")

    def test_avg_power_above_cap(self):
        with pytest.raises(ConfigError, match=r"traffic\.avg_power_w = 60.0 exceeds radio\.max_power_w = 50.0"):
            with_updates(default_config(), avg_power=60.0)
        with pytest.raises(ConfigError, match=r"traffic\.avg_power_w = nan exceeds"):
            with_updates(default_config(), avg_power=float("nan"))

    @pytest.mark.parametrize(
        "field, value, section",
        [("arrival_rate", -1.0, "traffic"), ("delay_bound", 0.0, "traffic"), ("avg_power", -1.0, "traffic"), ("max_power", -1.0, "radio")],
    )
    def test_bad_field_value(self, field, value, section):
        # the dataclass checks surface as a ConfigError naming the section, as on load
        with pytest.raises(ConfigError, match=rf"^{section}: "):
            with_updates(default_config(), **{field: value})

    @pytest.mark.parametrize("max_power", [0.0, float("nan"), float("inf")])
    def test_bad_max_power(self, max_power):
        with pytest.raises(ConfigError, match=r"radio\.max_power_w must be finite and positive"):
            with_updates(default_config(), max_power=max_power)
        with pytest.raises(ConfigError, match=r"radio\.max_power_w must be finite and positive"):
            load_config(max_power_w=str(max_power))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "geometry.cell_radius_m",
            "geometry.rail_offset_m",
            "geometry.speed_kmh",
            "geometry.slot_duration_s",
            "radio.bandwidth_hz",
            "radio.noise_psd_dbm_hz",
            "radio.pathloss_exp",
            "radio.packet_bits",
            "traffic.arrival_rate_pkts",
            "traffic.delay_bound_slots",
            "traffic.avg_power_w",
        ],
    )
    def test_non_finite_field_rejected(self, key, value):
        # `x < 0` and `x <= 0` let NaN through: a NaN rate once loaded and
        # died mid-run, and a NaN delay bound ran to the end as "missed"
        section = key.split(".")[0]
        with pytest.raises(ConfigError, match=rf"^{section}[.:]"):
            load_config(**{key: value})


@pytest.fixture(scope="module")
def short_run():
    config = with_updates(default_config(), horizon=300, seed=21)
    trace, summary = run(config)
    return config, trace, summary


class TestTraceRoundTrip:
    def test_write_read_write_bytes_identical(self, tmp_path, short_run):
        _, trace, _ = short_run
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_trace(trace, first)
        write_trace(read_trace(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_writer_matches_row_by_row_reference(self, tmp_path):
        # Reference: format every value on its own, row by row; 2049 rows
        # cross the writer's 2048-row chunk boundary.
        config = with_updates(default_config(), horizon=2049, seed=5)
        trace, _ = run(config, policy="wfpa-static")
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        lines = [",".join(trace_columns(trace.num_services))]
        for t in range(len(trace)):
            row = [trace.slot[t], trace.distance[t], trace.noise[t], trace.power[t], trace.capacity[t], trace.served[t]]
            for k in range(trace.num_services):
                row += [trace.arrivals[t, k], trace.allocation[t, k], trace.queues[t, k], trace.virtual_delay[t, k]]
            row += [trace.virtual_power[t], trace.drops[t]]
            lines.append(",".join(_fmt(v) for v in row))
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_column_schema(self, short_run):
        _, trace, _ = short_run
        cols = trace_columns(trace.num_services)
        assert len(cols) == 6 + 4 * trace.num_services + 2
        assert len(set(cols)) == len(cols)
        assert cols[:6] == ["t", "d", "N", "P", "C", "served"]
        assert cols[-2:] == ["Y", "drops"]

    def test_header_row_matches_schema(self, tmp_path, short_run):
        _, trace, _ = short_run
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == trace_columns(trace.num_services)

    def test_values_parse_back_exactly(self, tmp_path, short_run):
        _, trace, _ = short_run
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert np.array_equal(loaded.virtual_delay, trace.virtual_delay)
        assert np.array_equal(loaded.power, trace.power)
        assert np.array_equal(loaded.distance, trace.distance)
        assert np.array_equal(loaded.noise, trace.noise)
        assert np.array_equal(loaded.arrivals, trace.arrivals)

    def test_loaded_trace_replays(self, tmp_path, short_run):
        config, trace, _ = short_run
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        replay_check(read_trace(path), config)

    def test_mangled_header_rejected(self, tmp_path, short_run):
        _, trace, _ = short_run
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        body = path.read_text().splitlines()
        body[0] = body[0].replace("served", "sreved")
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(ValueError):
            read_trace(path)


class TestTraceRejectsBadFiles:
    """Each malformed trace raises ValueError naming the file and, where one applies, the row."""

    def write_edited(self, tmp_path, trace, edit):
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def set_field(lines, row, column, value):
        header = lines[0].split(",")
        fields = lines[1 + row].split(",")
        fields[header.index(column)] = value
        lines[1 + row] = ",".join(fields)

    def test_truncated_row(self, tmp_path, short_run):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: lines.__setitem__(8, lines[8].rsplit(",", 3)[0]))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: row 7 has 29 fields, but the header has 32 columns"):
            read_trace(path)

    def test_non_numeric_field(self, tmp_path, short_run):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: self.set_field(lines, 12, "P", "fast"))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: row 12, column P: 'fast' is not a number"):
            read_trace(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float(self, tmp_path, short_run, value):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: self.set_field(lines, 40, "X3", value))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: row 40, column X3: non-finite value"):
            read_trace(path)

    def test_fractional_int(self, tmp_path, short_run):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: self.set_field(lines, 5, "Q2", "3.5"))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: row 5, column Q2: '3.5' is not an integer"):
            read_trace(path)

    def test_header_with_wrong_k(self, tmp_path, short_run):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: lines.__setitem__(0, ",".join(trace_columns(5))))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: row 0 has 32 fields, but the header has 28 columns \(K=5\)"):
            read_trace(path)

    def test_interior_empty_line(self, tmp_path, short_run):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: lines.insert(4, ""))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: row 3 is empty"):
            read_trace(path)

    def test_header_only_is_empty_trace(self, tmp_path, short_run):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: lines.__delitem__(slice(1, None)))
        trace = read_trace(path)
        assert len(trace) == 0
        assert trace.num_services == short_run[1].num_services
        assert trace.queues.shape == (0, 6)


class TestSummaryRoundTrip:
    def test_write_read_write_bytes_identical(self, tmp_path, short_run):
        _, _, summary = short_run
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_summary(summary, first)
        write_summary(read_summary(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_fields_survive(self, tmp_path, short_run):
        _, _, summary = short_run
        path = tmp_path / "s.txt"
        write_summary(summary, path)
        loaded = read_summary(path)
        assert loaded == summary

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("avg_power = 1.0\n")
        with pytest.raises(ValueError):
            read_summary(path)


class TestSummaryRejectsBadFiles:
    """Each malformed summary raises ValueError naming the file and the field."""

    def expect(self, tmp_path, summary, edit, message):
        path = tmp_path / "s.txt"
        write_summary(summary, path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_summary(path)

    @staticmethod
    def set_line(key, value):
        return lambda text: re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)

    def test_nan_power(self, tmp_path, short_run):
        self.expect(tmp_path, short_run[2], self.set_line("avg_power", "nan"), "field avg_power: 'nan' is not finite")

    def test_wrong_k(self, tmp_path, short_run):
        self.expect(tmp_path, short_run[2], self.set_line("avg_delay", "1,2,3,4,5"), "field avg_delay has 5 values, expected 6")

    def test_non_numeric(self, tmp_path, short_run):
        self.expect(tmp_path, short_run[2], self.set_line("horizon", "long"), "field horizon: invalid literal for int() with base 10: 'long'")

    def test_bad_flag(self, tmp_path, short_run):
        self.expect(tmp_path, short_run[2], self.set_line("power_ok", "yes"), "field power_ok: 'yes' is not 0 or 1")

    def test_scalar_given_twice(self, tmp_path, short_run):
        self.expect(tmp_path, short_run[2], self.set_line("avg_power", "1.0,2.0"), "field avg_power has 2 values, expected 1")

    def test_line_without_value(self, tmp_path, short_run):
        self.expect(tmp_path, short_run[2], lambda text: text + "garbage\n", "line 9 is not 'key = value'")
