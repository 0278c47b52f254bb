import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from railsched.cli import main
from railsched.config import _KEYS, ConfigError, default_config, load_config, with_updates
from railsched.engine import SimSummary, Trace, replay_check, run
from railsched.traceio import _WRITE_CHUNK_ROWS, _fmt, _trace_schema, read_trace, trace_columns, write_summary, write_trace


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

    def test_with_updates_takes_load_config_names(self):
        assert with_updates(default_config(), **{"traffic.avg_power_w": 1.0}, omega="0.5") == load_config(avg_power_w=1.0, omega=0.5)
        with pytest.raises(ConfigError, match="unknown config key avg_power"):
            with_updates(default_config(), avg_power=1.0)

    def test_with_updates_rates(self):
        cfg = with_updates(default_config(), num_services=3, arrival_rate_pkts=[5, 10, 15])
        assert cfg.traffic.arrival_rates == (5.0, 10.0, 15.0)
        assert cfg.traffic.delay_bounds == (15.0, 15.0, 15.0)
        assert with_updates(cfg, horizon=300.0).horizon == 300
        with pytest.raises(ConfigError, match="arrival_rate_pkts: expected 2 values"):
            with_updates(cfg, num_services=2)

    def test_rate_vector_wrong_length(self, tmp_path):
        path = tmp_path / "rates.ini"
        path.write_text("[traffic]\nnum_services = 3\narrival_rate_pkts = 5, 10\n")
        with pytest.raises(ConfigError, match="arrival_rate_pkts"):
            load_config(path)

    def test_eta_rejected(self, tmp_path):
        # eta is always packet_bits/(slot*bandwidth), so it is not a key
        path = tmp_path / "eta.ini"
        path.write_text("[radio]\neta = 0.048\n")
        with pytest.raises(ConfigError, match=r"unknown config key radio\.eta"):
            load_config(path)
        with pytest.raises(ConfigError, match=r"unknown config key radio\.eta"):
            load_config(**{"radio.eta": 0.048})
        with pytest.raises(ConfigError, match="unknown config key eta"):
            load_config(eta=0.048)
        with pytest.raises(ConfigError, match="unknown config key eta"):
            with_updates(default_config(), eta=0.048)

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

    @pytest.mark.parametrize(
        "section, text",
        [
            ("bogus", "[bogus]\nseed = 5\n"),
            ("bogus", "[bogus]\n"),
            # [DEFAULT] is no section of a scenario either: its keys must
            # neither vanish nor leak into the other sections
            ("DEFAULT", "[DEFAULT]\nseed = 5\nhorizon = 7\n"),
            ("DEFAULT", "[DEFAULT]\nseed = 5\n[radio]\nbandwidth_hz = 5e6\n"),
            ("DEFAULT", "[DEFAULT]\n"),
        ],
        ids=["bogus-with-key", "bogus-empty", "default-alone", "default-beside-radio", "default-empty"],
    )
    def test_unknown_section_rejected(self, tmp_path, capsys, section, text):
        path = tmp_path / "sections.ini"
        path.write_text(text)
        message = f"unknown config section [{section}]"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "trace.csv").exists()


class TestValidation:
    """File loading and `with_updates` build through one path; each error names its key."""

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
            with_updates(default_config(), avg_power_w=60.0)
        # a NaN budget breaks the key's own rule before the cross-key check
        with pytest.raises(ConfigError, match=r"^traffic\.avg_power_w must be finite and positive, got nan"):
            with_updates(default_config(), avg_power_w=float("nan"))

    # the first ids keep the quantity names these cases have always been reported under
    @pytest.mark.parametrize(
        "field, value, section",
        [
            pytest.param("arrival_rate_pkts", -1.0, "traffic", id="arrival_rate--1.0-traffic"),
            pytest.param("delay_bound_slots", 0.0, "traffic", id="delay_bound-0.0-traffic"),
            pytest.param("avg_power_w", -1.0, "traffic", id="avg_power--1.0-traffic"),
            pytest.param("max_power_w", -1.0, "radio", id="max_power--1.0-radio"),
            pytest.param("cell_radius_m", -1.0, "geometry", id="cell_radius_m--1.0-geometry"),
            pytest.param("rail_offset_m", 0.0, "geometry", id="rail_offset_m-0.0-geometry"),
            pytest.param("speed_kmh", -1.0, "geometry", id="speed_kmh--1.0-geometry"),
            pytest.param("bandwidth_hz", 0.0, "radio", id="bandwidth_hz-0.0-radio"),
            pytest.param("packet_bits", -240.0, "radio", id="packet_bits--240.0-radio"),
            pytest.param("num_services", 0, "traffic", id="num_services-0-traffic"),
            pytest.param("arrival_rate_pkts", [20.0] * 5, "traffic", id="arrival_rate_pkts-5_of_6-traffic"),
            pytest.param("arrival_rate_pkts", "20, -1, 20, 20, 20, 20", "traffic", id="arrival_rate_pkts-one_negative-traffic"),
            pytest.param("avg_power_w", 0.0, "traffic", id="avg_power_w-0.0-traffic"),
            pytest.param("omega", True, "control", id="omega-True-control"),
            pytest.param("avg_power_w", True, "traffic", id="avg_power_w-True-traffic"),
            pytest.param("arrival_rate_pkts", True, "traffic", id="arrival_rate_pkts-True-traffic"),
            pytest.param("arrival_rate_pkts", [20.0] * 5 + [True], "traffic", id="arrival_rate_pkts-one_True-traffic"),
            pytest.param("omega", np.True_, "control", id="omega-np.True_-control"),
            pytest.param("avg_power_w", np.True_, "traffic", id="avg_power_w-np.True_-traffic"),
            pytest.param("arrival_rate_pkts", np.array([True] * 6), "traffic", id="arrival_rate_pkts-np.True_array-traffic"),
            pytest.param("arrival_rate_pkts", [20.0] * 5 + [np.True_], "traffic", id="arrival_rate_pkts-one_np.True_-traffic"),
        ],
    )
    def test_bad_field_value(self, field, value, section):
        pattern = rf"^{section}\.{field}"
        with pytest.raises(ConfigError, match=pattern):
            with_updates(default_config(), **{field: value})
        with pytest.raises(ConfigError, match=pattern):
            load_config(**{f"{section}.{field}": value})

    @pytest.mark.parametrize("key", [key for key in _KEYS if key != "policy"], ids=lambda key: f"{_KEYS[key][0]}.{key}")
    def test_every_rule_names_its_key(self, key):
        section, _, low, inclusive, rule = _KEYS[key]
        name = f"{section}.{key}"
        value = low - 1 if inclusive else low
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be {re.escape(rule)}, got {re.escape(str(value))}$"):
            load_config(**{name: value})

    def test_rules_cover_every_key(self):
        # a key added to the table cannot skip its range; the policy is checked by name
        assert [key for key, (_, _, low, _, rule) in _KEYS.items() if low is None or rule is None] == ["policy"]

    @pytest.mark.parametrize("max_power", [0.0, float("nan"), float("inf")])
    def test_bad_max_power(self, max_power):
        with pytest.raises(ConfigError, match=r"radio\.max_power_w must be finite and positive"):
            with_updates(default_config(), max_power_w=max_power)
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
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite"):
            load_config(**{key: value})

    @pytest.mark.parametrize("key", [f"{section}.{key}" for key, (section, *_) in _KEYS.items()])
    def test_malformed_value_names_key(self, tmp_path, key):
        # "abc" is not a number, and not a policy name either
        section, bare = key.split(".")
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{bare} = abc\n")
        pattern = rf"^{re.escape(key)}[: ]"
        with pytest.raises(ConfigError, match=pattern):
            load_config(path)
        with pytest.raises(ConfigError, match=pattern):
            load_config(**{key: "abc"})
        with pytest.raises(ConfigError, match=pattern):
            with_updates(default_config(), **{bare: "abc"})

    @pytest.mark.parametrize("value", [2.5, "2.5", True, np.True_], ids=["float", "str", "bool", "numpy-bool"])
    @pytest.mark.parametrize("key", ["traffic.num_services", "traffic.buffer_cap_pkts", "run.horizon", "run.seed"])
    def test_integer_key_takes_whole_numbers(self, key, value):
        pattern = rf"^{re.escape(key)}: expected a whole number"
        with pytest.raises(ConfigError, match=pattern):
            load_config(**{key: value})
        with pytest.raises(ConfigError, match=pattern):
            with_updates(default_config(), **{key: value})

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match=r"run\.seed must be >= 0"):
            with_updates(default_config(), seed=-1)


def test_cli_bad_ini_value_exits_1(tmp_path, capsys):
    # a malformed value, then values in range whose derived SI value
    # overflows, underflows or divides by zero
    eta = "radio.packet_bits / (geometry.slot_duration_s * radio.bandwidth_hz) gives eta"
    period = "2 * geometry.cell_radius_m / (geometry.speed_kmh / 3.6 * geometry.slot_duration_s) gives the cell period in slots"
    cases = [
        ("[run]\nhorizon = abc\n", "run.horizon: expected a whole number"),
        ("[radio]\nnoise_psd_dbm_hz = 4000\n", "radio.noise_psd_dbm_hz gives N0 = inf,"),
        ("[radio]\nnoise_psd_dbm_hz = -4000\n", "radio.noise_psd_dbm_hz gives N0 = 0.0,"),
        ("[geometry]\nslot_duration_s = 1e-300\n[radio]\nbandwidth_hz = 1e-300\n", f"{eta} = inf,"),
        ("[geometry]\nslot_duration_s = 1e300\n[radio]\nbandwidth_hz = 1e300\n", f"{eta} = 0.0,"),
        ("[geometry]\nspeed_kmh = 5e-324\n", "geometry.speed_kmh gives v = 0.0,"),
        ("[geometry]\nspeed_kmh = 1e-200\nslot_duration_s = 1e-200\n", f"{period} = inf,"),
        # values are taken literally: a `%` is not interpolation syntax
        ("[run]\npolicy = a%b\n", "run.policy 'a%b' not one of ["),
        ("[traffic]\narrival_rate_pkts = %(x)s\n", "traffic.arrival_rate_pkts: expected a number, got '%(x)s'"),
    ]
    path = tmp_path / "bad.ini"
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        # one line, no traceback
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err


def test_cli_non_utf8_ini_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"\xff\xfe[run]\n")
    message = f"malformed config file {path}: 'utf-8' codec can't decode byte 0xff"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def reference_trace_text(trace):
    """The trace file text, formatting every value on its own with `_fmt`, row by row."""
    lines = [",".join(trace_columns(trace.num_services))]
    for t in range(len(trace)):
        row = [trace.slot[t], trace.distance[t], trace.noise[t], trace.power[t], trace.capacity[t], trace.served[t]]
        for k in range(trace.num_services):
            row += [trace.arrivals[t, k], trace.allocation[t, k], trace.queues[t, k], trace.virtual_delay[t, k]]
        row += [trace.virtual_power[t], trace.drops[t]]
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


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
        # 2049 rows cross the writer's 2048-row chunk boundary; a 15-packet
        # buffer drops packets; the edited run holds the float edge cases and
        # int64 extremes; the empty trace has no rows.
        trace, _ = run(with_updates(default_config(), horizon=2049, seed=5), policy="wfpa-static")
        dropping, _ = run(with_updates(default_config(), horizon=300, seed=5, buffer_cap_pkts=15))
        assert dropping.drops.any()
        edited, _ = run(with_updates(default_config(), horizon=8, seed=5))
        edited.power[:] = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -0.1, 1e16, 1.0]
        edited.virtual_delay[:, 0] = edited.power[::-1]
        edited.queues[3, 2] = np.iinfo(np.int64).max
        edited.drops[-1] = np.iinfo(np.int64).min
        empty = Trace(**{field.name: getattr(trace, field.name)[:0] for field in dataclasses.fields(Trace)})
        path = tmp_path / "t.csv"
        for case in (trace, dropping, edited, empty):
            write_trace(case, path)
            assert path.read_text() == reference_trace_text(case)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_writer_matches_reference_on_any_values(self, tmp_path_factory, data):
        rows, k_count = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 3))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        whole = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
        fields = {}
        for _, name, integer, k in _trace_schema(k_count):
            shape = (rows,) if k is None else (rows, k_count)
            if name not in fields:
                values = data.draw(st.lists(whole if integer else finite, min_size=math.prod(shape), max_size=math.prod(shape)))
                fields[name] = np.array(values, dtype=np.int64 if integer else np.float64).reshape(shape)
        trace = Trace(**fields)
        path = tmp_path_factory.getbasetemp() / "any_values.csv"
        write_trace(trace, path)
        assert path.read_text() == reference_trace_text(trace)

    # No shrinking: each example renders over 2048 rows, and shrinking a
    # failure took minutes; the failing draws are reported as found.
    @settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.data())
    def test_writer_matches_reference_across_chunks(self, tmp_path_factory, data):
        # Two write chunks per column: the first filled with one whole value in
        # [0, 2**53), which the writer may print with %d, the second with one
        # fraction.  A few drawn values land anywhere, among them the doubles
        # whose %d and %.17g texts differ: -0.0, 1e17 and larger, fractions.
        rows, k_count = _WRITE_CHUNK_ROWS + data.draw(st.integers(1, 40)), data.draw(st.integers(1, 2))
        edge = st.sampled_from([-0.0, -3.0, 0.5, 2.0**53 - 2, 2.0**53, 2.0**53 + 2, 1e16, 1e17, 5e-324, 2.0**-1030])
        anywhere = st.one_of(edge, st.integers(0, 2**53 - 1).map(float), st.floats(allow_nan=False, allow_infinity=False))
        fraction = st.floats(-1e15, 1e15).filter(lambda v: not v.is_integer())
        ints = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
        fields = {}
        for _, name, integer, k in _trace_schema(k_count):
            if name in fields:
                continue
            shape = (rows,) if k is None else (rows, k_count)
            if integer:
                values = np.full(shape, data.draw(ints), dtype=np.int64)
            else:
                values = np.empty(shape)
                values[:_WRITE_CHUNK_ROWS] = float(data.draw(st.integers(0, 2**53 - 1)))
                values[_WRITE_CHUNK_ROWS:] = data.draw(fraction)
            for row, value in data.draw(st.lists(st.tuples(st.integers(0, rows - 1), ints if integer else anywhere), max_size=4)):
                values.reshape(rows, -1)[row, data.draw(st.integers(0, values.size // rows - 1))] = value
            fields[name] = values
        trace = Trace(**fields)
        path = tmp_path_factory.getbasetemp() / "two_chunks.csv"
        write_trace(trace, path)
        assert path.read_text() == reference_trace_text(trace)

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

    def test_first_fault_named_when_a_later_one_fails_the_parse(self, tmp_path, short_run):
        # numpy takes "nan" but not "fast"; the row-by-row check names the earlier fault
        def edit(lines):
            self.set_field(lines, 2, "X3", "nan")
            self.set_field(lines, 5, "P", "fast")

        path = self.write_edited(tmp_path, short_run[1], edit)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: row 2, column X3: non-finite value 'nan'$"):
            read_trace(path)

    def test_fault_only_numpy_sees_is_named(self, tmp_path, short_run):
        # Python's int and float take these and numpy's parser does not; the
        # row-by-row check names the column, not numpy's column position
        for column, value, kind in [("C", "1_0", "an integer"), ("C", "١", "an integer"), ("C", str(2**63), "an integer"), ("d", "1_0.5", "a number")]:
            path = self.write_edited(tmp_path, short_run[1], lambda lines: self.set_field(lines, 3, column, value))
            message = f"{path}: row 3, column {column}: {value!r} is not {kind}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read_trace(path)

    def test_header_with_wrong_k(self, tmp_path, short_run):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: lines.__setitem__(0, ",".join(trace_columns(5))))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: row 0 has 32 fields, but the header has 28 columns \(K=5\)"):
            read_trace(path)

    def test_header_with_no_services(self, tmp_path, capsys):
        # 8 columns fit 6 + 4K + 2 with K = 0, but a trace has at least one service
        path = tmp_path / "t.csv"
        path.write_text(",".join(trace_columns(0)) + "\n0,1.0,1.0,0.0,0,0,0.0,0\n")
        message = f"{path}: 8 columns do not fit the 6 + 4K + 2 trace schema with K >= 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_trace(path)
        assert main(["plotdata", "--figure", "fig3", "--source", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_interior_empty_line(self, tmp_path, short_run):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: lines.insert(4, ""))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: row 3 is empty"):
            read_trace(path)

    def test_not_utf8(self, tmp_path, short_run, capsys):
        path = tmp_path / "t.csv"
        write_trace(short_run[1], path)
        lines = path.read_bytes().split(b"\n")
        lines[20] = b"\xff" + lines[20]
        path.write_bytes(b"\n".join(lines))
        message = f"{path}: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_trace(path)
        assert main(["plotdata", "--figure", "fig3", "--source", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_header_only_is_empty_trace(self, tmp_path, short_run):
        path = self.write_edited(tmp_path, short_run[1], lambda lines: lines.__delitem__(slice(1, None)))
        trace = read_trace(path)
        assert len(trace) == 0
        assert trace.num_services == short_run[1].num_services
        assert trace.queues.shape == (0, 6)


# Each summary.txt field, the parser of one of its values, and whether it
# holds one value per service.  Nothing in the package reads the file back.
SUMMARY_FIELDS = {
    "horizon": (int, False),
    "avg_power": (float, False),
    "avg_backlog": (float, True),
    "avg_delay": (float, True),
    "empirical_rates": (float, True),
    "delay_ok": ({"0": False, "1": True}.__getitem__, True),
    "power_ok": ({"0": False, "1": True}.__getitem__, False),
    "total_drops": (int, True),
}


@pytest.mark.parametrize("case", ["short-run", "dropping"])
def test_summary_values_read_back(tmp_path, short_run, case):
    # every written value parses back to the same float, int or flag
    if case == "short-run":
        summary = short_run[2]
    else:
        # test_engine's pinned dropping scenario: a 300-packet buffer at 0.5 W
        _, summary = run(load_config(None, seed=1, horizon=12_000, avg_power_w=0.5, buffer_cap_pkts=300), record_trace=False)
        assert sum(summary.total_drops) > 0
    path = tmp_path / "summary.txt"
    write_summary(summary, path)
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        name, raw = line.split(" = ")
        parse, per_service = SUMMARY_FIELDS[name]
        values = tuple(map(parse, raw.split(",")))
        fields[name] = values if per_service else values[0]
    loaded = SimSummary(**fields)
    assert loaded == summary
    # repr tells 1, 1.0 and True apart
    assert repr(loaded) == repr(summary)
