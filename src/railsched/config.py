"""Scenario configuration: defaults, file loading, and validation.

Config files are plain INI (key = value under [geometry], [radio],
[traffic], [control], [run]); every key is optional and falls back to the
default simulation setup below.  Noise density is given in dBm/Hz and speed
in km/h as usually quoted; both are converted to SI once at load and all
internal arithmetic stays in W, m, s.  Every config is built one way: key
values, named bare or as `section.key`, go through `_build`, which keeps the
typed values so `with_updates` can override keys and build again.

Every rule a config must meet is checked in `_build`, and every error
about a value begins with the `section.key` it is about.  The allowed range
of each key is stated once, in `_RULES`; besides it `_build` checks only
the SI values derived from keys and the three rules that span keys
(per-service lengths, avg_power_w <= max_power_w, the policy name).  The
records it builds check nothing themselves.
"""

from __future__ import annotations

import configparser
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .channel import Geometry, RadioParams
from .policies import POLICY_NAMES
from .queues import TrafficParams

# Default scenario: 5 MHz downlink, 240-bit packets, 1 ms slots, fourth-power
# pathloss, cells of 1.5 km radius 50 m off the track, six services at
# 20 pkt/slot with a 15-slot average-delay bound and a 36 W average-power
# budget under a 50 W instantaneous cap.  Each key takes the type of its
# default.
DEFAULTS = {
    "geometry": {
        "cell_radius_m": 1500.0,
        "rail_offset_m": 50.0,
        "speed_kmh": 360.0,
        "slot_duration_s": 1e-3,
    },
    "radio": {
        "bandwidth_hz": 5e6,
        "noise_psd_dbm_hz": -174.0,
        "pathloss_exp": 4.0,
        "packet_bits": 240.0,
        "max_power_w": 50.0,
    },
    "traffic": {
        "num_services": 6,
        "arrival_rate_pkts": 20.0,
        "delay_bound_slots": 15.0,
        "avg_power_w": 36.0,
        "buffer_cap_pkts": 1_000_000,
    },
    "control": {
        "omega": 0.8,
    },
    "run": {
        "horizon": 300_000,
        "seed": 1,
        "policy": "proposed",
    },
}

# Keys with one value per service: a scalar applies to every service; a
# comma string or a sequence must have num_services entries.
_PER_SERVICE = ("arrival_rate_pkts", "delay_bound_slots")

# The allowed range of every key but run.policy (checked against the policy
# names): the lowest allowed value, whether that value itself is allowed, and
# the rule as an error states it.  Every value must also be finite, and a
# per-service key's rule holds for each service.
_RULES = {
    "geometry.cell_radius_m": (0.0, False, "finite and positive"),
    "geometry.rail_offset_m": (0.0, False, "finite and positive"),
    "geometry.speed_kmh": (0.0, False, "finite and positive"),
    "geometry.slot_duration_s": (0.0, False, "finite and positive"),
    "radio.bandwidth_hz": (0.0, False, "finite and positive"),
    "radio.noise_psd_dbm_hz": (-math.inf, False, "finite"),
    "radio.pathloss_exp": (2.0, True, "finite and >= 2"),
    "radio.packet_bits": (0.0, False, "finite and positive"),
    "radio.max_power_w": (0.0, False, "finite and positive"),
    "traffic.num_services": (1, True, ">= 1"),
    "traffic.arrival_rate_pkts": (0.0, True, "finite and non-negative"),
    "traffic.delay_bound_slots": (0.0, False, "finite and positive"),
    "traffic.avg_power_w": (0.0, False, "finite and positive"),
    "traffic.buffer_cap_pkts": (1, True, ">= 1"),
    "control.omega": (0.0, True, "finite and non-negative"),
    "run.horizon": (1, True, ">= 1"),
    "run.seed": (0, True, ">= 0"),
}


class ConfigError(Exception):
    """Invalid or inconsistent configuration; the message begins with the offending `section.key`."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved simulation scenario; `values` holds the typed key values it was built from."""

    geometry: Geometry
    radio: RadioParams
    traffic: TrafficParams
    omega: float
    horizon: int
    seed: int
    policy: str
    values: dict = field(compare=False, repr=False)


def _convert(section: str, key: str, raw):
    """One key's value as the type of its default; whole numbers only for an integer key."""
    kind = type(DEFAULTS[section][key])
    try:
        if kind is str:
            return str(raw).strip()
        if key in _PER_SERVICE and not isinstance(raw, numbers.Real):
            if isinstance(raw, str) and "," not in raw:
                return float(raw)
            return tuple(float(v) for v in (raw.split(",") if isinstance(raw, str) else raw))
        value = kind(raw)
        if kind is int and not isinstance(raw, str) and value != raw:
            raise ValueError  # int(2.5) would truncate
        return value
    except (TypeError, ValueError, OverflowError):
        expected = "a whole number" if kind is int else "a number"
        raise ConfigError(f"{section}.{key}: expected {expected}, got {raw!r}") from None


def _build(raw_values: dict) -> ScenarioConfig:
    values = {section: {key: _convert(section, key, raw) for key, raw in keys.items()} for section, keys in raw_values.items()}
    geo, rad, tra, run = values["geometry"], values["radio"], values["traffic"], values["run"]

    # Chained comparisons are False for NaN, so each rule rejects it too.
    for name, (low, inclusive, rule) in _RULES.items():
        section, key = name.split(".")
        value = values[section][key]
        for v in value if isinstance(value, tuple) else (value,):
            if not (low <= v < math.inf if inclusive else low < v < math.inf):
                raise ConfigError(f"{name} must be {rule}, got {v}")

    # The SI values derived from keys can still overflow, underflow or divide by zero.
    try:
        noise_psd = 10.0 ** (rad["noise_psd_dbm_hz"] / 10.0) / 1000.0
    except OverflowError:
        noise_psd = math.inf
    slot_hz = geo["slot_duration_s"] * rad["bandwidth_hz"]
    eta = rad["packet_bits"] / slot_hz if slot_hz > 0.0 else math.inf
    speed = geo["speed_kmh"] / 3.6
    # `Geometry.period_slots` before its ceiling.
    slot_m = speed * geo["slot_duration_s"]
    period = 2.0 * geo["cell_radius_m"] / slot_m if slot_m > 0.0 else math.inf
    for name, value in (
        ("radio.noise_psd_dbm_hz gives N0", noise_psd),
        ("radio.packet_bits / (geometry.slot_duration_s * radio.bandwidth_hz) gives eta", eta),
        ("geometry.speed_kmh gives v", speed),
        ("2 * geometry.cell_radius_m / (geometry.speed_kmh / 3.6 * geometry.slot_duration_s) gives the cell period in slots", period),
    ):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{name} = {value}, which must be finite and positive")

    num_services = tra["num_services"]
    per_service = {}
    for key in _PER_SERVICE:
        value = tra[key]
        if isinstance(value, float):
            value = (value,) * num_services
        elif len(value) != num_services:
            raise ConfigError(f"traffic.{key}: expected {num_services} values, one per service, got {len(value)}")
        per_service[key] = value
    avg_power, max_power = tra["avg_power_w"], rad["max_power_w"]
    if avg_power > max_power:
        raise ConfigError(f"traffic.avg_power_w = {avg_power} exceeds radio.max_power_w = {max_power}")
    if run["policy"] not in POLICY_NAMES:
        raise ConfigError(f"run.policy {run['policy']!r} not one of {sorted(POLICY_NAMES)}")

    geometry = Geometry(geo["cell_radius_m"], geo["rail_offset_m"], speed, geo["slot_duration_s"])
    radio = RadioParams(rad["bandwidth_hz"], noise_psd, rad["pathloss_exp"], rad["packet_bits"], eta, max_power)
    traffic = TrafficParams(per_service["arrival_rate_pkts"], per_service["delay_bound_slots"], avg_power, tra["buffer_cap_pkts"])
    return ScenarioConfig(geometry, radio, traffic, values["control"]["omega"], run["horizon"], run["seed"], run["policy"], values)


def _apply_override(values: dict, name: str, value) -> None:
    if "." in name:
        section, key = name.split(".", 1)
        if section not in values or key not in values[section]:
            raise ConfigError(f"unknown config key {name}")
        values[section][key] = value
        return
    hits = [(section, key) for section, keys in values.items() for key in keys if key == name]
    if not hits:
        raise ConfigError(f"unknown config key {name}")
    if len(hits) > 1:
        raise ConfigError(f"ambiguous config key {name}; qualify as section.key")
    section, key = hits[0]
    values[section][key] = value


def _overridden(values: dict, overrides: dict) -> ScenarioConfig:
    values = {section: dict(keys) for section, keys in values.items()}
    for name, value in overrides.items():
        _apply_override(values, name, value)
    return _build(values)


def default_config() -> ScenarioConfig:
    """The fully default scenario."""
    return _overridden(DEFAULTS, {})


def load_config(path: Optional[str | Path] = None, **overrides) -> ScenarioConfig:
    """Load a scenario file, falling back to defaults for anything omitted.

    Keyword overrides use flat `section.key` or bare key names (bare names
    must be unambiguous) and are applied after the file, e.g.
    ``load_config(path, seed=7, omega=0.4)``.
    """
    if path is None:
        return _overridden(DEFAULTS, overrides)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    from_file = {}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        from_file.update({f"{section}.{key}": raw for key, raw in parser.items(section)})
    return _overridden(DEFAULTS, {**from_file, **overrides})


def with_updates(config: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Copy a config with keys replaced; keys are named as in `load_config`, bare or `section.key`."""
    return _overridden(config.values, overrides)
