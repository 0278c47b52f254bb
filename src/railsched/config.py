"""Scenario configuration: defaults, file loading, and validation.

Config files are plain INI (key = value under [geometry], [radio],
[traffic], [control], [run]); every key is optional and falls back to the
default simulation setup below.  Noise density is given in dBm/Hz and speed
in km/h as usually quoted; both are converted to SI once at load and all
internal arithmetic stays in W, m, s.  Every config is built one way: key
values, named bare or as `section.key`, go through `_build`, which converts
each key once, names `section.key` on a bad value, and keeps the typed
values so `with_updates` can override keys and build again.
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


class ConfigError(Exception):
    """Invalid or inconsistent configuration; message names the offending field."""


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
    geo, rad, tra = values["geometry"], values["radio"], values["traffic"]

    try:
        geometry = Geometry(
            cell_radius=geo["cell_radius_m"],
            rail_offset=geo["rail_offset_m"],
            speed=geo["speed_kmh"] / 3.6,
            slot_duration=geo["slot_duration_s"],
        )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None

    bandwidth, packet_bits, pathloss = rad["bandwidth_hz"], rad["packet_bits"], rad["pathloss_exp"]
    if bandwidth <= 0:
        raise ConfigError("radio.bandwidth_hz must be positive")
    if packet_bits <= 0:
        raise ConfigError("radio.packet_bits must be positive")
    if pathloss < 2.0:
        raise ConfigError(f"radio.pathloss_exp must be >= 2, got {pathloss}")
    try:
        radio = RadioParams(
            bandwidth=bandwidth,
            noise_psd=10.0 ** (rad["noise_psd_dbm_hz"] / 10.0) / 1000.0,
            pathloss_exp=pathloss,
            packet_bits=packet_bits,
            eta=packet_bits / (geometry.slot_duration * bandwidth),
            max_power=rad["max_power_w"],
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"radio: {exc}") from None

    num_services = tra["num_services"]
    if num_services < 1:
        raise ConfigError("traffic.num_services must be >= 1")
    per_service = {}
    for key in _PER_SERVICE:
        value = tra[key]
        if isinstance(value, float):
            value = (value,) * num_services
        elif len(value) != num_services:
            raise ConfigError(f"traffic.{key}: expected {num_services} values, one per service, got {len(value)}")
        per_service[key] = value
    try:
        traffic = TrafficParams(
            arrival_rates=per_service["arrival_rate_pkts"],
            delay_bounds=per_service["delay_bound_slots"],
            avg_power=tra["avg_power_w"],
            buffer_cap=tra["buffer_cap_pkts"],
        )
    except ValueError as exc:
        raise ConfigError(f"traffic: {exc}") from None

    # The checks that span fields or that the field types do not make.
    # Chained comparisons are False for NaN, so each check rejects it too.
    max_power, avg_power = radio.max_power, traffic.avg_power
    run = values["run"]
    omega, horizon, seed, policy = values["control"]["omega"], run["horizon"], run["seed"], run["policy"]
    if not 0.0 < max_power < math.inf:
        raise ConfigError(f"radio.max_power_w must be finite and positive, got {max_power}")
    if not avg_power <= max_power:
        raise ConfigError(f"traffic.avg_power_w = {avg_power} exceeds radio.max_power_w = {max_power}")
    if not 0.0 <= omega < math.inf:
        raise ConfigError(f"control.omega must be finite and non-negative, got {omega}")
    if horizon < 1:
        raise ConfigError(f"run.horizon must be >= 1, got {horizon}")
    if seed < 0:
        raise ConfigError(f"run.seed must be >= 0, got {seed}")
    if policy not in POLICY_NAMES:
        raise ConfigError(f"run.policy {policy!r} not one of {sorted(POLICY_NAMES)}")
    return ScenarioConfig(geometry, radio, traffic, omega, horizon, seed, policy, values)


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
    except configparser.Error as exc:
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
