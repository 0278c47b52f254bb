"""Scenario configuration: defaults, file loading, and validation.

Config files are plain INI (key = value under [geometry], [radio],
[traffic], [control], [run]); every key is optional and falls back to the
default simulation setup below.  Values are taken literally, with no `%`
interpolation, and a [DEFAULT] section is an unknown section like any other.
Noise density is given in dBm/Hz and speed in km/h as usually quoted; both
are converted to SI once at load and all internal arithmetic stays in W, m,
s.  Every config is built one way: key values, named bare or as
`section.key`, go through `_build`, which keeps the typed values so
`with_updates` can override keys and build again.

Each key's section, default and allowed range are stated once, in the one
table `_KEYS`.  Every rule a config must meet is checked in `_build`, and
every error about a value begins with the `section.key` it is about.
Besides the table's ranges `_build` checks only the SI values derived from
keys and the three rules that span keys (per-service lengths, avg_power_w
<= max_power_w, the policy name).  The records it builds check nothing
themselves.
"""

from __future__ import annotations

import configparser
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .channel import Geometry, RadioParams
from .policies import POLICY_NAMES
from .queues import TrafficParams

# Every config key, named bare, since no name repeats across sections: its
# section, its default (whose type the key takes), and its allowed range, given
# as the lowest allowed value, whether that value itself is allowed, and the
# rule as an error states it.  Every value must also be finite, and a
# per-service key's rule holds for each service.  run.policy has no range; it
# is checked against the policy names.  The defaults are a 5 MHz downlink,
# 240-bit packets, 1 ms slots, fourth-power pathloss, cells of 1.5 km radius
# 50 m off the track, six services at 20 pkt/slot with a 15-slot average-delay
# bound and a 36 W average-power budget under a 50 W instantaneous cap.
_KEYS = {
    "cell_radius_m": ("geometry", 1500.0, 0.0, False, "finite and positive"),
    "rail_offset_m": ("geometry", 50.0, 0.0, False, "finite and positive"),
    "speed_kmh": ("geometry", 360.0, 0.0, False, "finite and positive"),
    "slot_duration_s": ("geometry", 1e-3, 0.0, False, "finite and positive"),
    "bandwidth_hz": ("radio", 5e6, 0.0, False, "finite and positive"),
    "noise_psd_dbm_hz": ("radio", -174.0, -math.inf, False, "finite"),
    "pathloss_exp": ("radio", 4.0, 2.0, True, "finite and >= 2"),
    "packet_bits": ("radio", 240.0, 0.0, False, "finite and positive"),
    "max_power_w": ("radio", 50.0, 0.0, False, "finite and positive"),
    "num_services": ("traffic", 6, 1, True, ">= 1"),
    "arrival_rate_pkts": ("traffic", 20.0, 0.0, True, "finite and non-negative"),
    "delay_bound_slots": ("traffic", 15.0, 0.0, False, "finite and positive"),
    "avg_power_w": ("traffic", 36.0, 0.0, False, "finite and positive"),
    "buffer_cap_pkts": ("traffic", 1_000_000, 1, True, ">= 1"),
    "omega": ("control", 0.8, 0.0, True, "finite and non-negative"),
    "horizon": ("run", 300_000, 1, True, ">= 1"),
    "seed": ("run", 1, 0, True, ">= 0"),
    "policy": ("run", "proposed", None, None, None),
}

# Keys with one value per service: a scalar applies to every service; a
# comma string or a sequence must have num_services entries.
_PER_SERVICE = ("arrival_rate_pkts", "delay_bound_slots")


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


def _convert(key: str, raw):
    """One key's value as the type of its default; whole numbers only for an integer key."""
    section, default = _KEYS[key][:2]
    kind = type(default)
    try:
        if kind is str:
            return str(raw).strip()
        # Python and numpy take a bool as a number, but no config value or entry is one.
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(raw, dtype=object).ravel()):
            raise TypeError
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
    """The config of `raw_values`, a `{key: value}` dict in which a missing key takes its default."""
    values = {key: _convert(key, raw_values.get(key, entry[1])) for key, entry in _KEYS.items()}

    # Chained comparisons are False for NaN, so each rule rejects it too.
    for key, (section, _, low, inclusive, rule) in _KEYS.items():
        if low is None:
            continue
        value = values[key]
        for v in value if isinstance(value, tuple) else (value,):
            if not (low <= v < math.inf if inclusive else low < v < math.inf):
                raise ConfigError(f"{section}.{key} must be {rule}, got {v}")

    # The SI values derived from keys can still overflow, underflow or divide by zero.
    try:
        noise_psd = 10.0 ** (values["noise_psd_dbm_hz"] / 10.0) / 1000.0
    except OverflowError:
        noise_psd = math.inf
    slot_hz = values["slot_duration_s"] * values["bandwidth_hz"]
    eta = values["packet_bits"] / slot_hz if slot_hz > 0.0 else math.inf
    speed = values["speed_kmh"] / 3.6
    # `Geometry.period_slots` before its ceiling.
    slot_m = speed * values["slot_duration_s"]
    period = 2.0 * values["cell_radius_m"] / slot_m if slot_m > 0.0 else math.inf
    for name, value in (
        ("radio.noise_psd_dbm_hz gives N0", noise_psd),
        ("radio.packet_bits / (geometry.slot_duration_s * radio.bandwidth_hz) gives eta", eta),
        ("geometry.speed_kmh gives v", speed),
        ("2 * geometry.cell_radius_m / (geometry.speed_kmh / 3.6 * geometry.slot_duration_s) gives the cell period in slots", period),
    ):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{name} = {value}, which must be finite and positive")

    num_services = values["num_services"]
    per_service = {}
    for key in _PER_SERVICE:
        value = values[key]
        if isinstance(value, float):
            value = (value,) * num_services
        elif len(value) != num_services:
            raise ConfigError(f"traffic.{key}: expected {num_services} values, one per service, got {len(value)}")
        per_service[key] = value
    avg_power, max_power = values["avg_power_w"], values["max_power_w"]
    if avg_power > max_power:
        raise ConfigError(f"traffic.avg_power_w = {avg_power} exceeds radio.max_power_w = {max_power}")
    if values["policy"] not in POLICY_NAMES:
        raise ConfigError(f"run.policy {values['policy']!r} not one of {sorted(POLICY_NAMES)}")

    geometry = Geometry(values["cell_radius_m"], values["rail_offset_m"], speed, values["slot_duration_s"])
    radio = RadioParams(values["bandwidth_hz"], noise_psd, values["pathloss_exp"], values["packet_bits"], eta, max_power)
    traffic = TrafficParams(per_service["arrival_rate_pkts"], per_service["delay_bound_slots"], avg_power, values["buffer_cap_pkts"])
    return ScenarioConfig(geometry, radio, traffic, values["omega"], values["horizon"], values["seed"], values["policy"], values)


def _overridden(values: dict, overrides: dict) -> ScenarioConfig:
    """Build from `values` with each override, named bare or as `section.key`, replacing its key."""
    values = dict(values)
    for name, value in overrides.items():
        section, dot, key = name.rpartition(".")
        if key not in _KEYS or (dot and section != _KEYS[key][0]):
            raise ConfigError(f"unknown config key {name}")
        values[key] = value
    return _build(values)


def default_config() -> ScenarioConfig:
    """The fully default scenario."""
    return _overridden({}, {})


def load_config(path: Optional[str | Path] = None, **overrides) -> ScenarioConfig:
    """Load a scenario file, falling back to defaults for anything omitted.

    Keyword overrides use flat `section.key` or bare key names and are
    applied after the file, e.g. ``load_config(path, seed=7, omega=0.4)``.
    """
    if path is None:
        return _overridden({}, overrides)
    # No header can name the "\n" section, so a [DEFAULT] section is an
    # ordinary one; values are taken literally, with no `%` interpolation.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="\n", interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    sections = {entry[0] for entry in _KEYS.values()}
    from_file = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        from_file.update({f"{section}.{key}": raw for key, raw in parser.items(section)})
    return _overridden({}, {**from_file, **overrides})


def with_updates(config: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Copy a config with keys replaced; keys are named as in `load_config`, bare or `section.key`."""
    return _overridden(config.values, overrides)
