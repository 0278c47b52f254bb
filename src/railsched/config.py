"""Scenario configuration: defaults, file loading, and validation.

Config files are plain INI (key = value under [geometry], [radio],
[traffic], [control], [run]); every key is optional and falls back to the
default simulation setup below.  Noise density is given in dBm/Hz and speed
in km/h as usually quoted; both are converted to SI once at load and all
internal arithmetic stays in W, m, s.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .channel import Geometry, RadioParams
from .policies import POLICY_NAMES
from .queues import TrafficParams

# Default scenario: 5 MHz downlink, 240-bit packets, 1 ms slots, fourth-power
# pathloss, cells of 1.5 km radius 50 m off the track, six services at
# 20 pkt/slot with a 15-slot average-delay bound and a 36 W average-power
# budget under a 50 W instantaneous cap.
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

_RTOL_ETA = 1e-9


class ConfigError(Exception):
    """Invalid or inconsistent configuration; message names the offending field."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved simulation scenario."""

    geometry: Geometry
    radio: RadioParams
    traffic: TrafficParams
    omega: float
    horizon: int
    seed: int
    policy: str

    @property
    def eta(self) -> float:
        return self.radio.eta

    @property
    def num_services(self) -> int:
        return self.traffic.num_services


def _parse_rates(raw, count: int, field: str) -> tuple[float, ...]:
    # A scalar applies to every service; a comma list must match num_services.
    if isinstance(raw, str) and "," in raw:
        values = tuple(float(v) for v in raw.split(","))
        if len(values) != count:
            raise ConfigError(f"traffic.{field}: expected {count} comma-separated values, got {len(values)}")
        return values
    return (float(raw),) * count


def _build(values: dict) -> ScenarioConfig:
    geo = values["geometry"]
    rad = values["radio"]
    tra = values["traffic"]
    ctl = values["control"]
    run = values["run"]

    try:
        geometry = Geometry(
            cell_radius=float(geo["cell_radius_m"]),
            rail_offset=float(geo["rail_offset_m"]),
            speed=float(geo["speed_kmh"]) / 3.6,
            slot_duration=float(geo["slot_duration_s"]),
        )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None

    bandwidth = float(rad["bandwidth_hz"])
    slot = geometry.slot_duration
    packet_bits = float(rad["packet_bits"])
    if bandwidth <= 0:
        raise ConfigError("radio.bandwidth_hz must be positive")
    if packet_bits <= 0:
        raise ConfigError("radio.packet_bits must be positive")
    eta = packet_bits / (slot * bandwidth)
    if "eta" in rad and rad["eta"] is not None:
        eta_given = float(rad["eta"])
        if not math.isclose(eta_given, eta, rel_tol=_RTOL_ETA):
            raise ConfigError(f"radio.eta given as {eta_given} but packet_bits/(slot*bandwidth) = {eta}")

    pathloss = float(rad["pathloss_exp"])
    if pathloss < 2.0:
        raise ConfigError(f"radio.pathloss_exp must be >= 2, got {pathloss}")
    max_power = float(rad["max_power_w"])

    try:
        radio = RadioParams(
            bandwidth=bandwidth,
            noise_psd=10.0 ** (float(rad["noise_psd_dbm_hz"]) / 10.0) / 1000.0,
            pathloss_exp=pathloss,
            packet_bits=packet_bits,
            eta=eta,
            max_power=max_power,
        )
    except ValueError as exc:
        raise ConfigError(f"radio: {exc}") from None

    num_services = int(tra["num_services"])
    if num_services < 1:
        raise ConfigError("traffic.num_services must be >= 1")
    try:
        traffic = TrafficParams(
            arrival_rates=_parse_rates(tra["arrival_rate_pkts"], num_services, "arrival_rate_pkts"),
            delay_bounds=_parse_rates(tra["delay_bound_slots"], num_services, "delay_bound_slots"),
            avg_power=float(tra["avg_power_w"]),
            buffer_cap=int(tra["buffer_cap_pkts"]),
        )
    except ValueError as exc:
        raise ConfigError(f"traffic: {exc}") from None

    return _validated(
        ScenarioConfig(
            geometry=geometry,
            radio=radio,
            traffic=traffic,
            omega=float(ctl["omega"]),
            horizon=int(run["horizon"]),
            seed=int(run["seed"]),
            policy=str(run["policy"]).strip(),
        )
    )


def _validated(config: ScenarioConfig) -> ScenarioConfig:
    """The checks that span fields or that the field types do not make; shared by loading and `with_updates`."""
    # Chained comparisons are False for NaN, so each check rejects it too.
    max_power, avg_power = config.radio.max_power, config.traffic.avg_power
    if not 0.0 < max_power < math.inf:
        raise ConfigError(f"radio.max_power_w must be finite and positive, got {max_power}")
    if not avg_power <= max_power:
        raise ConfigError(f"traffic.avg_power_w = {avg_power} exceeds radio.max_power_w = {max_power}")
    if not 0.0 <= config.omega < math.inf:
        raise ConfigError(f"control.omega must be finite and non-negative, got {config.omega}")
    if not config.horizon >= 1:
        raise ConfigError(f"run.horizon must be >= 1, got {config.horizon}")
    if config.policy not in POLICY_NAMES:
        raise ConfigError(f"run.policy {config.policy!r} not one of {sorted(POLICY_NAMES)}")
    return config


def default_config() -> ScenarioConfig:
    """The fully default scenario."""
    return _build({section: dict(keys) for section, keys in DEFAULTS.items()})


def load_config(path: Optional[str | Path] = None, **overrides) -> ScenarioConfig:
    """Load a scenario file, falling back to defaults for anything omitted.

    Keyword overrides use flat `section.key` or bare key names (bare names
    must be unambiguous) and are applied after the file, e.g.
    ``load_config(path, seed=7, omega=0.4)``.
    """
    values: dict = {section: dict(keys) for section, keys in DEFAULTS.items()}

    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in values[section] and not (section == "radio" and key == "eta"):
                    raise ConfigError(f"unknown config key {section}.{key}")
                values[section][key] = raw

    for name, value in overrides.items():
        _apply_override(values, name, value)

    return _build(values)


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


def with_updates(config: ScenarioConfig, **kwargs) -> ScenarioConfig:
    """Copy a config with leaf fields replaced.

    Accepts the dataclass field names used internally: top-level fields of
    ScenarioConfig plus `arrival_rate` / `delay_bound` (scalar, fanned out to
    all services) and `max_power`.
    """
    geometry, radio, traffic = config.geometry, config.radio, config.traffic
    top: dict = {}
    for name, value in kwargs.items():
        if name == "max_power":
            radio = dataclasses.replace(radio, max_power=float(value))
        elif name == "arrival_rate":
            traffic = dataclasses.replace(traffic, arrival_rates=(float(value),) * traffic.num_services)
        elif name == "arrival_rates":
            traffic = dataclasses.replace(traffic, arrival_rates=tuple(float(v) for v in value))
        elif name == "delay_bound":
            traffic = dataclasses.replace(traffic, delay_bounds=(float(value),) * traffic.num_services)
        elif name == "avg_power":
            traffic = dataclasses.replace(traffic, avg_power=float(value))
        elif name in ("omega", "horizon", "seed", "policy"):
            top[name] = value
        else:
            raise ConfigError(f"with_updates does not know field {name!r}")
    return _validated(dataclasses.replace(config, geometry=geometry, radio=radio, traffic=traffic, **top))
