"""Cell geometry, pathloss, and the power/packet-capacity mapping.

A receiver moves at constant speed along a straight rail served by base
stations placed every 2R at a perpendicular offset d0 from the track.
Everything the scheduler needs from the physical layer is a deterministic
function of the slot index:

    distance d(t)  ->  noise-equivalent power N(t) = B * N0 * d(t)^alpha
                   ->  packet capacity C = floor(log2(1 + P/N) / eta)

with eta = L / (Ts * B) converting spectral efficiency into whole packets
of L bits per slot.  The capacity floor and its exact inverse
P = N * (2^(eta*C) - 1) are the two directions every policy relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Nudge added before flooring so the exact capacity<->power inverse survives
# floating-point round-off (the inverse only holds in real arithmetic).
FLOOR_EPS = 1e-9

# Exponent guard: 2^x with x above this is not representable in a double.
MAX_EXPONENT = 1000.0


def floor_eps(x: float) -> int:
    """Floor with a small positive nudge, robust to round-off just below an integer."""
    return math.floor(x + FLOOR_EPS)


@dataclass(frozen=True)
class Geometry:
    """Track layout and slot timing. Base stations sit at 0, 2R, 4R, ... along the rail."""

    cell_radius: float  # R, meters
    rail_offset: float  # d0, meters (perpendicular BS-to-track distance)
    speed: float  # v, meters/second
    slot_duration: float  # Ts, seconds

    @property
    def max_distance(self) -> float:
        """Largest BS-receiver distance, reached midway between adjacent base stations."""
        return math.hypot(self.cell_radius, self.rail_offset)

    @property
    def period_slots(self) -> int:
        """Number of slots in one cell period (BS center to next BS center)."""
        return math.ceil(2.0 * self.cell_radius / (self.speed * self.slot_duration))


@dataclass(frozen=True)
class RadioParams:
    """Link-budget constants."""

    bandwidth: float  # B, Hz
    noise_psd: float  # N0, W/Hz
    pathloss_exp: float  # alpha
    packet_bits: float  # L
    eta: float  # L / (Ts * B)
    max_power: float  # instantaneous power cap, W


def distance_profile(num_slots: int, geom: Geometry) -> np.ndarray:
    """BS-receiver distance at the start of each slot 0..num_slots-1, nearest-BS association.

    Position along the track is s = v * t * Ts; the horizontal offset to the
    closest base station is min(s mod 2R, 2R - s mod 2R).
    """
    s = geom.speed * geom.slot_duration * np.arange(num_slots, dtype=np.float64)
    span = 2.0 * geom.cell_radius
    x = np.fmod(s, span)
    h = np.minimum(x, span - x)
    return np.hypot(h, geom.rail_offset)


def noise_profile(distances: np.ndarray, radio: RadioParams) -> np.ndarray:
    """Noise-equivalent power N = B * N0 * d^alpha, folding pathloss into the SNR denominator."""
    return radio.bandwidth * radio.noise_psd * np.asarray(distances, dtype=np.float64) ** radio.pathloss_exp


def power_for_capacity(capacity: float, noise: float, eta: float) -> float:
    """Exact inverse of the un-floored capacity curve: P = N * (2^(eta*C) - 1)."""
    if not capacity >= 0:
        raise ValueError(f"capacity must be non-negative, got {capacity!r}")
    if capacity == 0.0:
        return 0.0
    exponent = eta * capacity
    if exponent > MAX_EXPONENT:
        raise ValueError(f"capacity {capacity} exceeds the representable power range")
    return noise * (2.0**exponent - 1.0)


def capacity_cap_profile(noises: np.ndarray, power_cap, eta: float) -> np.ndarray:
    """Real-valued capacity reachable at a power cap given once or per slot."""
    return np.log2(1.0 + power_cap / np.asarray(noises, dtype=np.float64)) / eta

