"""Cell geometry, pathloss, and the power/packet-capacity mapping.

A receiver moves at constant speed along a straight rail served by base
stations placed every 2R at a perpendicular offset d0 from the track.
Everything the scheduler needs from the physical layer is a deterministic
function of the slot index:

    distance d(t)  ->  noise-equivalent power N(t) = B * N0 * d(t)^alpha
                   ->  packet cap: the largest whole C with N * (2^(eta*C) - 1) <= P

with eta = L / (Ts * B) converting spectral efficiency into whole packets
of L bits per slot.  The cap tests the float price the solvers pay for C
packets, so the power of any C up to the cap is within P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

def floor_eps(x: float) -> int:
    """Floor with a 1e-9 nudge against round-off just below an integer; only the benchmark harness calls it."""
    return math.floor(x + 1e-9)


@dataclass(frozen=True)
class Geometry:
    """Track layout and slot timing. Base stations sit at 0, 2R, 4R, ... along the rail."""

    cell_radius: float  # R, meters
    rail_offset: float  # d0, meters (perpendicular BS-to-track distance)
    speed: float  # v, meters/second
    slot_duration: float  # Ts, seconds

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


def capacity_cap_profile(noises: np.ndarray, power_cap, eta: float) -> np.ndarray:
    """Packet cap per slot at a power cap given once or per slot, as int64.

    The largest whole C in [0, 2^53] with `N * (2.0 ** (eta * C) - 1.0) <=
    P_cap` in Python floats, the price `solve_slot` pays.  With u = 2^-53,
    numpy's estimate e = log2(1 + P/N) / eta is within 9u*e + 2.9u/eta of
    the real root: P/N and 1 + P/N round by u each (2u/ln 2 in log2), log2
    is within 4 ulp and / eta rounds by u.  Python prices C as the real C + d,
    |d| <= 3u*C + 2.9u/eta: eta*C, - 1 and * N round by u (u*C packets each)
    and the power's ulp, 2u * 2^(eta*C), is 2.9u/eta packets once - 1
    cancels, growing as eta shrinks.  So C <= e - w fits and C >= e + w does
    not for w = 2^-48 * (e + 1/eta), 2.6 times the sum: a window with no
    integer gives floor(e), the rest are bisected on Python's test, so the
    window never decides a cap.  The bound needs normal doubles: a noise
    below 2^-970 gets an infinite window.
    """
    noises = np.asarray(noises, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        estimate = np.log2(1.0 + power_cap / noises) / eta
        window = np.where(noises < 2.0**-970, np.inf, 2.0**-48 * (estimate + 1.0 / eta))
        # fmax reads the NaN of inf - inf (P/N overflows) as 0.
        lo = np.fmin(np.fmax(np.floor(estimate - window), 0.0), 2.0**53)
        hi = np.fmin(np.floor(estimate + window), 2.0**53)
        caps = lo.astype(np.int64)
    power = np.broadcast_to(power_cap, noises.shape)
    for t in np.flatnonzero(lo != hi).tolist():
        noise, cap_power, fits, above = float(noises[t]), float(power[t]), int(lo[t]), int(hi[t]) + 1
        while above - fits > 1:
            mid = (fits + above) // 2
            try:
                fits, above = (mid, above) if noise * (2.0 ** (eta * mid) - 1.0) <= cap_power else (fits, mid)
            except OverflowError:
                above = mid
        caps[t] = fits
    return caps
