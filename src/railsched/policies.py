"""The five per-slot control policies.

Every policy is a power cap for each slot plus one flag; `build_policy`
alone builds it and checks the average-power budget for every policy.
The proposed policy's cap is the instantaneous power cap; the CPA and
WFPA baselines precompute theirs, constant power at the budget or
water-filling against the known noise trajectory, its water level in
closed form.  A static policy transmits at its cap every slot and only
picks which packets ride the resulting capacity; the others solve the
drift problem under the cap.  All five split packets among services
with the same descending-X greedy rule: they differ only in power control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .queues import SystemState
from .solver import SlotInstance, greedy_allocation, solve_slot

# Static power profiles must land their time average on the budget this tightly.
_WFPA_BUDGET_RTOL = 1e-8

POLICY_NAMES = ("proposed", "cpa-static", "wfpa-static", "cpa-dynamic", "wfpa-dynamic")


@dataclass(frozen=True)
class Policy:
    """A named policy: its power cap in every slot, and whether it transmits at the cap."""

    name: str
    power_cap: np.ndarray  # (T,) W
    static: bool  # transmit at the cap (True) or solve under it (False)


def _wfpa_profile(noise_trajectory: np.ndarray, avg_power: float) -> np.ndarray:
    """Water-filling power over the whole trip: P(t) = max(level - N(t), 0).

    The level is where the profile's float time average first reaches
    `avg_power` on [min N, max N + budget], to the last double: the closed
    form gives it to within a few ulps and unit steps settle it.  This
    maximizes total throughput sum_t log2(1 + P(t)/N(t)) under the
    budget, which `build_policy` has checked.
    """
    noise = np.asarray(noise_trajectory, dtype=np.float64)
    if noise.size == 0:
        return np.zeros(0)
    # NaN fails the comparison; an infinite noise value passes and gets zero power.
    if not np.all(noise > 0.0):
        raise ValueError("noise trajectory must be positive, with no NaN")
    lo = float(noise.min())
    hi = float(noise.max()) + avg_power

    def average(level: float) -> float:
        return np.maximum(level - noise, 0.0).mean()

    # The closed form over the sorted noise, then one Newton step on the float
    # average, whose slope there is active / T.
    ordered = np.sort(noise)
    levels = (noise.size * avg_power + np.cumsum(ordered)) / np.arange(1, noise.size + 1)
    active = max(int(np.count_nonzero(levels > ordered)), 1)
    level = levels[active - 1] + (avg_power - average(levels[active - 1])) * noise.size / active
    # Settle on the largest double below hi whose average is under budget, and
    # the next: a bisection on that test, monotone in the level, ends there.
    top = math.nextafter(hi, lo)
    level = min(max(float(level), lo), top)
    while level < top and average(math.nextafter(level, hi)) < avg_power:
        level = math.nextafter(level, hi)
    while level > lo and not average(level) < avg_power:
        level = math.nextafter(level, lo)
    lo, hi = level, math.nextafter(level, hi)
    profile = np.maximum(0.5 * (lo + hi) - noise, 0.0)
    rel_err = abs(profile.mean() - avg_power) / avg_power
    if rel_err > _WFPA_BUDGET_RTOL:
        raise RuntimeError(f"water-filling left budget error {rel_err:.3e}")
    return profile


def build_policy(name: str, avg_power: float, max_power: float, noise_trajectory: np.ndarray) -> Policy:
    """Check the budget, then build a named policy's power cap over the noise trajectory's horizon and validate it."""
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; expected one of {sorted(POLICY_NAMES)}")
    if not 0.0 < avg_power < math.inf:
        raise ValueError(f"avg_power must be finite and positive, got {avg_power}")
    if name == "proposed":
        power_cap = np.broadcast_to(float(max_power), len(noise_trajectory))
    elif name.startswith("wfpa"):
        power_cap = _wfpa_profile(noise_trajectory, avg_power)
    else:
        power_cap = np.full(len(noise_trajectory), float(avg_power))
    # NaN fails both comparisons, so a non-finite cap is rejected here too.
    # The span prints in full (repr), so a cap one ulp above max_power shows.
    if power_cap.size and not (power_cap.min() >= 0.0 and power_cap.max() <= max_power):
        low, high = float(power_cap.min()), float(power_cap.max())
        raise ValueError(f"{name} power cap spans [{low!r}, {high!r}] W, outside [0, {max_power!r}] W")
    return Policy(name, power_cap, static=name.endswith("-static"))


def decide(
    policy: Policy,
    state: SystemState,
    power_cap: float,
    noise: float,
    capacity_cap: int,
    eta: float,
    omega: float,
) -> tuple[float, list[int], int]:
    """Choose one slot's action from the observed queues and channel.

    `power_cap` is the policy's power cap for the slot, `noise` the slot's
    noise-equivalent power N(t) and `capacity_cap` the whole packet cap at
    `power_cap` from `capacity_cap_profile`.  Returns `(power, allocation,
    capacity)`: the transmit power, the packets sent per service, and the
    packet count the link carries at that power.  The solver policies fill
    `capacity` exactly, within `power_cap` (a power above it is a
    RuntimeError); the static ones may leave it partly unused.
    """
    if policy.static:
        inst = _instance(state, noise, capacity_cap, 0.0, eta)
        return power_cap, greedy_allocation(capacity_cap, inst), capacity_cap

    # Every service prices the one power queue Y, so the price is K * Y.
    beta = omega * noise * (len(state.queues) * state.virtual_power)
    solution = solve_slot(_instance(state, noise, capacity_cap, beta, eta))
    power = solution.power
    if power > power_cap:
        raise RuntimeError(f"solver power {power} exceeds the {power_cap} W cap")
    return power, list(solution.allocation), solution.capacity


def _instance(state: SystemState, noise: float, capacity_cap: int, beta: float, eta: float) -> SlotInstance:
    return SlotInstance(tuple(state.virtual_delay), tuple(state.queues), beta, eta, noise, capacity_cap)
