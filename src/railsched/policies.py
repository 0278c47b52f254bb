"""The five per-slot control policies.

Two static baselines fix the transmit power in advance (constant power, and
water-filling against the known noise trajectory) and only pick which
packets ride the resulting capacity.  Their dynamic counterparts feed the
same precomputed power as a per-slot cap into the drift solver, and the
proposed policy runs the solver against the full instantaneous power cap.
All five split packets among services with the same descending-X greedy
rule, so the policies differ only in power control.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import RadioParams, floor_eps, link_capacity
from .queues import SystemState
from .solver import SlotInstance, greedy_allocation, solve_slot

# Static power profiles must land their time average on the budget this tightly.
_WFPA_BUDGET_RTOL = 1e-8

# Slack for float round-off when comparing power against a cap (shared with the engine).
POWER_CAP_RTOL = 1e-9


class PolicyKind(enum.Enum):
    PROPOSED = "proposed"
    STATIC_CPA = "cpa-static"
    STATIC_WFPA = "wfpa-static"
    DYNAMIC_CPA = "cpa-dynamic"
    DYNAMIC_WFPA = "wfpa-dynamic"

    @property
    def is_static(self) -> bool:
        return self in (PolicyKind.STATIC_CPA, PolicyKind.STATIC_WFPA)

    @property
    def uses_water_filling(self) -> bool:
        return self in (PolicyKind.STATIC_WFPA, PolicyKind.DYNAMIC_WFPA)


POLICY_NAMES = {kind.value: kind for kind in PolicyKind}


@dataclass(frozen=True)
class Policy:
    """A policy kind plus, for the CPA/WFPA variants, its precomputed power profile."""

    kind: PolicyKind
    static_profile: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.PROPOSED:
            if self.static_profile is not None:
                raise ValueError("the proposed policy takes no static profile")
        else:
            if self.static_profile is None:
                raise ValueError(f"{self.kind.value} requires a static power profile")
            if np.any(np.asarray(self.static_profile) < 0):
                raise ValueError("static profile powers must be non-negative")


def cpa_profile(avg_power: float, num_slots: int) -> np.ndarray:
    """Constant power at the average-power budget, every slot."""
    if avg_power <= 0:
        raise ValueError("avg_power must be positive")
    return np.full(num_slots, float(avg_power))


def wfpa_profile(noise_trajectory: np.ndarray, avg_power: float) -> np.ndarray:
    """Water-filling power over the whole trip: P(t) = max(level - N(t), 0).

    The level is found by bisection on [min N, max N + budget] until the
    profile's time average matches `avg_power`; this maximizes total
    throughput sum_t log2(1 + P(t)/N(t)) under the average-power budget.
    """
    if avg_power <= 0:
        raise ValueError("avg_power must be positive")
    noise = np.asarray(noise_trajectory, dtype=np.float64)
    if noise.size == 0:
        return np.zeros(0)
    if np.any(noise <= 0):
        raise ValueError("noise trajectory must be positive")
    lo = float(noise.min())
    hi = float(noise.max()) + avg_power
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(mid - noise, 0.0).mean() < avg_power:
            lo = mid
        else:
            hi = mid
    level = 0.5 * (lo + hi)
    profile = np.maximum(level - noise, 0.0)
    rel_err = abs(profile.mean() - avg_power) / avg_power
    if rel_err > _WFPA_BUDGET_RTOL:
        raise RuntimeError(f"water-filling bisection left budget error {rel_err:.3e}")
    return profile


def build_policy(kind: PolicyKind | str, avg_power: float, max_power: float, noise_trajectory: np.ndarray) -> Policy:
    """Construct a policy, precomputing and validating the static profile if any."""
    if isinstance(kind, str):
        try:
            kind = POLICY_NAMES[kind]
        except KeyError:
            raise ValueError(f"unknown policy {kind!r}; expected one of {sorted(POLICY_NAMES)}") from None
    if kind is PolicyKind.PROPOSED:
        return Policy(kind)
    if kind.uses_water_filling:
        profile = wfpa_profile(noise_trajectory, avg_power)
    else:
        profile = cpa_profile(avg_power, len(noise_trajectory))
    if profile.size and profile.max() > max_power * (1.0 + POWER_CAP_RTOL):
        raise ValueError(f"static profile peaks at {profile.max():.6g} W, above the {max_power} W cap")
    return Policy(kind, profile)


def decide(
    policy: Policy,
    state: SystemState,
    slot: int,
    noise: float,
    capacity_cap: float,
    radio: RadioParams,
    omega: float,
) -> tuple[float, list[int], int]:
    """Choose slot `slot`'s action from the observed queues and channel.

    `noise` is the slot's noise-equivalent power N(t) and `capacity_cap` the
    real-valued packet cap at the instantaneous power cap.  Returns
    `(power, allocation, capacity)`: the transmit power, the packets sent
    per service, and the packet count the link carries at that power.  The
    solver policies always fill `capacity` exactly; the static ones may
    leave it partly unused when the backlog runs out.
    """
    kind = policy.kind
    if kind is PolicyKind.PROPOSED:
        return _solve_action(state, noise, capacity_cap, radio.max_power, radio.eta, omega)

    cap_power = float(policy.static_profile[slot])

    if kind.is_static:
        capacity = link_capacity(cap_power, noise, radio.eta)
        served = min(capacity, sum(state.queues))
        inst = _instance(state, noise, float(capacity), 0.0, radio.eta)
        return cap_power, greedy_allocation(served, inst), capacity

    # Dynamic CPA/WFPA: the precomputed power acts as this slot's cap.
    if cap_power <= 0.0:
        return 0.0, [0] * len(state.queues), 0
    # numpy log2, as in `capacity_cap_profile`; math.log2 differs from it in the last ulp for some inputs.
    cap_capacity = float(np.log2(1.0 + cap_power / noise)) / radio.eta
    if floor_eps(cap_capacity) <= 0:
        return 0.0, [0] * len(state.queues), 0
    return _solve_action(state, noise, cap_capacity, cap_power, radio.eta, omega)


def _instance(state: SystemState, noise: float, cap_capacity: float, beta: float, eta: float) -> SlotInstance:
    return SlotInstance(
        weights=tuple(state.virtual_delay),
        backlogs=tuple(state.queues),
        beta=beta,
        eta=eta,
        noise_equiv=noise,
        capacity_cap=cap_capacity,
    )


def _solve_action(
    state: SystemState,
    noise: float,
    cap_capacity: float,
    cap_power: float,
    eta: float,
    omega: float,
) -> tuple[float, list[int], int]:
    # Every service prices the one power queue Y, so the price is K * Y.
    beta = omega * noise * (len(state.queues) * state.virtual_power)
    solution = solve_slot(_instance(state, noise, cap_capacity, beta, eta))
    power = solution.power
    if power > cap_power:
        if power > cap_power * (1.0 + POWER_CAP_RTOL):
            raise RuntimeError(f"solver power {power} exceeds the {cap_power} W cap")
        power = cap_power
    return power, list(solution.allocation), solution.capacity
