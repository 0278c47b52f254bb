"""Slot-by-slot simulation: observe, decide, transmit, arrive, update.

Each slot runs in a fixed order: the policy sees the slot-start state and
the channel, its action is applied, fresh arrivals land, then the real
queue, the delay virtual queue (from the new backlog), and the power
virtual queue (from the chosen power) advance.  The trace stores the
slot-start state together with that slot's action and arrivals, so every
transition can be replayed exactly from consecutive rows.

Average delay is reported through Little's law, W_k = Qbar_k / admitted
rate; an optional per-packet tracker cross-checks that accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import capacity_cap_profile, distance_profile, noise_profile
from .config import ScenarioConfig
from .policies import POWER_CAP_RTOL, build_policy, decide
from .queues import ArrivalProcess, SystemState, update_real_queue, update_virtual_delay, update_virtual_power


@dataclass
class Trace:
    """Columnar per-slot record; row t holds the state observed at slot t plus that slot's action."""

    slot: np.ndarray  # (T,)
    distance: np.ndarray  # (T,) m
    noise: np.ndarray  # (T,) W
    power: np.ndarray  # (T,) W
    capacity: np.ndarray  # (T,) packets the link carries at `power`
    served: np.ndarray  # (T,) packets actually transmitted
    arrivals: np.ndarray  # (T, K)
    allocation: np.ndarray  # (T, K)
    queues: np.ndarray  # (T, K) Q_k at slot start
    virtual_delay: np.ndarray  # (T, K) X_k at slot start
    virtual_power: np.ndarray  # (T,) Y at slot start (one power virtual queue)
    drops: np.ndarray  # (T,) packets dropped to the buffer cap this slot

    def __len__(self) -> int:
        return len(self.slot)

    @property
    def num_services(self) -> int:
        return self.arrivals.shape[1]


@dataclass(frozen=True)
class SimSummary:
    """Whole-run averages and constraint verdicts."""

    avg_power: float  # W
    avg_backlog: tuple[float, ...]  # Qbar_k, packets
    avg_delay: tuple[float, ...]  # Wbar_k = Qbar_k / admitted rate, slots
    empirical_rates: tuple[float, ...]  # admitted packets per slot
    delay_ok: tuple[bool, ...]
    power_ok: bool
    total_drops: tuple[int, ...]
    horizon: int


class PacketDelayTracker:
    """Optional FIFO per-packet bookkeeping for validating the Little's-law delay.

    Packets depart head-first within each service; a packet arriving in slot
    tau and transmitted in slot sigma waited sigma - tau slots.  Dropped
    packets never enter the books.
    """

    def __init__(self, num_services: int):
        self.pending: list[deque[int]] = [deque() for _ in range(num_services)]
        self.served_delay_total = 0
        self.served_count = 0

    def on_slot(self, slot: int, allocation: list[int], admitted: list[int]) -> None:
        for k, mu in enumerate(allocation):
            q = self.pending[k]
            for _ in range(mu):
                self.served_delay_total += slot - q.popleft()
                self.served_count += 1
        for k, n in enumerate(admitted):
            self.pending[k].extend([slot] * n)

    def residual_delay_total(self, final_slot: int) -> int:
        """Waiting already accrued by still-queued packets, counted through `final_slot`."""
        return sum(max(final_slot - t, 0) for q in self.pending for t in q)


def run(
    config: ScenarioConfig,
    policy: Optional[str] = None,
    seed: Optional[int] = None,
    record_trace: bool = True,
    packet_tracker: Optional[PacketDelayTracker] = None,
) -> tuple[Optional[Trace], SimSummary]:
    """Simulate the whole horizon; deterministic for fixed (config, policy, seed).

    `policy` names one of the five policies; None runs `config.policy`.
    """
    if config.horizon < 1:
        raise ValueError("horizon must be >= 1")
    seed = config.seed if seed is None else int(seed)
    horizon = config.horizon
    geom, radio, traffic = config.geometry, config.radio, config.traffic
    num_services = traffic.num_services

    distances = distance_profile(horizon, geom)
    noises = noise_profile(distances, radio)
    policy = build_policy(config.policy if policy is None else policy, traffic.avg_power, radio.max_power, noises)
    caps = capacity_cap_profile(noises, policy.power_cap, radio.eta)

    arrivals_all = ArrivalProcess(traffic.arrival_rates, seed).sample_horizon(horizon)

    trace = None
    if record_trace:
        trace = Trace(
            slot=np.arange(horizon, dtype=np.int64),
            distance=distances,
            noise=noises,
            power=np.zeros(horizon),
            capacity=np.zeros(horizon, dtype=np.int64),
            served=np.zeros(horizon, dtype=np.int64),
            arrivals=arrivals_all,
            allocation=np.zeros((horizon, num_services), dtype=np.int64),
            queues=np.zeros((horizon, num_services), dtype=np.int64),
            virtual_delay=np.zeros((horizon, num_services)),
            virtual_power=np.zeros(horizon),
            drops=np.zeros(horizon, dtype=np.int64),
        )

    state = SystemState.initial(num_services)
    power_limit = radio.max_power * (1.0 + POWER_CAP_RTOL)
    eta, omega = radio.eta, config.omega
    # Zero-copy views whose items are Python floats, so the slot arithmetic
    # never touches numpy scalars.
    power_cap_at = memoryview(policy.power_cap)
    noise_at = memoryview(noises)
    cap_at = memoryview(caps)

    power_sum = 0.0
    backlog_sum = [0] * num_services
    admitted_sum = [0] * num_services
    drop_sum = [0] * num_services

    for t in range(horizon):
        power, allocation, capacity = decide(policy, state, power_cap_at[t], noise_at[t], cap_at[t], eta, omega)
        served = sum(allocation)

        if power > power_limit:
            raise RuntimeError(f"slot {t}: power {power} exceeds the {radio.max_power} W cap")
        if served > capacity:
            raise RuntimeError(f"slot {t}: served {served} exceeds link capacity {capacity}")

        if record_trace:
            trace.power[t] = power
            trace.capacity[t] = capacity
            trace.served[t] = served
            trace.allocation[t] = allocation
            trace.queues[t] = state.queues
            trace.virtual_delay[t] = state.virtual_delay
            trace.virtual_power[t] = state.virtual_power

        power_sum += power
        backlog_sum = [b + q for b, q in zip(backlog_sum, state.queues)]

        counts = arrivals_all[t].tolist()
        drops = update_real_queue(state, allocation, counts, traffic)
        update_virtual_delay(state, traffic)
        update_virtual_power(state, power, traffic)
        state.slot = t + 1

        admitted = [c - d for c, d in zip(counts, drops)]
        admitted_sum = [s + a for s, a in zip(admitted_sum, admitted)]
        drop_sum = [s + d for s, d in zip(drop_sum, drops)]
        if record_trace:
            trace.drops[t] = sum(drops)
        if packet_tracker is not None:
            packet_tracker.on_slot(t, allocation, admitted)

    summary = _summary_from_totals(power_sum, backlog_sum, admitted_sum, drop_sum, horizon, traffic)
    return trace, summary


def _summary_from_totals(power_sum, backlog_sum, admitted_sum, drop_sum, horizon, traffic) -> SimSummary:
    avg_power = float(power_sum) / horizon
    avg_backlog = tuple(b / horizon for b in backlog_sum)
    rates = tuple(a / horizon for a in admitted_sum)
    avg_delay = tuple(q / r if r > 0 else 0.0 for q, r in zip(avg_backlog, rates))
    delay_ok = tuple(w <= bound for w, bound in zip(avg_delay, traffic.delay_bounds))
    return SimSummary(
        avg_power=avg_power,
        avg_backlog=avg_backlog,
        avg_delay=avg_delay,
        empirical_rates=rates,
        delay_ok=delay_ok,
        power_ok=avg_power <= traffic.avg_power,
        total_drops=tuple(drop_sum),
        horizon=horizon,
    )


def summarize(trace: Trace, config: ScenarioConfig, skip: int = 0) -> SimSummary:
    """Recompute the run summary from a trace, optionally dropping warm-up slots."""
    if len(trace) == 0:
        raise ValueError("cannot summarize an empty trace")
    if not 0 <= skip < len(trace):
        raise ValueError(f"skip {skip} outside [0, {len(trace)})")
    traffic = config.traffic
    queues = trace.queues[skip:]
    arrivals = trace.arrivals[skip:]
    allocation = trace.allocation[skip:]
    horizon = len(trace) - skip

    # Per-service drops are a pure function of the row: overflow beyond the cap.
    dropped = np.maximum(queues - allocation + arrivals - traffic.buffer_cap, 0)

    # Sequential accumulation, matching the in-run streaming sums bit for bit.
    power_sum = sum(trace.power[skip:].tolist(), 0.0)
    backlog_sum = [int(queues[:, k].sum()) for k in range(trace.num_services)]
    admitted_sum = [int((arrivals[:, k] - dropped[:, k]).sum()) for k in range(trace.num_services)]
    drop_sum = [int(dropped[:, k].sum()) for k in range(trace.num_services)]
    return _summary_from_totals(power_sum, backlog_sum, admitted_sum, drop_sum, horizon, traffic)


def replay_check(trace: Trace, config: ScenarioConfig) -> None:
    """Verify every stored transition against the update equations, exactly.

    Raises AssertionError on the first slot whose successor row is not the
    one the recursions produce.
    """
    traffic = config.traffic
    lam_w = np.array([r * w for r, w in zip(traffic.arrival_rates, traffic.delay_bounds)])
    q_next = np.minimum(trace.queues[:-1] - trace.allocation[:-1] + trace.arrivals[:-1], traffic.buffer_cap)
    if not np.array_equal(q_next, trace.queues[1:]):
        bad = int(np.argwhere(np.any(q_next != trace.queues[1:], axis=1))[0][0])
        raise AssertionError(f"real-queue replay mismatch at slot {bad}")
    x_next = np.maximum(trace.virtual_delay[:-1] - lam_w, 0.0) + q_next
    if not np.array_equal(x_next, trace.virtual_delay[1:]):
        bad = int(np.argwhere(np.any(x_next != trace.virtual_delay[1:], axis=1))[0][0])
        raise AssertionError(f"delay virtual-queue replay mismatch at slot {bad}")
    y_next = np.maximum(trace.virtual_power[:-1] - traffic.avg_power, 0.0) + trace.power[:-1]
    if not np.array_equal(y_next, trace.virtual_power[1:]):
        bad = int(np.argwhere(y_next != trace.virtual_power[1:])[0][0])
        raise AssertionError(f"power virtual-queue replay mismatch at slot {bad}")
    drops = np.maximum(trace.queues[:-1] - trace.allocation[:-1] + trace.arrivals[:-1] - traffic.buffer_cap, 0).sum(axis=1)
    if not np.array_equal(drops, trace.drops[:-1]):
        bad = int(np.argwhere(drops != trace.drops[:-1])[0][0])
        raise AssertionError(f"drop-count replay mismatch at slot {bad}")
