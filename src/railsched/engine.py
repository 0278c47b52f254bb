"""Slot-by-slot simulation: observe, decide, transmit, arrive, update.

Each slot runs in a fixed order: the policy sees the slot-start state and
the channel, its action is applied, fresh arrivals land, then the real
queue, the delay virtual queue (from the new backlog), and the power
virtual queue (from the chosen power) advance.  The trace stores the
slot-start state together with that slot's action and arrivals, so every
transition can be replayed exactly from consecutive rows.

Average delay is reported through Little's law, W_k = Qbar_k / admitted
rate.

Two checks read a finished trace: `replay_check` replays every state
transition and `audit_decisions` re-derives every slot's action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import FLOOR_EPS, capacity_cap_profile, distance_profile, noise_profile
from .config import ScenarioConfig
from .policies import POWER_CAP_RTOL, build_policy, decide
from .queues import ArrivalProcess, SystemState, update_real_queue, update_virtual_delay, update_virtual_power
from .solver import SlotInstance, brute_force_slot


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


def run(
    config: ScenarioConfig,
    policy: Optional[str] = None,
    seed: Optional[int] = None,
    record_trace: bool = True,
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

        drops = update_real_queue(state, allocation, arrivals_all[t].tolist(), traffic)
        update_virtual_delay(state, traffic)
        update_virtual_power(state, power, traffic)

        # Drops are rare; the trace column is already zero-filled.
        if any(drops):
            drop_sum = [s + d for s, d in zip(drop_sum, drops)]
            if record_trace:
                trace.drops[t] = sum(drops)

    # Admitted packets are the arrivals less the drops: exact integer column sums.
    admitted_sum = [a - d for a, d in zip(arrivals_all.sum(axis=0).tolist(), drop_sum)]
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


def audit_decisions(trace: Trace, config: ScenarioConfig, policy: str) -> None:
    """Verify every recorded action against the named policy's rule.

    Each slot's input is rebuilt from the trace's slot-start X, Q and Y and
    from the scenario: N(t), the policy's power cap from `build_policy` and
    the packet cap from `capacity_cap_profile`.  A static policy must send at
    its power cap, with capacity floor_eps(packet cap); a solver policy must
    carry the slot optimum C* at power N(2^(eta C*) - 1), within its cap.
    Both split the packets greedily in descending X.  C* is found for all
    slots at once by a vectorised threshold rule; where it differs from the
    recorded capacity (np.log2 and numpy's power can differ from the math
    module in the last ulp), `brute_force_slot` settles the slot, since a
    rerun of `solve_slot` would vouch for its own mistakes.

    Raises AssertionError naming the first slot whose action is wrong.
    """
    horizon, num_services = len(trace), trace.num_services
    if horizon != config.horizon:
        raise ValueError(f"trace has {horizon} slots but the scenario's horizon is {config.horizon}")
    radio, traffic, eta = config.radio, config.traffic, config.radio.eta
    noises = noise_profile(distance_profile(horizon, config.geometry), radio)
    _require(trace.noise != noises, "recorded noise is not the scenario's N(t)")
    rule = build_policy(policy, traffic.avg_power, radio.max_power, noises)
    power_cap = rule.power_cap
    caps = capacity_cap_profile(noises, power_cap, eta)
    limit = np.floor(caps + FLOOR_EPS).astype(np.int64)

    weights, backlogs = trace.virtual_delay, trace.queues
    order = np.argsort(-weights, axis=1, kind="stable")
    xs = np.take_along_axis(weights, order, axis=1)
    prefix = np.zeros((horizon, num_services + 1), dtype=np.int64)
    np.cumsum(np.take_along_axis(backlogs, order, axis=1), axis=1, out=prefix[:, 1:])

    if rule.static:
        capacity = limit
        served = np.minimum(limit, prefix[:, -1])
        power = power_cap
    else:
        beta = config.omega * noises * (num_services * trace.virtual_power)
        capacity = _slot_optima(xs, prefix, beta, eta, np.minimum(prefix[:, -1], limit))
        for t in np.flatnonzero(capacity != trace.capacity).tolist():
            inst = SlotInstance(
                tuple(weights[t].tolist()), tuple(backlogs[t].tolist()), float(beta[t]), eta, float(noises[t]), float(caps[t])
            )
            capacity[t] = brute_force_slot(inst).capacity
            if capacity[t] != trace.capacity[t]:
                raise AssertionError(f"slot {t}: recorded capacity {trace.capacity[t]} but the slot optimum is {capacity[t]}")
        served = capacity
        # Python's float power, as the solver prices C*; numpy's can differ in the last ulp.
        needed = np.array([n * (2.0 ** (eta * c) - 1.0) for n, c in zip(noises.tolist(), capacity.tolist())])
        _require(needed > power_cap * (1.0 + POWER_CAP_RTOL), "the slot optimum needs more than the power cap")
        power = np.where(needed > power_cap, power_cap, needed)

    share = np.clip(served[:, None] - prefix[:, :-1], 0, np.diff(prefix, axis=1))
    allocation = np.empty_like(share)
    np.put_along_axis(allocation, order, share, axis=1)
    _require(trace.capacity != capacity, "recorded capacity is not the policy's")
    _require(trace.power != power, "recorded power is not the policy's")
    _require(trace.served != served, "recorded packets served are not the policy's")
    _require(np.any(trace.allocation != allocation, axis=1), "recorded split is not the greedy one")


def _require(bad: np.ndarray, message: str) -> None:
    if bad.any():
        raise AssertionError(f"slot {int(np.flatnonzero(bad)[0])}: {message}")


def _slot_optima(xs: np.ndarray, prefix: np.ndarray, beta: np.ndarray, eta: float, hi: np.ndarray) -> np.ndarray:
    """`solve_slot`'s capacity for every row at once: threshold walk, then neighbour steps.

    Row t holds one slot's weights in descending order (`xs`), the backlog
    prefix sums in that order, the power price and the largest feasible C.
    """
    horizon, num_services = xs.shape
    unit = beta * (2.0**eta - 1.0)
    priced = unit > 0.0
    c = np.zeros(horizon, dtype=np.int64)
    walking = hi > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_unit = np.log2(np.where(priced, unit, 1.0))
        for i in range(num_services):
            walking &= (xs[:, i] > 0.0) & (c < hi)
            last = np.minimum(prefix[:, i + 1], hi)
            bound = (np.log2(xs[:, i]) - log_unit) / eta
            stop = walking & priced & ~(bound >= last)
            lift = stop & (bound > c)
            c[lift] = np.ceil(bound[lift])
            walking &= ~stop
            c[walking] = last[walking]

    def objective(rows: np.ndarray, n: np.ndarray) -> np.ndarray:
        # M1 summed segment by segment in `_m1`'s order (segments past n add +0.0).
        m1 = np.zeros(len(rows))
        for i in range(num_services):
            lo = prefix[rows, i]
            m1 += xs[rows, i] * np.clip(n - lo, 0, prefix[rows, i + 1] - lo)
        return m1 - beta[rows] * (2.0 ** (eta * n) - 1.0)

    # Step up while the float objective rises, then down while it does not
    # fall, so ties go to the smaller C.
    for step, better in ((1, np.greater), (-1, np.greater_equal)):
        rows = np.flatnonzero(hi > 0)
        value = objective(rows, c[rows])
        while rows.size:
            n = c[rows] + step
            inside = (n >= 0) & (n <= hi[rows])
            rows, value, n = rows[inside], value[inside], n[inside]
            candidate = objective(rows, n)
            moved = better(candidate, value)
            rows, value = rows[moved], candidate[moved]
            c[rows] = n[moved]
    return c
