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
from operator import add
from typing import Optional

import numpy as np

from .channel import capacity_cap_profile, distance_profile, noise_profile
from .config import ScenarioConfig
from .policies import build_policy, decide
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
    record_trace: bool = True,
) -> tuple[Optional[Trace], SimSummary]:
    """Simulate the whole horizon; deterministic for a fixed config and policy.

    `policy` names one of the five policies; None runs `config.policy`.
    The arrivals are drawn from `config.seed`.
    """
    if config.horizon < 1:
        raise ValueError("horizon must be >= 1")
    horizon = config.horizon
    geom, radio, traffic = config.geometry, config.radio, config.traffic
    num_services = traffic.num_services

    distances = distance_profile(horizon, geom)
    noises = noise_profile(distances, radio)
    policy = build_policy(config.policy if policy is None else policy, traffic.avg_power, radio.max_power, noises)
    caps = capacity_cap_profile(noises, policy.power_cap, radio.eta)

    arrivals_all = ArrivalProcess(traffic.arrival_rates, config.seed).sample_horizon(horizon)

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
    max_power, eta, omega = radio.max_power, radio.eta, config.omega
    # Zero-copy views whose items are Python floats, so the slot arithmetic
    # never touches numpy scalars.
    power_cap_at = memoryview(policy.power_cap)
    noise_at = memoryview(noises)
    cap_at = memoryview(caps)

    power_sum = 0.0
    backlog_sum = [0] * num_services
    drop_sum = [0] * num_services

    # Trace rows gather in two flat lists, copied into the arrays once per
    # chunk; the chunk's arrivals are converted to Python lists once.
    for start in range(0, horizon, _RECORD_CHUNK_SLOTS):
        stop = min(start + _RECORD_CHUNK_SLOTS, horizon)
        floats, ints, arrivals = [], [], arrivals_all[start:stop].tolist()
        for t in range(start, stop):
            power, allocation, capacity = decide(policy, state, power_cap_at[t], noise_at[t], cap_at[t], eta, omega)
            served = sum(allocation)

            if power > max_power:
                raise RuntimeError(f"slot {t}: power {power} exceeds the {max_power} W cap")
            if served > capacity:
                raise RuntimeError(f"slot {t}: served {served} exceeds link capacity {capacity}")

            if record_trace:
                # Appends and list extends; a starred tuple per slot costs more.
                floats.append(power)
                floats.append(state.virtual_power)
                floats += state.virtual_delay
                ints.append(capacity)
                ints.append(served)
                ints += allocation
                ints += state.queues

            power_sum += power
            backlog_sum = list(map(add, backlog_sum, state.queues))

            drops = update_real_queue(state, allocation, arrivals[t - start], traffic)
            update_virtual_delay(state, traffic)
            update_virtual_power(state, power, traffic)

            # Drops are rare; the trace column is already zero-filled.
            if any(drops):
                drop_sum = [s + d for s, d in zip(drop_sum, drops)]
                if record_trace:
                    trace.drops[t] = sum(drops)
        if record_trace:
            _record(trace, start, floats, ints)

    # Admitted packets are the arrivals less the drops: exact integer column sums.
    admitted_sum = [a - d for a, d in zip(arrivals_all.sum(axis=0).tolist(), drop_sum)]
    summary = _summary_from_totals(power_sum, backlog_sum, admitted_sum, drop_sum, horizon, traffic)
    return trace, summary


# Slots whose arrivals and trace rows are held as Python lists at a time;
# bounds the memory they take.
_RECORD_CHUNK_SLOTS = 1024


def _record(trace: Trace, start: int, floats: list[float], ints: list[int]) -> None:
    """Copy recorded rows into `trace` from slot `start` on.

    Each slot adds P, Y and X_1..X_K to `floats` and C, served, mu_1..mu_K
    and Q_1..Q_K to `ints`.
    """
    k = trace.num_services
    f = np.array(floats, dtype=np.float64).reshape(-1, 2 + k)
    i = np.array(ints, dtype=np.int64).reshape(-1, 2 + 2 * k)
    rows = slice(start, start + len(f))
    trace.power[rows], trace.virtual_power[rows], trace.virtual_delay[rows] = f[:, 0], f[:, 1], f[:, 2:]
    trace.capacity[rows], trace.served[rows] = i[:, 0], i[:, 1]
    trace.allocation[rows], trace.queues[rows] = i[:, 2 : 2 + k], i[:, 2 + k :]


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


def summarize(trace: Trace, config: ScenarioConfig) -> SimSummary:
    """Recompute the run summary from a trace."""
    if len(trace) == 0:
        raise ValueError("cannot summarize an empty trace")
    _check_services(trace, config)
    traffic = config.traffic
    queues, arrivals = trace.queues, trace.arrivals

    # Per-service drops are a pure function of the row: overflow beyond the cap.
    dropped = np.maximum(queues - trace.allocation + arrivals - traffic.buffer_cap, 0)

    # In-order sums, matching the in-run streaming sums bit for bit (since
    # Python 3.12 the builtin sum compensates float additions; cumsum does not).
    power_sum = float(np.cumsum(trace.power)[-1])
    backlog_sum = [int(queues[:, k].sum()) for k in range(trace.num_services)]
    admitted_sum = [int((arrivals[:, k] - dropped[:, k]).sum()) for k in range(trace.num_services)]
    drop_sum = [int(dropped[:, k].sum()) for k in range(trace.num_services)]
    return _summary_from_totals(power_sum, backlog_sum, admitted_sum, drop_sum, len(trace), traffic)


def replay_check(trace: Trace, config: ScenarioConfig) -> None:
    """Verify every stored transition against the update equations, exactly.

    Raises AssertionError on the first slot whose successor row is not the
    one the recursions produce, whose slot number is not its row number, or
    whose served or drop count is not the sum of its own split or overflow.
    """
    _check_services(trace, config)
    traffic = config.traffic
    _require(trace.slot != np.arange(len(trace)), "slot-number replay mismatch")
    _require(trace.served != trace.allocation.sum(axis=1), "served-count replay mismatch")
    q_next = np.minimum(trace.queues[:-1] - trace.allocation[:-1] + trace.arrivals[:-1], traffic.buffer_cap)
    _require(np.any(q_next != trace.queues[1:], axis=1), "real-queue replay mismatch")
    x_next = np.maximum(trace.virtual_delay[:-1] - np.array(traffic.delay_drains), 0.0) + q_next
    _require(np.any(x_next != trace.virtual_delay[1:], axis=1), "delay virtual-queue replay mismatch")
    y_next = np.maximum(trace.virtual_power[:-1] - traffic.avg_power, 0.0) + trace.power[:-1]
    _require(y_next != trace.virtual_power[1:], "power virtual-queue replay mismatch")
    drops = np.maximum(trace.queues - trace.allocation + trace.arrivals - traffic.buffer_cap, 0).sum(axis=1)
    _require(drops != trace.drops, "drop-count replay mismatch")


def audit_decisions(trace: Trace, config: ScenarioConfig, policy: str) -> None:
    """Verify every recorded action against the named policy's rule.

    Each slot's input is rebuilt from the trace's slot-start X, Q and Y and
    from the scenario: d(t) and N(t), which the trace must match, the
    policy's power cap from `build_policy` and the packet cap from
    `capacity_cap_profile`.  A static policy must send at its power cap with
    the packet cap as capacity; a solver policy must carry the slot optimum
    C* at power N(2^(eta C*) - 1), no more than its cap.  Both split the
    packets greedily in descending X.  C* is found for all slots at once by
    the threshold rule in closed form and stands where `solve_slot`'s own
    stop rule holds at it.  `_prices` prices counts as the solver does, so
    only np.log2 can differ from the math module (in the last ulp); where
    the rule fails or C* is not the recorded capacity, `brute_force_slot`
    settles the slot, since a rerun of `solve_slot` would vouch for itself.

    Raises AssertionError naming the first slot whose action is wrong.
    """
    horizon, num_services = len(trace), trace.num_services
    if horizon != config.horizon:
        raise ValueError(f"trace has {horizon} slots but the scenario's horizon is {config.horizon}")
    _check_services(trace, config)
    radio, traffic, eta = config.radio, config.traffic, config.radio.eta
    distances = distance_profile(horizon, config.geometry)
    _require(trace.distance != distances, "recorded distance is not the scenario's d(t)")
    noises = noise_profile(distances, radio)
    _require(trace.noise != noises, "recorded noise is not the scenario's N(t)")
    rule = build_policy(policy, traffic.avg_power, radio.max_power, noises)
    power_cap = rule.power_cap
    caps = capacity_cap_profile(noises, power_cap, eta)

    weights, backlogs = trace.virtual_delay, trace.queues
    order = np.argsort(-weights, axis=1, kind="stable")
    xs = np.take_along_axis(weights, order, axis=1)
    prefix = np.zeros((horizon, num_services + 1), dtype=np.int64)
    np.cumsum(np.take_along_axis(backlogs, order, axis=1), axis=1, out=prefix[:, 1:])

    if rule.static:
        capacity = caps
        served = np.minimum(caps, prefix[:, -1])
        power = power_cap
    else:
        beta = config.omega * noises * (num_services * trace.virtual_power)
        capacity, certified = _slot_optima(xs, prefix, beta, eta, np.minimum(prefix[:, -1], caps))
        for t in np.flatnonzero(~certified | (capacity != trace.capacity)).tolist():
            inst = SlotInstance(
                tuple(weights[t].tolist()), tuple(backlogs[t].tolist()), float(beta[t]), eta, float(noises[t]), int(caps[t])
            )
            capacity[t] = brute_force_slot(inst).capacity
            if capacity[t] != trace.capacity[t]:
                raise AssertionError(f"slot {t}: recorded capacity {trace.capacity[t]} but the slot optimum is {capacity[t]}")
        served, power = capacity, noises * _prices(eta, capacity)
        _require(power > power_cap, "the slot optimum needs more than the power cap")

    share = np.clip(served[:, None] - prefix[:, :-1], 0, np.diff(prefix, axis=1))
    allocation = np.empty_like(share)
    np.put_along_axis(allocation, order, share, axis=1)
    _require(trace.capacity != capacity, "recorded capacity is not the policy's")
    _require(trace.power != power, "recorded power is not the policy's")
    _require(trace.served != served, "recorded packets served are not the policy's")
    _require(np.any(trace.allocation != allocation, axis=1), "recorded split is not the greedy one")


def _check_services(trace: Trace, config: ScenarioConfig) -> None:
    """A trace is read against the scenario's per-service values, so the counts must match."""
    if trace.num_services != config.traffic.num_services:
        raise ValueError(f"trace has {trace.num_services} services but the scenario has {config.traffic.num_services}")


def _require(bad: np.ndarray, message: str) -> None:
    if bad.any():
        raise AssertionError(f"slot {int(np.flatnonzero(bad)[0])}: {message}")


def _prices(eta: float, counts: np.ndarray) -> np.ndarray:
    """2^(eta n) - 1 per count n, one Python float power per distinct n (inf past the doubles), as the solver prices n."""
    distinct, where = np.unique(counts, return_inverse=True)
    return np.array([2.0 ** (eta * n) - 1.0 if eta * n < 1024.0 else np.inf for n in distinct.tolist()])[where].reshape(counts.shape)


def _slot_optima(xs: np.ndarray, prefix: np.ndarray, beta: np.ndarray, eta: float, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`solve_slot`'s threshold C for every row at once, and whether its stop rule holds there.

    Row t holds one slot's weights in descending order (`xs`), the backlog
    prefix sums in that order, the power price and the largest feasible C.
    Segment i adds its packets in [e_i, e_i+1), e = min(prefix, hi), that lie
    below ceil(bound_i), its threshold (+inf unpriced, -inf at weight 0); the
    bounds do not increase, so that is where the walk stops.  C is certified
    when no step up rises and no step down ties or rises on M as the solver sums it.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        unit = beta * (2.0**eta - 1.0)
        bound = (np.log2(xs) - np.log2(np.where(unit > 0.0, unit, 1.0))[:, None]) / eta
        bound = np.where(xs > 0.0, np.where((unit > 0.0)[:, None], bound, np.inf), -np.inf)
        ends = np.minimum(prefix, hi[:, None])
        c = np.clip(np.ceil(bound) - ends[:, :-1], 0, np.diff(ends, axis=1)).sum(axis=1).astype(np.int64)
        # M at C, C+1 and C-1: M1 in `_m1`'s order (segments past n add +0.0).
        n = np.stack([c, np.minimum(c + 1, hi), np.maximum(c - 1, 0)])
        m1 = np.zeros(n.shape)
        for i in range(xs.shape[1]):
            m1 += xs[:, i] * np.clip(n - prefix[:, i], 0, prefix[:, i + 1] - prefix[:, i])
        value, up, down = m1 - beta * _prices(eta, n)
    return c, ((c == hi) | ~(up > value)) & ((c == 0) | (down < value))
