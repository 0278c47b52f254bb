"""Scalar reference formulas for the channel, the arrival draws and the slot objective.

Each works on one slot or one value at a time; the tests compare the
vectorised and one-pass production paths against them.  The slot solve has
two references: the gate's random instances, and the paper's own method,
golden-section search over the relaxed M(C).  The greedy split has one: an
exhaustive search over every integer split.
"""

from __future__ import annotations

import itertools
import math
import random

from railsched.channel import Geometry, RadioParams
from railsched.solver import SlotInstance, _m1, service_order

# Tolerance for float capacities sitting exactly on the feasible boundary.
FLOAT_SLACK = 1e-9

# Golden-section search stops once its bracket is this narrow, in packets.
GOLDEN_WIDTH = 1e-6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def distance_at(slot: int, geom: Geometry) -> float:
    """BS-receiver distance at the start of `slot`, nearest-BS association.

    Position along the track is s = v * t * Ts; the horizontal offset to the
    closest base station is min(s mod 2R, 2R - s mod 2R).
    """
    if slot < 0:
        raise ValueError("slot must be non-negative")
    s = geom.speed * slot * geom.slot_duration
    span = 2.0 * geom.cell_radius
    x = math.fmod(s, span)
    h = min(x, span - x)
    return math.hypot(h, geom.rail_offset)


def noise_equiv(distance: float, radio: RadioParams) -> float:
    """Noise-equivalent power N = B * N0 * d^alpha folding pathloss into the SNR denominator."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return radio.bandwidth * radio.noise_psd * distance**radio.pathloss_exp


def power_for_capacity(capacity: float, noise: float, eta: float) -> float:
    """The price of C packets, P = N * (2^(eta*C) - 1): the float the solvers pay."""
    return noise * (2.0 ** (eta * capacity) - 1.0)


def link_capacity(power: float, noise: float, eta: float) -> int:
    """Whole packets deliverable in one slot at transmit power `power`.

    The largest whole C whose price `power_for_capacity(C)` is at most
    `power`, found by counting up from 0.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if noise <= 0 or eta <= 0:
        raise ValueError("noise and eta must be positive")
    c = 0
    while power_for_capacity(float(c + 1), noise, eta) <= power:
        c += 1
    return c


def capacity_cap(radio: RadioParams, noise: float) -> int:
    """Whole packets deliverable at the instantaneous power cap."""
    if noise <= 0:
        raise ValueError("noise must be positive")
    return link_capacity(radio.max_power, noise, radio.eta)


def invert_cdf(u: float, table: list[float]) -> int:
    """Sequential search: the smallest k with u <= F(k)."""
    for k, total in enumerate(table):
        if u <= total:
            return k


def m1_value(capacity: float, inst: SlotInstance) -> float:
    """Piecewise-linear continuation of the greedy optimum to real capacity."""
    if capacity < 0 or capacity > inst.total_backlog + FLOAT_SLACK:
        raise ValueError(f"capacity {capacity} outside [0, {inst.total_backlog}]")
    order = service_order(inst)
    xs = [inst.weights[k] for k in order]
    prefix = list(itertools.accumulate((inst.backlogs[k] for k in order), initial=0))
    return _m1(min(capacity, float(inst.total_backlog)), xs, prefix)


def exhaustive_best_split(weights, backlogs, capacity: int) -> float:
    """Best sum_k X_k * mu_k over every integer split with 0 <= mu_k <= Q_k summing to `capacity`.

    Tries each mu_k from Q_k down, pruning a branch once the backlog left
    cannot hold the packets left; -inf when no split sums to `capacity`.
    The value adds the terms in service order, as a sum over the split does.
    """
    k = len(weights)
    suffix = list(itertools.accumulate(reversed(backlogs), initial=0))[::-1]
    best = -math.inf

    def search(i, remaining, value):
        nonlocal best
        if remaining > suffix[i]:
            return
        if i == k:
            best = max(best, value)
            return
        for m in range(min(backlogs[i], remaining), -1, -1):
            search(i + 1, remaining - m, value + weights[i] * m)

    search(0, capacity, 0.0)
    return best


def m2_value(capacity: float, inst: SlotInstance) -> float:
    """Weighted power cost beta * (2^(eta*C) - 1); convex, zero at zero."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    return inst.beta * power_for_capacity(capacity, 1.0, inst.eta)


def objective_value(capacity: float, inst: SlotInstance) -> float:
    """M(C) = M1(C) - M2(C) on the feasible range [0, min(sum Q, capacity_cap)]."""
    hi = min(float(inst.total_backlog), inst.capacity_cap)
    if capacity < 0 or capacity > hi + FLOAT_SLACK:
        raise ValueError(f"capacity {capacity} outside [0, {hi}]")
    return m1_value(capacity, inst) - m2_value(capacity, inst)


def golden_section_slot(inst: SlotInstance) -> int:
    """The paper's slot solve: golden-section search, then the better integer neighbour.

    M(C) is concave on [0, min(sum Q, capacity_cap)], so the search brackets
    its maximum to `GOLDEN_WIDTH`; the integer optimum is then the floor or
    the ceiling of the bracket's midpoint, compared on the float objective
    with ties to the smaller C.  On a plateau of M (beta = 0, or zero
    weights holding backlog) the bracket may close on any point of it.
    """
    hi = min(inst.total_backlog, inst.capacity_cap)
    a, b = 0.0, float(hi)
    c, d = b - _INV_PHI * b, _INV_PHI * b
    fc, fd = objective_value(c, inst), objective_value(d, inst)
    while b - a > GOLDEN_WIDTH:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective_value(c, inst)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective_value(d, inst)
    mid = 0.5 * (a + b)
    down, up = math.floor(mid), min(math.ceil(mid), hi)
    return up if objective_value(float(up), inst) > objective_value(float(down), inst) else down


def random_instance(rng: random.Random) -> SlotInstance:
    """One draw of the acceptance gate's random slot instances."""
    k = rng.randint(1, 8)
    return SlotInstance(
        weights=tuple(rng.uniform(0.0, 100.0) for _ in range(k)),
        backlogs=tuple(rng.randint(0, 50) for _ in range(k)),
        beta=10.0 ** rng.uniform(-6.0, 2.0),
        eta=0.048,
        noise_equiv=1e-3,
        capacity_cap=math.floor(rng.uniform(0.0, 600.0)),
    )
