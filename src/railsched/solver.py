"""Exact per-slot solve of the joint power / packet-allocation problem.

Each slot asks for integers mu_k in [0, Q_k] and a transmit power P that
maximize  sum_k X_k * mu_k  -  beta_hat * P  subject to the link carrying
sum mu_k packets and P staying below the slot's cap.  Because the optimum
always transmits at the cheapest power delivering C = sum mu_k packets,
the whole problem collapses to one variable:

    maximize  M(C) = M1(C) - M2(C)   over integers 0 <= C <= min(sum Q, cap)

where M1(C) is the best weighted packet count at total capacity C (filled
greedily in descending X_k) and M2(C) = beta * (2^(eta*C) - 1) is the
weighted power cost.  M1 is piecewise linear with non-increasing slopes
(the sorted weights x_i), and the marginal cost of packet c+1,
beta * 2^(eta*c) * (2^eta - 1), rises with c.  So the integer optimum is a
threshold: take packets in descending-weight order while, on the current
weight segment,

    c < log2(x_i / (beta * (2^eta - 1))) / eta,

then compare the integer neighbours of that point on the float objective,
ties to the smaller C.  This is the same global optimum the paper reaches
by golden-section search over the relaxed concave M(C) plus rounding, found
exactly with no iteration and no stopping width.

`solve_slot` does it in one pass: one sort of the services by weight, the
backlog prefix sums prefix[i] and the table full[i] = M1(prefix[i]), the
threshold walk, the neighbour steps, then the greedy split (stopping once C
is used up) and the power N * (2^(eta*C) - 1).
A neighbour step reads M1(n) from the table: with j the first index where
prefix[j] >= n, it is full[j] when prefix[j] == n and otherwise
full[j-1] + x_{j-1} * (n - prefix[j-1]).  That is bit for bit the float the
segment walk `_m1` returns, because `full` is summed segment by segment in
the walk's order and the zero-backlog segments the walk would also visit
add exactly +0.0.  `brute_force_slot` keeps its own path through `_m1` and
enumerates every integer C, as an independent check of that whole chain.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .channel import MAX_EXPONENT, floor_eps, power_for_capacity

# Brute-force enumeration refuses instances beyond this many candidates.
_BRUTE_FORCE_LIMIT = 100_000


@dataclass(frozen=True)
class SlotInstance:
    """One slot's solver input.

    `weights` are the delay-pressure virtual queues X_k, `beta` is the
    aggregated power price omega * N * K * Y, and `capacity_cap` is the
    real-valued packet cap implied by the slot's power cap.  Every float
    must be finite; `eta` and `noise_equiv` must be positive.
    """

    weights: tuple[float, ...]
    backlogs: tuple[int, ...]
    beta: float
    eta: float
    noise_equiv: float
    capacity_cap: float

    def __post_init__(self) -> None:
        # One chained comparison per value: NaN fails every comparison, so
        # `not lo <= v < inf` rejects NaN, infinities and out-of-range values.
        if len(self.weights) != len(self.backlogs):
            raise ValueError("weights and backlogs must have equal length")
        for w in self.weights:
            if not 0.0 <= w < math.inf:
                raise ValueError(f"weights must be finite and non-negative, got {w!r}")
        for q in self.backlogs:
            if q < 0:
                raise ValueError("backlogs must be non-negative")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and non-negative, got {self.beta!r}")
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        if not 0.0 < self.noise_equiv < math.inf:
            raise ValueError(f"noise_equiv must be finite and positive, got {self.noise_equiv!r}")
        if not 0.0 <= self.capacity_cap < math.inf:
            raise ValueError(f"capacity_cap must be finite and non-negative, got {self.capacity_cap!r}")

    @property
    def total_backlog(self) -> int:
        return sum(self.backlogs)


@dataclass(frozen=True)
class SlotSolution:
    capacity: int  # C*, packets actually carried
    power: float  # P* = N * (2^(eta*C*) - 1), W
    allocation: tuple[int, ...]  # mu*, sums to C*
    objective: float  # M(C*)


def service_order(inst: SlotInstance) -> list[int]:
    """Service indices in descending weight order, ties broken by ascending index."""
    # Python's sort is stable under reverse=True, so equal weights keep ascending index.
    return sorted(range(len(inst.weights)), key=inst.weights.__getitem__, reverse=True)


def _sorted_view(inst: SlotInstance) -> tuple[list[int], list[float], list[int]]:
    # order, weights in that order, and backlog prefix sums (prefix[i] = packets
    # claimed by the i highest-weight services).
    order = service_order(inst)
    xs = [inst.weights[k] for k in order]
    prefix = [0]
    for k in order:
        prefix.append(prefix[-1] + inst.backlogs[k])
    return order, xs, prefix


def _m1(c: float, xs: list[float], prefix: list[int]) -> float:
    total = 0.0
    for i, x in enumerate(xs):
        lo = prefix[i]
        if c <= lo:
            break
        hi = prefix[i + 1]
        if c < hi:
            total += x * (c - lo)
            break
        total += x * (hi - lo)
    return total


def greedy_allocation(capacity: int, inst: SlotInstance) -> list[int]:
    """Optimal integer split of `capacity` packets: fill services in descending X_k.

    mu for the n-th ranked service is min(max(C - backlog claimed by better
    ranks, 0), Q_n).
    """
    if capacity != int(capacity):
        raise ValueError("capacity must be an integer")
    capacity = int(capacity)
    if capacity < 0 or capacity > inst.total_backlog:
        raise ValueError(f"capacity {capacity} outside [0, {inst.total_backlog}]")
    order, _, prefix = _sorted_view(inst)
    return _fill(capacity, inst.backlogs, order, prefix)


def _fill(capacity: int, backlogs: tuple[int, ...], order: list[int], prefix: list[int]) -> list[int]:
    # Services past the one that exhausts `capacity` get nothing.
    mu = [0] * len(order)
    for i, k in enumerate(order):
        if prefix[i + 1] >= capacity:
            mu[k] = capacity - prefix[i]
            break
        mu[k] = backlogs[k]
    return mu


def solve_slot(inst: SlotInstance) -> SlotSolution:
    """Full slot solve in one pass: sort, threshold rule, neighbour steps, split and price."""
    weights, backlogs, beta, eta = inst.weights, inst.backlogs, inst.beta, inst.eta
    order = service_order(inst)
    xs = [weights[k] for k in order]
    qs = [backlogs[k] for k in order]
    # prefix[i] is the backlog of the i highest-weight services and full[i] is
    # M1(prefix[i]), summed segment by segment in `_m1`'s order.
    prefix = list(accumulate(qs, initial=0))
    full = list(accumulate(map(mul, xs, qs), initial=0.0))

    hi = min(prefix[-1], floor_eps(inst.capacity_cap))
    c, objective = 0, 0.0
    if hi > 0:
        # Threshold rule: packet c+1 gains its service weight x and costs
        # beta * 2^(eta*c) * (2^eta - 1), so on each weight segment it is worth
        # taking while c < (log2(x) - log2(beta * (2^eta - 1))) / eta.
        unit = beta * (2.0**eta - 1.0)
        log_unit = math.log2(unit) if unit > 0.0 else 0.0
        for i, x in enumerate(xs):
            if x <= 0.0 or c >= hi:
                break
            last = min(prefix[i + 1], hi)
            if unit > 0.0:
                bound = (math.log2(x) - log_unit) / eta
                if not bound >= last:
                    if bound > c:
                        c = math.ceil(bound)
                    break
            c = last

        # The float objective can disagree with the threshold by one packet
        # near a tie; settle on the float optimum, stepping down on equality so
        # ties go to the smaller C.  M1(n) comes from the first prefix entry at
        # or above n: that entry itself, or the segment below it plus a part.
        def m(n: int) -> float:
            j = bisect_left(prefix, n)
            m1 = full[j] if prefix[j] == n else full[j - 1] + xs[j - 1] * (n - prefix[j - 1])
            return m1 - beta * (2.0 ** (eta * n) - 1.0)

        objective = m(c)
        while c < hi and (up := m(c + 1)) > objective:
            c, objective = c + 1, up
        while c > 0 and (down := m(c - 1)) >= objective:
            c, objective = c - 1, down

    exponent = eta * c
    if exponent > MAX_EXPONENT:
        raise ValueError(f"capacity {float(c)} exceeds the representable power range")
    power = inst.noise_equiv * (2.0**exponent - 1.0)
    return SlotSolution(capacity=c, power=power, allocation=tuple(_fill(c, backlogs, order, prefix)), objective=objective)


def brute_force_slot(inst: SlotInstance) -> SlotSolution:
    """Independent oracle: enumerate every feasible integer capacity.

    Shares only the greedy M1 evaluation with `solve_slot`; no threshold
    rule, no concavity assumption.
    """
    order, xs, prefix = _sorted_view(inst)
    hi = min(prefix[-1], floor_eps(inst.capacity_cap))
    if hi > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large for enumeration ({hi} candidates)")
    beta, eta = inst.beta, inst.eta
    best_c, best_val = 0, 0.0
    for c in range(1, hi + 1):
        val = _m1(float(c), xs, prefix) - beta * (2.0 ** (eta * c) - 1.0)
        if val > best_val:
            best_c, best_val = c, val
    return _solution_at(best_c, best_val, inst, order, prefix)


def _solution_at(capacity: int, objective: float, inst: SlotInstance, order: list[int], prefix: list[int]) -> SlotSolution:
    mu = _fill(capacity, inst.backlogs, order, prefix)
    power = power_for_capacity(float(capacity), inst.noise_equiv, inst.eta)
    return SlotSolution(capacity=capacity, power=power, allocation=tuple(mu), objective=objective)
