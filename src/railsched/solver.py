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

`solve_slot` does it in one pass: one sort of the services by weight, then
one loop over that order that builds the sorted weights xs, the backlog
prefix sums prefix[i] and the table full[i] = M1(prefix[i]); then the
threshold walk, the neighbour steps, the greedy split and the power
N * (2^(eta*C) - 1), the float that `capacity_cap_profile` tests.  When
C is the whole backlog the split is the backlog itself, whatever the order,
so neither `solve_slot` nor `greedy_allocation` (given at least the whole
backlog) fills; in the paper's default scenario that is nearly every slot.

Segment i passes its test when bound_i = (log2(x_i) - log2(unit)) / eta
>= last_i, where last_i = min(prefix[i+1], hi) and unit = beta * (2^eta - 1).
Along the segments bound_i does not increase (x_i does not, and math.log2,
IEEE subtraction and division by eta > 0 keep order) while last_i does not
decrease, so the segments that pass come first.  The walk starts on the last
segment that can hold packets, the one reaching hi less any trailing
segments of weight 0, and steps back while the test fails.  If that segment
passes, C is its last_i, at the cost of two log2 however many services
there are.  Otherwise, with f the first segment that fails, C is
ceil(bound_f) when that lies past f's start prefix[f], and prefix[f] when it
does not.  A neighbour step reads M1(n) from the table: with j the first
index where prefix[j] >= n, full[j] when prefix[j] == n and otherwise
full[j-1] + x_{j-1} * (n - prefix[j-1]), bit for bit the float of the
segment walk `_m1`, since `full` is summed in the walk's order and
zero-backlog segments add exactly +0.0.  `brute_force_slot` keeps its own
path through `_m1`, as an independent check of that whole chain.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import NamedTuple

# Brute-force enumeration refuses instances that would price more candidates than this.
_BRUTE_FORCE_LIMIT = 100_000


class _SlotFields(NamedTuple):
    weights: tuple[float, ...]
    backlogs: tuple[int, ...]
    beta: float
    eta: float
    noise_equiv: float
    capacity_cap: int


class SlotInstance(_SlotFields):
    """One slot's solver input, an immutable named tuple validated on construction.

    `weights` are the delay-pressure virtual queues X_k, `beta` is the
    aggregated power price omega * N * K * Y, and `capacity_cap` is the
    packet cap from `capacity_cap_profile`.  Every float must be finite,
    `eta` and `noise_equiv` positive, each backlog and the cap a Python int
    >= 0 (not a bool or a numpy integer, which would leak into the solution).
    """

    __slots__ = ()

    def __new__(
        cls,
        weights: tuple[float, ...],
        backlogs: tuple[int, ...],
        beta: float,
        eta: float,
        noise_equiv: float,
        capacity_cap: int,
    ) -> SlotInstance:
        # One chained comparison per value: NaN fails every comparison, so
        # `not lo <= v < inf` rejects NaN, infinities and out-of-range values.
        if len(weights) != len(backlogs):
            raise ValueError("weights and backlogs must have equal length")
        for w in weights:
            if not 0.0 <= w < math.inf:
                raise ValueError(f"weights must be finite and non-negative, got {w!r}")
        for q in backlogs:
            if type(q) is not int or q < 0:
                raise ValueError(f"backlogs must be non-negative integers, got {q!r}")
        if not 0.0 <= beta < math.inf:
            raise ValueError(f"beta must be finite and non-negative, got {beta!r}")
        if not 0.0 < eta < math.inf:
            raise ValueError(f"eta must be finite and positive, got {eta!r}")
        if not 0.0 < noise_equiv < math.inf:
            raise ValueError(f"noise_equiv must be finite and positive, got {noise_equiv!r}")
        if type(capacity_cap) is not int or capacity_cap < 0:
            raise ValueError(f"capacity_cap must be finite and a non-negative integer, got {capacity_cap!r}")
        return tuple.__new__(cls, (weights, backlogs, beta, eta, noise_equiv, capacity_cap))

    @classmethod
    def _make(cls, iterable) -> SlotInstance:
        # `_replace` builds through `_make`, which would otherwise skip the checks.
        return cls(*iterable)

    @property
    def total_backlog(self) -> int:
        return sum(self.backlogs)


class SlotSolution(NamedTuple):
    capacity: int  # C*, packets actually carried
    power: float  # P* = N * (2^(eta*C*) - 1), W
    allocation: tuple[int, ...]  # mu*, sums to C*
    objective: float  # M(C*)


def service_order(inst: SlotInstance) -> list[int]:
    """Service indices in descending weight order, ties broken by ascending index."""
    # Python's sort is stable under reverse=True, so equal weights keep ascending index.
    return sorted(range(len(inst.weights)), key=inst.weights.__getitem__, reverse=True)


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
    """Optimal integer split of up to `capacity` packets: fill services in descending X_k.

    mu for the n-th ranked service is min(max(C - backlog claimed by better
    ranks, 0), Q_n).  When C reaches the whole backlog that is every Q_k, so
    the backlog is returned as it stands, with no sort.  `capacity` must be a
    Python int >= 0, as `SlotInstance` requires of its cap.
    """
    if type(capacity) is not int or capacity < 0:
        raise ValueError(f"capacity must be a non-negative integer, got {capacity!r}")
    if capacity >= inst.total_backlog:
        return list(inst.backlogs)
    return _fill(capacity, inst.backlogs, service_order(inst))


def _fill(capacity: int, backlogs: tuple[int, ...], order: list[int]) -> list[int]:
    # Services past the one that exhausts `capacity` get nothing.
    mu = [0] * len(order)
    for k in order:
        q = backlogs[k]
        if q >= capacity:
            mu[k] = capacity
            break
        mu[k] = q
        capacity -= q
    return mu


def solve_slot(inst: SlotInstance) -> SlotSolution:
    """Full slot solve in one pass: sort, threshold rule, neighbour steps, split and price."""
    weights, backlogs, beta, eta, noise_equiv, capacity_cap = inst
    # `service_order`'s sort: descending weight, ties by ascending index.
    order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
    # prefix[i] is the backlog of the i highest-weight services and full[i] is
    # M1(prefix[i]), summed segment by segment in `_m1`'s order.
    xs = []
    prefix = [0]
    full = [0.0]
    total, value = 0, 0.0
    for k in order:
        x, q = weights[k], backlogs[k]
        xs.append(x)
        total += q
        value += x * q
        prefix.append(total)
        full.append(value)

    hi = total if total < capacity_cap else capacity_cap
    c, objective = 0, 0.0
    try:
        if hi > 0:
            # The threshold walk: back from `last_seg`, the last segment that
            # can hold packets, to the last one whose test passes.
            last_seg = bisect_left(prefix, hi, 1) - 1
            while last_seg >= 0 and xs[last_seg] <= 0.0:
                last_seg -= 1
            if last_seg >= 0:
                end = prefix[last_seg + 1]
                c = end if end < hi else hi
                unit = beta * (2.0**eta - 1.0)
                if unit > 0.0:
                    log_unit = math.log2(unit)
                    i, last = last_seg, c
                    while i >= 0:
                        bound = (math.log2(xs[i]) - log_unit) / eta
                        if bound >= last:
                            break
                        stop, last = bound, prefix[i]
                        i -= 1
                    if i < last_seg:
                        # C stops in the first segment that fails, at
                        # ceil(bound) if that lies past its start `last`.
                        c = math.ceil(stop) if stop > last else last

            # Near a tie the float objective can disagree with the threshold by
            # one packet; settle on its optimum, ties to the smaller C.
            j = bisect_left(prefix, c)
            m1 = full[j] if prefix[j] == c else full[j - 1] + xs[j - 1] * (c - prefix[j - 1])
            objective = m1 - beta * (2.0 ** (eta * c) - 1.0)
            while c < hi:
                n = c + 1
                j = bisect_left(prefix, n)
                m1 = full[j] if prefix[j] == n else full[j - 1] + xs[j - 1] * (n - prefix[j - 1])
                up = m1 - beta * (2.0 ** (eta * n) - 1.0)
                if not up > objective:
                    break
                c, objective = n, up
            while c > 0:
                n = c - 1
                j = bisect_left(prefix, n)
                m1 = full[j] if prefix[j] == n else full[j - 1] + xs[j - 1] * (n - prefix[j - 1])
                down = m1 - beta * (2.0 ** (eta * n) - 1.0)
                if not down >= objective:
                    break
                c, objective = n, down
    except OverflowError:
        # 2^eta or some 2^(eta*n) is not a double.
        raise ValueError(f"capacity up to {hi} at eta {eta} exceeds the representable power range") from None

    # 2^(eta*c) was priced above, so only the product with N can leave the doubles.
    power = noise_equiv * (2.0 ** (eta * c) - 1.0)
    if power == math.inf:
        raise ValueError(f"capacity {float(c)} exceeds the representable power range")
    # Serving the whole backlog gives every service its Q_k, whatever the order.
    allocation = backlogs if c == total else tuple(_fill(c, backlogs, order))
    return SlotSolution(c, power, allocation, objective)


def brute_force_slot(inst: SlotInstance) -> SlotSolution:
    """Independent oracle: enumerate the feasible integer capacities.

    Shares only the greedy split `_fill` and the price expression
    N * (2^(eta*C) - 1) with `solve_slot`: M1 comes from the segment walk
    `_m1`, with no threshold rule and no concavity assumption.  It stops at
    the first C whose cost beta * (2^(eta*C) - 1) leaves M1(sum Q), the most
    any C gains, no more than the best score so far: M1 and the cost do not
    decrease in C, so from there on no C scores higher.
    """
    # The weights in descending order and the backlog prefix sums in that order.
    order = service_order(inst)
    xs, prefix = [inst.weights[k] for k in order], list(accumulate((inst.backlogs[k] for k in order), initial=0))
    beta, eta, gain = inst.beta, inst.eta, _m1(float(prefix[-1]), xs, prefix)
    hi = min(prefix[-1], inst.capacity_cap)
    best_c, best_val = 0, 0.0
    try:
        for c in range(1, hi + 1):
            cost = beta * (2.0 ** (eta * c) - 1.0)
            if gain - cost <= best_val:
                break
            if c > _BRUTE_FORCE_LIMIT:
                raise ValueError(f"instance too large for enumeration (more than {_BRUTE_FORCE_LIMIT} candidates)")
            val = _m1(float(c), xs, prefix) - cost
            if val > best_val:
                best_c, best_val = c, val
    except OverflowError:
        raise ValueError(f"capacity up to {hi} at eta {eta} exceeds the representable power range") from None
    # 2^(eta*C*) was priced in the loop, so only the product with N can leave the doubles.
    power = inst.noise_equiv * (2.0 ** (eta * best_c) - 1.0)
    if power == math.inf:
        raise ValueError(f"capacity {float(best_c)} exceeds the representable power range")
    return SlotSolution(best_c, power, tuple(_fill(best_c, inst.backlogs, order)), best_val)
