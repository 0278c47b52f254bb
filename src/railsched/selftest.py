"""Built-in oracle and property checks, runnable without the test suite.

These are fast spot checks of the load-bearing guarantees: the exact
threshold slot solver against exhaustive enumeration, greedy packet
splitting against brute force, concavity of the slot objective, the
capacity/power inverse, water-filling optimality conditions, and end-to-end
determinism.

The module also holds the scalar reference formulas (one slot or one value
at a time) that the tests compare the vectorised and one-pass production
paths against.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from .channel import Geometry, RadioParams, floor_eps, power_for_capacity
from .config import default_config, with_updates
from .engine import replay_check, run
from .policies import wfpa_profile
from .solver import SlotInstance, _m1, _sorted_view, brute_force_slot, greedy_allocation, solve_slot

# Tolerance for float capacities sitting exactly on the feasible boundary.
FLOAT_SLACK = 1e-9


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


def link_capacity(power: float, noise: float, eta: float) -> int:
    """Whole packets deliverable in one slot at transmit power `power`."""
    if power < 0:
        raise ValueError("power must be non-negative")
    if noise <= 0 or eta <= 0:
        raise ValueError("noise and eta must be positive")
    if power == 0.0:
        return 0
    return max(0, floor_eps(math.log2(1.0 + power / noise) / eta))


def capacity_cap(radio: RadioParams, noise: float) -> float:
    """Real-valued capacity reachable at the instantaneous power cap."""
    if noise <= 0:
        raise ValueError("noise must be positive")
    return math.log2(1.0 + radio.max_power / noise) / radio.eta


def m1_value(capacity: float, inst: SlotInstance) -> float:
    """Piecewise-linear continuation of the greedy optimum to real capacity."""
    if capacity < 0 or capacity > inst.total_backlog + FLOAT_SLACK:
        raise ValueError(f"capacity {capacity} outside [0, {inst.total_backlog}]")
    _, xs, prefix = _sorted_view(inst)
    return _m1(min(capacity, float(inst.total_backlog)), xs, prefix)


def m2_value(capacity: float, inst: SlotInstance) -> float:
    """Weighted power cost beta * (2^(eta*C) - 1); convex, zero at zero."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    return inst.beta * (power_for_capacity(capacity, 1.0, inst.eta) if capacity > 0 else 0.0)


def objective_value(capacity: float, inst: SlotInstance) -> float:
    """M(C) = M1(C) - M2(C) on the feasible range [0, min(sum Q, capacity_cap)]."""
    hi = min(float(inst.total_backlog), inst.capacity_cap)
    if capacity < 0 or capacity > hi + FLOAT_SLACK:
        raise ValueError(f"capacity {capacity} outside [0, {hi}]")
    return m1_value(capacity, inst) - m2_value(capacity, inst)


def random_instance(rng: random.Random, max_services: int = 8, max_backlog: int = 50) -> SlotInstance:
    k = rng.randint(1, max_services)
    return SlotInstance(
        weights=tuple(rng.uniform(0.0, 100.0) for _ in range(k)),
        backlogs=tuple(rng.randint(0, max_backlog) for _ in range(k)),
        beta=10.0 ** rng.uniform(-6.0, 2.0),
        eta=0.048,
        noise_equiv=10.0 ** rng.uniform(-7.0, 0.0),
        capacity_cap=rng.uniform(0.0, 600.0),
    )


def check_solver_oracle(count: int = 200, seed: int = 7) -> tuple[bool, str]:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        inst = random_instance(rng)
        got = solve_slot(inst).objective
        want = brute_force_slot(inst).objective
        err = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, err)
        if err > 1e-9:
            return False, f"objective mismatch {got} vs {want} on {inst}"
    return True, f"{count} instances, worst relative gap {worst:.2e}"


def exhaustive_best_split(weights, backlogs, capacity: int) -> float:
    """Highest sum of weight*packets over every integer split of `capacity`."""
    best = -math.inf
    for combo in itertools.product(*(range(q + 1) for q in backlogs)):
        if sum(combo) == capacity:
            best = max(best, sum(w * m for w, m in zip(weights, combo)))
    return best


def check_greedy_exhaustive(seed: int = 11) -> tuple[bool, str]:
    rng = random.Random(seed)
    checked = 0
    for _ in range(60):
        k = rng.randint(1, 4)
        backlogs = tuple(rng.randint(0, 6) for _ in range(k))
        weights = tuple(rng.uniform(0.0, 10.0) for _ in range(k))
        inst = SlotInstance(weights, backlogs, 0.0, 0.048, 1.0, float(sum(backlogs)))
        for c in range(0, min(12, sum(backlogs)) + 1):
            mu = greedy_allocation(c, inst)
            if sum(mu) != c:
                return False, f"greedy split sums to {sum(mu)}, wanted {c}"
            got = sum(w * m for w, m in zip(weights, mu))
            want = exhaustive_best_split(weights, backlogs, c)
            if got != want:
                return False, f"greedy {got} vs exhaustive {want} at C={c}"
            checked += 1
    return True, f"{checked} exact splits verified"


def check_concavity(count: int = 100, seed: int = 13) -> tuple[bool, str]:
    rng = random.Random(seed)
    for _ in range(count):
        inst = random_instance(rng, max_backlog=30)
        hi = min(inst.total_backlog, int(inst.capacity_cap))
        vals = [objective_value(float(c), inst) for c in range(hi + 1)]
        for c in range(1, len(vals) - 1):
            if vals[c + 1] - 2 * vals[c] + vals[c - 1] > 1e-9:
                return False, f"convex kink at C={c} in {inst}"
    return True, f"{count} instances, all second differences <= 1e-9"


def check_capacity_roundtrip() -> tuple[bool, str]:
    noise, eta = 1.244084907979683e-07, 0.048
    for c in range(0, 2001):
        if link_capacity(power_for_capacity(float(c), noise, eta), noise, eta) != c:
            return False, f"round trip broke at C={c}"
    return True, "capacity/power inverse exact for C in [0, 2000]"


def check_water_filling(seed: int = 17) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    noise = rng.uniform(0.5, 5.0, size=400)
    budget = 2.0
    profile = wfpa_profile(noise, budget)
    rel = abs(profile.mean() - budget) / budget
    if rel > 1e-6:
        return False, f"budget error {rel:.2e}"
    level = (profile + noise)[profile > 0]
    if level.size and (level.max() - level.min()) > 1e-6 * level.max():
        return False, "active slots disagree on the water level"
    if np.any(noise[profile == 0] < level.min() - 1e-9):
        return False, "an idle slot beats the water level"
    return True, f"budget error {rel:.2e}, single water level"


def check_determinism() -> tuple[bool, str]:
    config = with_updates(default_config(), horizon=2_000, seed=5)
    trace_a, summary_a = run(config)
    trace_b, summary_b = run(config)
    same = (
        np.array_equal(trace_a.power, trace_b.power)
        and np.array_equal(trace_a.queues, trace_b.queues)
        and np.array_equal(trace_a.arrivals, trace_b.arrivals)
        and summary_a == summary_b
    )
    if not same:
        return False, "same seed produced different runs"
    replay_check(trace_a, config)
    return True, "identical runs, trace replays exactly"


CHECKS = [
    ("solver vs exhaustive oracle", check_solver_oracle),
    ("greedy split vs brute force", check_greedy_exhaustive),
    ("slot objective concavity", check_concavity),
    ("capacity/power round trip", check_capacity_roundtrip),
    ("water-filling optimality", check_water_filling),
    ("run determinism and replay", check_determinism),
]


def run_selftest(verbose: bool = True) -> bool:
    ok_all = True
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - report, keep checking
            ok, detail = False, f"raised {exc!r}"
        ok_all &= ok
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok_all
