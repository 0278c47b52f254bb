import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsched.channel import power_for_capacity
from railsched.selftest import link_capacity, m1_value, m2_value, objective_value
from railsched.solver import SlotInstance, brute_force_slot, greedy_allocation, service_order, solve_slot

ETA = 0.048


def make_instance(weights, backlogs, beta=0.0, capacity_cap=1e4, noise=1.0):
    return SlotInstance(
        weights=tuple(float(w) for w in weights),
        backlogs=tuple(int(q) for q in backlogs),
        beta=float(beta),
        eta=ETA,
        noise_equiv=noise,
        capacity_cap=float(capacity_cap),
    )


def exhaustive_best_split(weights, backlogs, capacity):
    """Independent oracle: try every integer allocation summing to `capacity`."""
    best = None
    for combo in itertools.product(*(range(q + 1) for q in backlogs)):
        if sum(combo) == capacity:
            value = sum(w * m for w, m in zip(weights, combo))
            if best is None or value > best:
                best = value
    return best


@st.composite
def instances(draw, max_services=8, max_backlog=50):
    k = draw(st.integers(min_value=1, max_value=max_services))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=k, max_size=k))
    backlogs = draw(st.lists(st.integers(min_value=0, max_value=max_backlog), min_size=k, max_size=k))
    beta = draw(st.floats(min_value=1e-6, max_value=100.0))
    cap = draw(st.floats(min_value=0.0, max_value=600.0))
    return make_instance(weights, backlogs, beta=beta, capacity_cap=cap)


class TestGreedyAllocation:
    def test_zero_capacity(self):
        inst = make_instance([3.0, 9.0, 1.0], [4, 2, 10])
        assert greedy_allocation(0, inst) == [0, 0, 0]

    def test_descending_weight_fill(self):
        inst = make_instance([3.0, 9.0, 1.0], [4, 2, 10])
        mu = greedy_allocation(5, inst)
        assert mu == [3, 2, 0]
        assert sum(w * m for w, m in zip(inst.weights, mu)) == 27.0
        assert exhaustive_best_split(inst.weights, inst.backlogs, 5) == 27.0

    def test_full_drain(self):
        inst = make_instance([3.0, 9.0, 1.0], [4, 2, 10])
        assert greedy_allocation(16, inst) == [4, 2, 10]

    def test_rejects_out_of_range(self):
        inst = make_instance([1.0], [4])
        with pytest.raises(ValueError):
            greedy_allocation(5, inst)
        with pytest.raises(ValueError):
            greedy_allocation(-1, inst)

    def test_tie_break_by_index(self):
        inst = make_instance([5.0, 5.0], [3, 3])
        assert service_order(inst) == [0, 1]
        assert greedy_allocation(4, inst) == [3, 1]

    def test_exhaustive_small_instances(self):
        rng = random.Random(5)
        for _ in range(150):
            k = rng.randint(1, 4)
            backlogs = [rng.randint(0, 6) for _ in range(k)]
            weights = [rng.choice([rng.uniform(0, 10), float(rng.randint(0, 5))]) for _ in range(k)]
            inst = make_instance(weights, backlogs)
            for c in range(min(12, sum(backlogs)) + 1):
                mu = greedy_allocation(c, inst)
                assert sum(mu) == c
                assert all(0 <= m <= q for m, q in zip(mu, backlogs))
                got = sum(w * m for w, m in zip(weights, mu))
                assert got == exhaustive_best_split(weights, backlogs, c)

    @given(instances(max_services=5, max_backlog=10))
    def test_fill_order_marginals_non_increasing(self, inst):
        order = service_order(inst)
        marginals = [inst.weights[k] for k in order]
        assert all(a >= b for a, b in zip(marginals, marginals[1:]))


class TestObjectivePieces:
    def test_m1_zero(self):
        inst = make_instance([3.0, 9.0, 1.0], [4, 2, 10])
        assert m1_value(0.0, inst) == 0.0

    def test_m1_fractional(self):
        # best two packets go to weight 9, the half packet to weight 3
        inst = make_instance([3.0, 9.0, 1.0], [4, 2, 10])
        assert m1_value(2.5, inst) == pytest.approx(9.0 * 2 + 3.0 * 0.5)

    def test_m1_slope_is_next_weight(self):
        inst = make_instance([3.0, 9.0, 1.0], [4, 2, 10])
        slope = (m1_value(3.0, inst) - m1_value(2.5, inst)) / 0.5
        assert slope == pytest.approx(3.0)

    @given(instances(max_services=5, max_backlog=8))
    def test_m1_matches_greedy_at_integers(self, inst):
        for c in range(inst.total_backlog + 1):
            mu = greedy_allocation(c, inst)
            assert m1_value(float(c), inst) == pytest.approx(sum(w * m for w, m in zip(inst.weights, mu)), abs=1e-9)

    def test_m2_zero(self):
        inst = make_instance([1.0], [10], beta=10.0)
        assert m2_value(0.0, inst) == 0.0

    def test_m2_value(self):
        inst = make_instance([1.0], [10], beta=10.0)
        assert m2_value(33.0, inst) == pytest.approx(19.979992035110953, rel=1e-12)

    def test_m2_disabled_without_beta(self):
        inst = make_instance([1.0], [10], beta=0.0)
        assert m2_value(444.0, inst) == 0.0

    def test_objective_single_service(self):
        inst = make_instance([1.0], [1000], beta=10.0)
        assert objective_value(33.0, inst) == pytest.approx(13.020007964889047, rel=1e-12)

    def test_objective_rejects_out_of_domain(self):
        inst = make_instance([1.0], [10], capacity_cap=5.0)
        with pytest.raises(ValueError):
            objective_value(7.0, inst)

    @settings(max_examples=150)
    @given(instances(max_services=6, max_backlog=30))
    def test_discrete_concavity(self, inst):
        hi = min(inst.total_backlog, int(inst.capacity_cap))
        values = [objective_value(float(c), inst) for c in range(hi + 1)]
        for c in range(1, len(values) - 1):
            assert values[c + 1] - 2.0 * values[c] + values[c - 1] <= 1e-9


class TestGoldenSection:
    """Cases first written for the golden-section search over the relaxed
    objective; the exact solve replaced that search and answers them now."""

    def test_empty_backlog(self):
        sol = solve_slot(make_instance([1.0], [0], beta=1.0))
        assert sol.capacity == 0
        assert sol.objective == 0.0

    def test_interior_stationary_point(self):
        # stationarity of the relaxed objective: 2^(eta*C) = X / (beta * eta * ln 2);
        # the integer optimum is one of its two integer neighbours
        inst = make_instance([1.0], [1000], beta=10.0, capacity_cap=1e4)
        analytic = math.log2(1.0 / (10.0 * ETA * math.log(2.0))) / ETA
        assert analytic == pytest.approx(33.07625129163472, rel=1e-12)
        assert solve_slot(inst).capacity in (math.floor(analytic), math.ceil(analytic))


class TestIntegerRound:
    def test_rounds_down_when_better(self):
        # M(33) > M(34), so the optimum is the floor of the stationary point 33.076
        inst = make_instance([1.0], [1000], beta=10.0, capacity_cap=1e4)
        assert objective_value(33.0, inst) > objective_value(34.0, inst)
        assert solve_slot(inst).capacity == 33


class TestSolveSlot:
    def test_all_empty(self):
        sol = solve_slot(make_instance([1.0, 1.0], [0, 0], beta=1.0))
        assert sol.capacity == 0
        assert sol.power == 0.0
        assert sol.allocation == (0, 0)
        assert sol.objective == 0.0

    def test_matches_brute_force_example(self):
        inst = make_instance([3.0, 9.0, 1.0], [4, 2, 10], beta=1e-4, capacity_cap=200.0)
        fast, slow = solve_slot(inst), brute_force_slot(inst)
        assert fast.objective == pytest.approx(slow.objective, rel=1e-12)
        assert fast.capacity == slow.capacity

    def test_huge_beta_stays_silent(self):
        inst = make_instance([100.0], [1000], beta=1e9, capacity_cap=600.0)
        # even one packet costs more than it gains: M(1) < 0
        assert objective_value(1.0, inst) < 0.0
        assert solve_slot(inst).capacity == 0

    def test_beta_zero_serves_everything(self):
        inst = make_instance([2.0, 1.0], [30, 40], beta=0.0, capacity_cap=1e4)
        sol = solve_slot(inst)
        assert sol.capacity == 70
        assert sol.allocation == (30, 40)

    def test_single_service_known_optimum(self):
        inst = make_instance([1.0], [1000], beta=10.0, capacity_cap=1e4)
        assert solve_slot(inst).capacity == 33
        assert brute_force_slot(inst).capacity == 33

    def test_boundary_maximizer(self):
        # the stationary point (~379) lies beyond the backlog, so the whole
        # backlog is served
        inst = make_instance([10.0], [100], beta=1e-3, capacity_cap=1e4)
        assert math.log2(10.0 / (1e-3 * ETA * math.log(2.0))) / ETA > 100.0
        assert solve_slot(inst).capacity == 100

    def test_beta_zero_tie_goes_to_smaller(self):
        # beta = 0 and a weight-0 tail service: M is flat past the backlog of
        # the valuable service, so every C in [3, 7] ties and C = 3 wins
        inst = make_instance([5.0, 0.0], [3, 4], beta=0.0)
        fast, slow = solve_slot(inst), brute_force_slot(inst)
        assert fast.capacity == slow.capacity == 3
        assert fast.allocation == slow.allocation == (3, 0)

    @pytest.mark.parametrize("cap, expected", [(100.7, 100), (100.0 - 1e-12, 100)], ids=["fractional", "round-off"])
    def test_capacity_cap_floor(self, cap, expected):
        # a nearly free, valuable backlog is served up to the floor of the
        # cap; round-off just below an integer does not lose a packet
        inst = make_instance([10.0], [1000], beta=1e-9, capacity_cap=cap)
        assert solve_slot(inst).capacity == expected
        assert brute_force_slot(inst).capacity == expected

    def test_extreme_weight_to_price_ratio(self):
        # log2(x / (beta * (2^eta - 1))) is huge or the price underflows to 0;
        # the solve must neither overflow nor lose the oracle's answer
        for beta in (5e-324, 1e-310):
            inst = make_instance([1e300, 5e299, 0.0], [50, 40, 7], beta=beta)
            fast, slow = solve_slot(inst), brute_force_slot(inst)
            assert fast.capacity == slow.capacity == 90
            assert fast.allocation == slow.allocation == (50, 40, 0)
        inst = make_instance([5e-324, 1e-320], [5, 5], beta=1e300)
        assert solve_slot(inst).capacity == brute_force_slot(inst).capacity == 0

    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_oracle_equivalence(self, inst):
        fast, slow = solve_slot(inst), brute_force_slot(inst)
        scale = max(1.0, abs(slow.objective))
        assert abs(fast.objective - slow.objective) / scale <= 1e-9
        assert fast.capacity == slow.capacity
        assert fast.allocation == slow.allocation

    def test_oracle_equivalence_at_near_ties(self):
        # weights placed on (or one ulp either side of) the marginal cost of
        # some packet, where the closed-form threshold and the float objective
        # can disagree by one packet in either direction
        rng = random.Random(11)
        for _ in range(3000):
            eta = rng.choice([ETA, 0.25, 0.5, 1.0])
            beta = rng.choice([1.0, 3.0, 10.0 ** rng.uniform(-3.0, 1.0)])
            tie = beta * (2.0 ** eta - 1.0) * 2.0 ** (eta * rng.randint(0, 20))
            k = rng.randint(1, 4)
            weights = [rng.choice([tie, tie * (1 + 1e-16), tie * (1 - 1e-16), rng.uniform(0, 10)]) for _ in range(k)]
            inst = SlotInstance(
                weights=tuple(weights),
                backlogs=tuple(rng.randint(0, 25) for _ in range(k)),
                beta=beta,
                eta=eta,
                noise_equiv=1.0,
                capacity_cap=rng.choice([1e4, rng.uniform(0.0, 60.0)]),
            )
            fast, slow = solve_slot(inst), brute_force_slot(inst)
            assert (fast.capacity, fast.allocation, fast.objective) == (slow.capacity, slow.allocation, slow.objective), inst

    @settings(max_examples=100, deadline=None)
    @given(instances(max_services=6, max_backlog=30))
    def test_solution_feasible(self, inst):
        sol = solve_slot(inst)
        assert sum(sol.allocation) == sol.capacity
        assert all(0 <= m <= q for m, q in zip(sol.allocation, inst.backlogs))
        assert sol.capacity <= min(inst.total_backlog, int(inst.capacity_cap + 1e-9))
        cap_power = power_for_capacity(inst.capacity_cap, inst.noise_equiv, inst.eta)
        assert sol.power <= cap_power * (1 + 1e-12)
        assert link_capacity(sol.power, inst.noise_equiv, inst.eta) == sol.capacity

    @settings(max_examples=60, deadline=None)
    @given(instances(max_services=4, max_backlog=20), st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_weights_and_beta_keeps_argmax(self, inst, scale):
        scaled = make_instance(
            [w * scale for w in inst.weights],
            inst.backlogs,
            beta=inst.beta * scale,
            capacity_cap=inst.capacity_cap,
        )
        assert solve_slot(scaled).capacity == solve_slot(inst).capacity


def test_oracle_equivalence_at_segment_boundaries():
    # C* exactly on a backlog prefix sum, beside runs of zero-backlog
    # services and inside equal-weight ties: where M1(C) is read from the
    # prefix table rather than interpolated, and where a wrong bisect side
    # or a table index off by one would change the float objective
    rng = random.Random(29)
    on_boundary = beside_empty = 0
    for _ in range(4000):
        k = rng.randint(1, 7)
        top, low = rng.choice([1.0, 7.5, 40.0]), rng.choice([0.0, 1e-3, 0.5])
        weights = [rng.choice([top, top, low, rng.uniform(0.0, 50.0)]) for _ in range(k)]
        backlogs = [rng.choice([0, 0, rng.randint(1, 12)]) for _ in range(k)]
        order = sorted(range(k), key=lambda i: (-weights[i], i))
        prefix = list(itertools.accumulate((backlogs[i] for i in order), initial=0))
        cap = rng.choice([1e4, float(rng.choice(prefix)), rng.choice(prefix) + 0.5])
        beta = rng.choice([0.0, 1e-9, 10.0 ** rng.uniform(-4.0, 1.0)])
        inst = make_instance(weights, backlogs, beta=beta, capacity_cap=cap)
        fast, slow = solve_slot(inst), brute_force_slot(inst)
        assert (fast.capacity, fast.allocation, fast.objective) == (slow.capacity, slow.allocation, slow.objective), inst
        if fast.capacity in prefix[1:]:
            on_boundary += 1
            j = prefix.index(fast.capacity)
            beside_empty += fast.capacity in prefix[j + 1 :] or (j >= 2 and prefix[j - 2] == prefix[j - 1])
    assert on_boundary >= 1000 and beside_empty >= 300, (on_boundary, beside_empty)


class TestBruteForce:
    def test_scale_guard(self):
        with pytest.raises(ValueError):
            brute_force_slot(make_instance([1.0], [200_000], beta=1.0, capacity_cap=1e6))

    def test_empty(self):
        assert brute_force_slot(make_instance([1.0], [0], beta=1.0)).capacity == 0


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance([1.0], [1, 2])  # mismatched lengths
    with pytest.raises(ValueError):
        make_instance([-1.0], [1])
    with pytest.raises(ValueError):
        make_instance([1.0], [-1])
    with pytest.raises(ValueError):
        make_instance([1.0], [1], beta=-1.0)


_VALID_FIELDS = dict(weights=(2.0, 1.0), backlogs=(3, 4), beta=0.5, eta=ETA, noise_equiv=1.0, capacity_cap=1e4)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["weights", "beta", "eta", "noise_equiv", "capacity_cap"])
def test_instance_rejects_non_finite(field, value):
    # NaN slips through `x < 0`; a NaN beta once gave solve_slot C=7 against brute force C=0
    fields = dict(_VALID_FIELDS, **{field: (2.0, value) if field == "weights" else value})
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SlotInstance(**fields)


@pytest.mark.parametrize("field", ["eta", "noise_equiv"])
def test_instance_rejects_zero_scale(field):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        SlotInstance(**dict(_VALID_FIELDS, **{field: 0.0}))
