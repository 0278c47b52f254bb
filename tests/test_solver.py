import bisect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from railsched import policies, solver
from railsched.channel import capacity_cap_profile
from railsched.config import default_config, with_updates
from railsched.engine import _slot_optima, run
from railsched.policies import build_policy, decide
from railsched.queues import SystemState
from railsched.solver import SlotInstance, brute_force_slot, greedy_allocation, service_order, solve_slot

from reference_formulas import exhaustive_best_split, golden_section_slot, link_capacity, m1_value, m2_value, objective_value, power_for_capacity, random_instance

ETA = 0.048
ORACLE_RTOL = 1e-9  # the relative objective gap acceptance criterion 1 allows


def make_instance(weights, backlogs, beta=0.0, capacity_cap=10_000, noise=1.0):
    return SlotInstance(
        weights=tuple(float(w) for w in weights),
        backlogs=tuple(int(q) for q in backlogs),
        beta=float(beta),
        eta=ETA,
        noise_equiv=noise,
        capacity_cap=capacity_cap,
    )


@st.composite
def instances(draw, max_services=8, max_backlog=50):
    k = draw(st.integers(min_value=1, max_value=max_services))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=k, max_size=k))
    backlogs = draw(st.lists(st.integers(min_value=0, max_value=max_backlog), min_size=k, max_size=k))
    beta = draw(st.floats(min_value=1e-6, max_value=100.0))
    cap = draw(st.integers(min_value=0, max_value=600))
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
        # a capacity above the backlog splits up to it: the whole backlog
        inst = make_instance([3.0, 9.0, 1.0], [4, 2, 10])
        assert greedy_allocation(16, inst) == [4, 2, 10]
        assert greedy_allocation(17, inst) == [4, 2, 10]
        assert greedy_allocation(10**6, inst) == [4, 2, 10]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^capacity must be a non-negative integer, got -1$"):
            greedy_allocation(-1, make_instance([1.0], [4]))

    @pytest.mark.parametrize("capacity", [math.inf, math.nan])
    def test_rejects_non_finite(self, capacity):
        with pytest.raises(ValueError, match=r"^capacity must be a non-negative integer, got (inf|nan)$"):
            greedy_allocation(capacity, make_instance([1.0], [4]))

    @pytest.mark.parametrize("capacity", [2.5, 2.0, np.int64(2), True], ids=["fraction", "whole-float", "int64", "bool"])
    def test_rejects_all_but_a_python_int(self, capacity):
        # the rule SlotInstance applies to its cap, so no float or numpy integer leaks into the split
        with pytest.raises(ValueError, match=r"^capacity must be a non-negative integer, got "):
            greedy_allocation(capacity, make_instance([1.0, 2.0], [4, 4]))

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
        inst = make_instance([1.0], [10], capacity_cap=5)
        with pytest.raises(ValueError):
            objective_value(7.0, inst)

    @settings(max_examples=150)
    @given(instances(max_services=6, max_backlog=30))
    def test_discrete_concavity(self, inst):
        hi = min(inst.total_backlog, inst.capacity_cap)
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
        inst = make_instance([1.0], [1000], beta=10.0, capacity_cap=10_000)
        analytic = math.log2(1.0 / (10.0 * ETA * math.log(2.0))) / ETA
        assert analytic == pytest.approx(33.07625129163472, rel=1e-12)
        assert solve_slot(inst).capacity in (math.floor(analytic), math.ceil(analytic))


class TestIntegerRound:
    def test_rounds_down_when_better(self):
        # M(33) > M(34), so the optimum is the floor of the stationary point 33.076
        inst = make_instance([1.0], [1000], beta=10.0, capacity_cap=10_000)
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
        inst = make_instance([3.0, 9.0, 1.0], [4, 2, 10], beta=1e-4, capacity_cap=200)
        fast, slow = solve_slot(inst), brute_force_slot(inst)
        assert fast.objective == pytest.approx(slow.objective, rel=1e-12)
        assert fast.capacity == slow.capacity

    def test_huge_beta_stays_silent(self):
        inst = make_instance([100.0], [1000], beta=1e9, capacity_cap=600)
        # even one packet costs more than it gains: M(1) < 0
        assert objective_value(1.0, inst) < 0.0
        assert solve_slot(inst).capacity == 0

    def test_beta_zero_serves_everything(self):
        inst = make_instance([2.0, 1.0], [30, 40], beta=0.0, capacity_cap=10_000)
        sol = solve_slot(inst)
        assert sol.capacity == 70
        assert sol.allocation == (30, 40)

    def test_single_service_known_optimum(self):
        inst = make_instance([1.0], [1000], beta=10.0, capacity_cap=10_000)
        assert solve_slot(inst).capacity == 33
        assert brute_force_slot(inst).capacity == 33

    def test_boundary_maximizer(self):
        # the stationary point (~379) lies beyond the backlog, so the whole
        # backlog is served
        inst = make_instance([10.0], [100], beta=1e-3, capacity_cap=10_000)
        assert math.log2(10.0 / (1e-3 * ETA * math.log(2.0))) / ETA > 100.0
        assert solve_slot(inst).capacity == 100

    def test_beta_zero_tie_goes_to_smaller(self):
        # beta = 0 and a weight-0 tail service: M is flat past the backlog of
        # the valuable service, so every C in [3, 7] ties and C = 3 wins
        inst = make_instance([5.0, 0.0], [3, 4], beta=0.0)
        fast, slow = solve_slot(inst), brute_force_slot(inst)
        assert fast.capacity == slow.capacity == 3
        assert fast.allocation == slow.allocation == (3, 0)

    def test_serves_up_to_the_capacity_cap(self):
        # a nearly free, valuable backlog is served up to the cap
        inst = make_instance([10.0], [1000], beta=1e-9, capacity_cap=100)
        assert solve_slot(inst).capacity == 100
        assert brute_force_slot(inst).capacity == 100

    @pytest.mark.parametrize("packets", [100.7], ids=["fractional"])
    def test_capacity_cap_floor(self, packets):
        # a power cap worth a fractional number of packets caps a nearly
        # free, valuable backlog at the floor of that number
        power_cap = power_for_capacity(packets, 1.0, ETA)
        cap = int(capacity_cap_profile(np.array([1.0]), power_cap, ETA)[0])
        assert cap == math.floor(packets)
        inst = make_instance([10.0], [1000], beta=1e-9, capacity_cap=cap)
        assert solve_slot(inst).capacity == math.floor(packets)
        assert brute_force_slot(inst).capacity == math.floor(packets)
        assert solve_slot(inst).power <= power_cap

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
        # both solvers price C* with the one expression, so the powers match bit for bit
        assert fast.power.hex() == slow.power.hex()

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
                capacity_cap=rng.choice([10_000, math.floor(rng.uniform(0.0, 60.0))]),
            )
            fast, slow = solve_slot(inst), brute_force_slot(inst)
            assert (fast.capacity, fast.allocation, fast.objective) == (slow.capacity, slow.allocation, slow.objective), inst
            assert fast.power.hex() == slow.power.hex(), inst

    @settings(max_examples=100, deadline=None)
    @given(instances(max_services=6, max_backlog=30))
    def test_solution_feasible(self, inst):
        sol = solve_slot(inst)
        assert sum(sol.allocation) == sol.capacity
        assert all(0 <= m <= q for m, q in zip(sol.allocation, inst.backlogs))
        assert sol.capacity <= min(inst.total_backlog, inst.capacity_cap)
        assert sol.power <= power_for_capacity(float(inst.capacity_cap), inst.noise_equiv, inst.eta)
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
        cap = rng.choice([10_000, rng.choice(prefix), rng.choice(prefix) + 1])
        beta = rng.choice([0.0, 1e-9, 10.0 ** rng.uniform(-4.0, 1.0)])
        inst = make_instance(weights, backlogs, beta=beta, capacity_cap=cap)
        fast, slow = solve_slot(inst), brute_force_slot(inst)
        assert (fast.capacity, fast.allocation, fast.objective) == (slow.capacity, slow.allocation, slow.objective), inst
        if fast.capacity in prefix[1:]:
            on_boundary += 1
            j = prefix.index(fast.capacity)
            beside_empty += fast.capacity in prefix[j + 1 :] or (j >= 2 and prefix[j - 2] == prefix[j - 1])
    assert on_boundary >= 1000 and beside_empty >= 300, (on_boundary, beside_empty)


@st.composite
def walk_back_instances(draw):
    """Instances in the regimes where solve_slot's walk back decides C, stopping on any segment."""
    k = draw(st.integers(min_value=1, max_value=6))
    # frequent zero weights (trailing segments still holding backlog) and
    # zero backlogs (repeated prefix entries)
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=100.0)), min_size=k, max_size=k))
    backlogs = draw(st.lists(st.one_of(st.just(0), st.integers(min_value=1, max_value=40)), min_size=k, max_size=k))
    order = sorted(range(k), key=lambda i: (-weights[i], i))
    xs = [weights[i] for i in order]
    prefix = list(itertools.accumulate((backlogs[i] for i in order), initial=0))
    wide = [i for i in range(k) if prefix[i + 1] - prefix[i] >= 2]
    cap = draw(st.sampled_from(["none", "mid-segment", "any"] if wide else ["none", "any"]))
    if cap == "none":
        cap = 10_000
    elif cap == "mid-segment":
        # hi falls strictly inside a segment, not on a prefix entry
        i = draw(st.sampled_from(wide))
        cap = draw(st.integers(min_value=prefix[i] + 1, max_value=prefix[i + 1] - 1))
    else:
        cap = draw(st.integers(min_value=0, max_value=300))
    # the last segment the walk reaches with no bound in the way: the one
    # holding packet hi, less any trailing segments of weight 0
    hi = min(prefix[-1], cap)
    reached = [i for i in range(k) if xs[i] > 0.0 and prefix[i] < hi]
    regime = draw(st.sampled_from(["zero", "underflowing", "tiny", "last bound within a packet", "a drawn bound within a packet", "any"]))
    if regime == "zero":
        beta = 0.0
    elif regime == "underflowing":
        beta = draw(st.sampled_from([5e-324, 1e-323, 5e-323]))
        assert beta * (2.0**ETA - 1.0) == 0.0
    elif regime == "tiny":
        # every bound is thousands of packets, far past any segment end
        beta = draw(st.floats(min_value=1e-300, max_value=1e-200))
    elif regime == "last bound within a packet" and reached:
        # (log2(x) - log2(beta * (2^eta - 1))) / eta = last + offset
        last = min(prefix[reached[-1] + 1], hi)
        offset = draw(st.floats(min_value=-1.0, max_value=1.0))
        beta = xs[reached[-1]] * 2.0 ** (-ETA * (last + offset)) / (2.0**ETA - 1.0)
    elif regime == "a drawn bound within a packet" and reached:
        # the same for any segment the walk reaches, the first included, so
        # the walk back stops on every position
        i = draw(st.sampled_from(reached))
        last = min(prefix[i + 1], hi)
        offset = draw(st.floats(min_value=-1.0, max_value=1.0))
        beta = xs[i] * 2.0 ** (-ETA * (last + offset)) / (2.0**ETA - 1.0)
    else:
        beta = draw(st.floats(min_value=1e-6, max_value=100.0))
    return make_instance(weights, backlogs, beta=beta, capacity_cap=cap)


@st.composite
def serve_all_instances(draw):
    """Instances whose optimum carries the whole backlog, where the split skips the ordering."""
    k = draw(st.integers(min_value=1, max_value=6))
    # tied positive weights and frequent zero backlogs
    pool = draw(st.lists(st.floats(min_value=1e-3, max_value=100.0), min_size=1, max_size=2))
    weights = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    backlogs = draw(st.lists(st.one_of(st.just(0), st.integers(min_value=1, max_value=40)), min_size=k, max_size=k))
    total = sum(backlogs)
    cap = total + draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=100)))
    # zero, underflowing or tiny: every bound lies thousands of packets past the backlog
    beta = draw(st.one_of(st.just(0.0), st.just(5e-324), st.floats(min_value=1e-300, max_value=1e-200)))
    return make_instance(weights, backlogs, beta=beta, capacity_cap=cap)


@st.composite
def large_instances(draw):
    """Backlogs up to 10^4 and eta up to just below the 2^eta overflow, where both solvers may raise.

    beta > 0 stops the oracle once no larger C can score higher, or at the
    overflow, so it finishes.
    """
    k = draw(st.integers(min_value=1, max_value=6))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=100.0)), min_size=k, max_size=k))
    backlogs = draw(st.lists(st.integers(min_value=0, max_value=10_000), min_size=k, max_size=k))
    # 2^eta is finite for every eta below 1024, the largest double below it included
    eta = draw(st.one_of(st.just(math.nextafter(1024.0, 0.0)), st.floats(min_value=math.log2(ETA), max_value=10.0, exclude_max=True).map(lambda u: 2.0**u)))
    beta = draw(st.one_of(st.just(5e-324), st.floats(min_value=1e-300, max_value=1e300)))
    cap = draw(st.integers(min_value=0, max_value=sum(backlogs) + 1))
    return SlotInstance(tuple(weights), tuple(backlogs), beta, eta, 1.0, cap)


def _solve_or_error(solve, inst):
    try:
        return solve(inst)
    except ValueError as error:
        return error


def descending_fill(inst, capacity):
    """The greedy split by hand: services in descending X_k, ties by index, each up to its backlog."""
    mu = [0] * len(inst.backlogs)
    for k in sorted(range(len(mu)), key=lambda i: (-inst.weights[i], i)):
        mu[k] = min(inst.backlogs[k], capacity)
        capacity -= mu[k]
    return mu


@settings(max_examples=400, deadline=None)
@given(st.one_of(walk_back_instances(), serve_all_instances(), large_instances()))
# np.log2's threshold is 6 where the float objective falls from 5 to 6
@example(make_instance([7.0, 0.0, 0.0, 0.0], [6, 0, 0, 0], beta=175.20213403260863))
def test_walk_back_matches_oracle(inst):
    fast, slow = _solve_or_error(solve_slot, inst), _solve_or_error(brute_force_slot, inst)
    if isinstance(slow, ValueError) or isinstance(fast, ValueError):
        assert (type(fast), str(fast)) == (type(slow), str(slow)), inst
        return
    assert fast.capacity == slow.capacity
    assert fast.allocation == slow.allocation
    assert abs(fast.objective - slow.objective) <= ORACLE_RTOL * max(1.0, abs(slow.objective))
    for capacity in (inst.total_backlog, slow.capacity):
        assert greedy_allocation(capacity, inst) == descending_fill(inst, capacity)
    # the audit's closed-form threshold, as a one-row trace: a C it certifies is the oracle's
    order = service_order(inst)
    xs = np.array([[inst.weights[k] for k in order]])
    prefix = np.array([list(itertools.accumulate((inst.backlogs[k] for k in order), initial=0))])
    hi = np.array([min(inst.total_backlog, inst.capacity_cap)])
    c, certified = _slot_optima(xs, prefix, np.array([inst.beta]), inst.eta, hi)
    assert not certified[0] or c[0] == slow.capacity, inst


def _matches_golden_section(inst):
    """The paper's golden-section search finds solve_slot's C; on a plateau of M, its objective."""
    c, solution = golden_section_slot(inst), solve_slot(inst)
    if inst.beta * (2.0**inst.eta - 1.0) == 0.0 or any(w == 0.0 and q > 0 for w, q in zip(inst.weights, inst.backlogs)):
        assert abs(objective_value(float(c), inst) - solution.objective) <= ORACLE_RTOL * max(1.0, abs(solution.objective)), inst
    else:
        assert c == solution.capacity, inst
    return solution.capacity < inst.total_backlog


def test_golden_section_matches_random_instances():
    # the acceptance gate's criterion-1 draws
    rng = random.Random(101)
    for _ in range(2000):
        _matches_golden_section(random_instance(rng))


@pytest.mark.parametrize("updates, binds", [({}, False), ({"avg_power_w": 0.5}, True)], ids=["defaults", "avg_power_w=0.5"])
def test_golden_section_matches_engine_slots(monkeypatch, updates, binds):
    captured = []

    def record(inst):
        captured.append(inst)
        return solve_slot(inst)

    monkeypatch.setattr(policies, "solve_slot", record)
    run(with_updates(default_config(), horizon=12_000, **updates), record_trace=False)
    monkeypatch.undo()
    assert len(captured) == 12_000
    left_backlog = sum(_matches_golden_section(inst) for inst in captured[::3])
    # at 0.5 W the power price keeps packets waiting from about slot 8800 on
    assert not binds or left_backlog >= 500, left_backlog


def _count_log2(monkeypatch):
    calls = []
    log2 = math.log2

    def counting(x):
        calls.append(x)
        return log2(x)

    monkeypatch.setattr(math, "log2", counting)
    return calls


def test_slack_slot_takes_two_log2(monkeypatch):
    # K = 6, every segment worth taking: the price's log2 and the last
    # segment's decide C, whatever K is
    inst = make_instance([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], [20] * 6, beta=1e-3)
    calls = _count_log2(monkeypatch)
    sol = solve_slot(inst)
    assert sol.capacity == 120
    assert len(calls) <= 2, calls


@pytest.mark.parametrize(
    "backlogs, beta, cap, serves_all",
    [([20] * 6, 1e-3, 10_000, True), ([0] * 6, 1e-3, 10_000, True), ([20] * 6, 100.0, 10_000, False), ([20] * 6, 1e-3, 50, False)],
    ids=["slack", "empty", "priced", "capped"],
)
def test_serve_all_skips_the_ordering(monkeypatch, backlogs, beta, cap, serves_all):
    # A slot that carries the whole backlog gives every service its Q_k, so
    # neither split sorts or fills; a slot that carries less fills once.
    inst = make_instance([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], backlogs, beta=beta, capacity_cap=cap)
    calls = []
    for name in ("_fill", "service_order"):
        original = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *args, name=name, original=original: calls.append(name) or original(*args))
    sol = solve_slot(inst)
    assert (sol.capacity == inst.total_backlog) == serves_all
    assert calls == ([] if serves_all else ["_fill"])
    calls.clear()
    mu = greedy_allocation(sol.capacity, inst)
    assert calls == ([] if serves_all else ["service_order", "_fill"])
    assert mu == list(sol.allocation) == descending_fill(inst, sol.capacity)


@pytest.mark.parametrize(
    "weights, backlogs, expected",
    [([10.0, 1e-6], [50, 50], 50), ([10.0, 1e-3], [50, 500], 102)],
    ids=["stops-at-segment-end", "stops-inside-segment"],
)
def test_walk_back_stops_on_an_earlier_segment(monkeypatch, weights, backlogs, expected):
    # The last segment's bound (-105 and 101.8 packets) is below its end
    # (100 and 550) while the first segment's (378) passes, so the walk steps
    # back and C lands on the second segment: at its start, or at ceil(bound).
    inst = make_instance(weights, backlogs, beta=1e-3)
    calls = _count_log2(monkeypatch)
    fast = solve_slot(inst)
    assert len(calls) > 2, calls
    monkeypatch.undo()
    slow = brute_force_slot(inst)
    assert fast.capacity == slow.capacity == expected
    assert fast.allocation == slow.allocation
    assert abs(fast.objective - slow.objective) <= ORACLE_RTOL * max(1.0, abs(slow.objective))


@pytest.mark.parametrize("first_failing", range(6))
def test_walk_back_log2_count(monkeypatch, first_failing):
    # K = 6 segments of 20 packets whose bounds fall 20 packets per segment,
    # with segment f's bound halfway along it: every segment before f
    # passes, f and those after it fail.  The walk back tests segments 5
    # down to f, then f - 1 when there is one, plus the price's log2.  C
    # lands on the optimum, so the neighbour steps make one failed step each
    # way: four bisections with the one that finds the last segment.
    weights = [2.0 ** (-ETA * 20 * i) for i in range(6)]
    bound_0 = 40 * first_failing + 10
    inst = make_instance(weights, [20] * 6, beta=2.0 ** (-ETA * bound_0) / (2.0**ETA - 1.0))
    calls = _count_log2(monkeypatch)
    bisections = []
    monkeypatch.setattr(solver, "bisect_left", lambda *args: bisections.append(args) or bisect.bisect_left(*args))
    fast = solve_slot(inst)
    assert len(calls) <= 1 + (6 - first_failing) + (first_failing > 0), calls
    assert len(bisections) == 4
    monkeypatch.undo()
    slow = brute_force_slot(inst)
    assert 20 * first_failing < fast.capacity < 20 * (first_failing + 1)
    assert fast.capacity == slow.capacity
    assert fast.allocation == slow.allocation
    assert abs(fast.objective - slow.objective) <= ORACLE_RTOL * max(1.0, abs(slow.objective))


class TestBruteForce:
    def test_scale_guard(self):
        # with no power price nothing stops the enumeration early, and at a
        # small eta no power overflows before the candidate count passes the limit
        with pytest.raises(ValueError, match="too large for enumeration"):
            brute_force_slot(SlotInstance((1.0,), (200_000,), 0.0, 1e-3, 1.0, 1_000_000))

    def test_stops_once_the_power_cost_exceeds_every_gain(self, monkeypatch):
        # 2^(0.5 C) overflows at C = 2048, but the cost 2^(0.5 C) - 1 alone
        # passes the most any C gains, M1(3000) = 3000, at C = 24: the oracle
        # stops there and agrees with the threshold solve
        inst = SlotInstance((1.0,), (3000,), 1.0, 0.5, 1.0, 10_000)
        priced = []
        m1 = solver._m1
        monkeypatch.setattr(solver, "_m1", lambda c, xs, prefix: priced.append(c) or m1(c, xs, prefix))
        slow = brute_force_slot(inst)
        monkeypatch.undo()
        assert slow == solve_slot(inst)
        assert slow.capacity == 3
        # M1(sum Q) once, then C = 1..23
        assert len(priced) == 24

    def test_stops_once_no_gain_is_left(self):
        # from C = 2 on the power cost, though far below M1(sum Q), leaves no
        # gain over C = 1 in floats, and 2^(256 C) overflows at C = 4: the
        # oracle stops at C = 2 and agrees with the threshold solve
        inst = SlotInstance((0.0, 1.0, 0.0, 0.0, 0.0), (0, 1, 0, 0, 3), 5e-324, 256.0, 1.0, 4)
        assert brute_force_slot(inst) == solve_slot(inst)
        assert solve_slot(inst).capacity == 1

    def test_empty(self):
        assert brute_force_slot(make_instance([1.0], [0], beta=1.0)).capacity == 0


@pytest.mark.parametrize(
    "inst",
    [
        SlotInstance((1.0,), (3000,), 0.0, 0.5, 1.0, 10_000),
        SlotInstance((1.0,), (3000,), 1.0, 2000.0, 1.0, 10_000),
        SlotInstance((1.0,), (1023,), 0.0, 1.0, 4.0, 2000),
    ],
    ids=["objective", "price-unit", "power"],
)
def test_overflow_is_a_value_error(inst):
    # 2^1500 and 2^2000 overflow a double while C is searched; 2^1023 is a
    # double, but the power 4 * 2^1023 is not
    for solve in (solve_slot, brute_force_slot):
        with pytest.raises(ValueError, match="exceeds the representable power range"):
            solve(inst)


def test_powers_up_to_the_largest_double_solve():
    # 2^1010 is a double: both solvers carry all 1010 packets and price them
    inst = SlotInstance((1.0,), (1010,), 0.0, 1.0, 1.0, 2000)
    for solve in (solve_slot, brute_force_slot):
        sol = solve(inst)
        assert (sol.capacity, sol.power) == (1010, 2.0**1010 - 1.0)


def test_priced_slot_below_the_overflow_still_solves():
    # the same backlog at a price that stops C at 3 packets, far from 2^1024
    sol = solve_slot(SlotInstance((1.0,), (3000,), 1.0, 0.5, 1.0, 10_000))
    assert sol == (3, 2.0**1.5 - 1.0, (3,), 3.0 - (2.0**1.5 - 1.0))


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance([1.0], [1, 2])  # mismatched lengths
    with pytest.raises(ValueError):
        make_instance([-1.0], [1])
    with pytest.raises(ValueError):
        make_instance([1.0], [-1])
    with pytest.raises(ValueError):
        make_instance([1.0], [1], beta=-1.0)
    # the packet cap is a whole number, as `capacity_cap_profile` returns it
    for cap in (2.5, 100.0, -1):
        with pytest.raises(ValueError, match="capacity_cap must be finite and a non-negative integer"):
            make_instance([1.0], [1], capacity_cap=cap)


_VALID_FIELDS = dict(weights=(2.0, 1.0), backlogs=(3, 4), beta=0.5, eta=ETA, noise_equiv=1.0, capacity_cap=10_000)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["weights", "beta", "eta", "noise_equiv", "capacity_cap"])
def test_instance_rejects_non_finite(field, value):
    # NaN slips through `x < 0`; a NaN beta once gave solve_slot C=7 against brute force C=0
    fields = dict(_VALID_FIELDS, **{field: (2.0, value) if field == "weights" else value})
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SlotInstance(**fields)


@pytest.mark.parametrize("value", [2.5, math.nan])
def test_instance_rejects_non_integer_backlog(value):
    # a 2.5 backlog once gave solve_slot a fractional capacity 5.5, and brute_force_slot a bare TypeError
    with pytest.raises(ValueError, match="backlogs must be non-negative integers"):
        SlotInstance(**dict(_VALID_FIELDS, backlogs=(value, 3)))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("capacity_cap", np.int64(50), "capacity_cap must be finite and a non-negative integer"),
        ("backlogs", (np.int32(3), 4), "backlogs must be non-negative integers"),
        ("backlogs", (True, 4), "backlogs must be non-negative integers"),
    ],
    ids=["numpy-cap", "numpy-backlog", "bool-backlog"],
)
def test_instance_takes_only_python_ints(field, value, message):
    # a numpy cap once made solve_slot price C with numpy's power and return
    # numpy scalars; a True backlog came back as True in the allocation
    with pytest.raises(ValueError, match=message):
        SlotInstance(**dict(_VALID_FIELDS, **{field: value}))


@pytest.mark.parametrize("field", ["eta", "noise_equiv"])
def test_instance_rejects_zero_scale(field):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        SlotInstance(**dict(_VALID_FIELDS, **{field: 0.0}))


def test_instance_and_solution_are_immutable():
    inst = SlotInstance(**_VALID_FIELDS)
    assert inst.total_backlog == 7
    solution = solve_slot(inst)
    assert type(solution.allocation) is tuple
    with pytest.raises(AttributeError):
        inst.beta = 1.0
    with pytest.raises(AttributeError):
        solution.capacity = 0


def test_replace_runs_the_instance_checks():
    inst = SlotInstance(**_VALID_FIELDS)
    assert inst._replace(beta=2.0) == SlotInstance(**dict(_VALID_FIELDS, beta=2.0))
    with pytest.raises(ValueError, match="beta must be finite"):
        inst._replace(beta=math.nan)


def test_decide_returns_a_list_allocation():
    # the engine writes the allocation into the trace and the queue update; the solver's is a tuple
    state = SystemState([3, 4], [2.0, 1.0], 0.5)
    for name in ("proposed", "cpa-static"):
        policy = build_policy(name, 1.0, 36.0, [1.0])
        _, allocation, _ = decide(policy, state, float(policy.power_cap[0]), 1.0, 10_000, ETA, 0.8)
        assert type(allocation) is list
