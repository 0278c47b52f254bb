import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsched.channel import capacity_cap_profile, distance_profile, noise_profile
from railsched.config import default_config
from railsched.policies import POLICY_NAMES, Policy, _wfpa_profile, build_policy, decide
from railsched.queues import SystemState
from railsched.solver import SlotInstance, solve_slot

from reference_formulas import objective_value, power_for_capacity

CONFIG = default_config()

# N(t) over the first 30 000 slots of the default trip.
NOISES = noise_profile(distance_profile(30_000, CONFIG.geometry), CONFIG.radio)


def bisection_wfpa_profile(noise_trajectory: np.ndarray, avg_power: float) -> np.ndarray:
    """Reference water-filling: 200 bisection passes on the float budget test.

    `_wfpa_profile` must give this profile bit for bit.
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
    if rel_err > 1e-8:
        raise RuntimeError(f"water-filling bisection left budget error {rel_err:.3e}")
    return profile


class TestProfiles:
    def test_cpa_constant(self):
        for name in ("cpa-static", "cpa-dynamic"):
            profile = build_policy(name, 36.0, 50.0, NOISES[:1000]).power_cap
            assert profile.shape == (1000,)
            assert np.all(profile == 36.0)
            assert profile.mean() == 36.0

    def test_cpa_empty_horizon(self):
        for name in ("cpa-static", "cpa-dynamic"):
            assert build_policy(name, 36.0, 50.0, np.zeros(0)).power_cap.shape == (0,)

    def test_wfpa_flat_channel(self):
        profile = _wfpa_profile(np.array([1.0, 1.0, 1.0]), 2.0)
        assert profile == pytest.approx([2.0, 2.0, 2.0], rel=1e-8)

    def test_wfpa_known_level(self):
        # sum max(level - N, 0) = 6 over N = [1, 2, 3] gives level 4
        profile = _wfpa_profile(np.array([1.0, 2.0, 3.0]), 2.0)
        assert profile == pytest.approx([3.0, 2.0, 1.0], rel=1e-8)

    def test_wfpa_budget_tolerance(self):
        noise = np.random.default_rng(0).uniform(0.01, 5.0, size=4096)
        profile = _wfpa_profile(noise, 2.5)
        assert abs(profile.mean() - 2.5) / 2.5 <= 1e-6

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=64), st.floats(min_value=0.1, max_value=20.0))
    def test_wfpa_optimality_conditions(self, noise, budget):
        noise = np.asarray(noise)
        profile = _wfpa_profile(noise, budget)
        active = profile > 0
        levels = profile[active] + noise[active]
        # every transmitting slot touches one shared water level ...
        assert levels.max() - levels.min() <= 1e-6 * levels.max()
        # ... and every silent slot sits above it
        if np.any(~active):
            assert noise[~active].min() >= levels.max() - 1e-6 * levels.max()

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=200),
            # flat channels, where fl(max N + budget) itself may fall short of the budget
            st.tuples(st.floats(min_value=1e-6, max_value=1e3), st.integers(min_value=1, max_value=200)).map(lambda nk: [nk[0]] * nk[1]),
        ),
        st.floats(min_value=1e-3, max_value=36.0),
    )
    def test_wfpa_matches_bisection(self, noise, budget):
        noise = np.asarray(noise)
        assert np.array_equal(_wfpa_profile(noise, budget), bisection_wfpa_profile(noise, budget))

    def test_wfpa_matches_bisection_on_trip(self):
        noise = noise_profile(distance_profile(CONFIG.horizon, CONFIG.geometry), CONFIG.radio)
        for budget in (0.001, 0.5, 8.85, 36.0):
            assert np.array_equal(_wfpa_profile(noise, budget), bisection_wfpa_profile(noise, budget))

    def test_wfpa_rejects_bad_budget(self):
        # the budget is checked before any cap is built, so the water-filling
        # never sees the bad noise
        for name in POLICY_NAMES:
            with pytest.raises(ValueError, match="^avg_power must be finite and positive, got 0.0$"):
                build_policy(name, 0.0, 50.0, np.array([-1.0, 1.0]))

    def test_wfpa_rejects_bad_noise(self):
        for noise in ([1.0, -1.0], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="noise trajectory"):
                _wfpa_profile(np.array(noise), 2.0)

    def test_wfpa_gives_infinite_noise_zero_power(self):
        assert _wfpa_profile(np.array([np.inf, 1.0]), 1.0).tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("budget", [np.nan, np.inf, 0.0])
    def test_profiles_reject_non_finite_or_nonpositive_budget(self, budget):
        for name in POLICY_NAMES:
            with pytest.raises(ValueError, match=f"^avg_power must be finite and positive, got {budget}$"):
                build_policy(name, budget, 50.0, np.array([1.0, 2.0]))


class TestBuildPolicy:
    def test_all_names_resolve(self):
        noise = np.full(10, 0.01)
        for name in POLICY_NAMES:
            policy = build_policy(name, avg_power=36.0, max_power=50.0, noise_trajectory=noise)
            assert policy.name == name
            assert policy.power_cap.shape == (10,)
            assert policy.static == name.endswith("-static")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_policy("banana", 36.0, 50.0, np.ones(4))

    def test_proposed_has_no_profile(self):
        # its cap is the instantaneous cap in every slot, one value viewed T times
        policy = build_policy("proposed", 36.0, 50.0, np.ones(4))
        assert np.all(policy.power_cap == 50.0)
        assert policy.power_cap.strides == (0,)
        assert not policy.static

    def test_static_requires_profile(self):
        # a static policy transmits its precomputed profile, which must be a valid power cap
        policy = build_policy("cpa-static", 36.0, 50.0, np.ones(4))
        assert policy.static and np.all(policy.power_cap == 36.0)
        # a NaN budget is rejected before the cap is built
        with pytest.raises(ValueError, match="avg_power must be finite and positive"):
            build_policy("cpa-static", float("nan"), 50.0, np.ones(4))
        with pytest.raises(ValueError, match="proposed power cap"):
            build_policy("proposed", 36.0, float("nan"), np.ones(4))

    def test_profile_validated_against_power_cap(self):
        # strongly uneven noise pushes the water-filling peak above the cap
        noise = np.array([0.1, 30.0, 30.0, 30.0])
        with pytest.raises(ValueError):
            build_policy("wfpa-static", avg_power=36.0, max_power=36.0, noise_trajectory=noise)

    def test_cap_one_ulp_above_max_power_rejected(self):
        # the cap is checked exactly, and the message shows the excess in full
        above = math.nextafter(50.0, math.inf)
        message = f"cpa-static power cap spans [{above!r}, {above!r}] W, outside [0, 50.0] W"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_policy("cpa-static", above, 50.0, np.ones(4))
        assert np.all(build_policy("cpa-static", 50.0, 50.0, np.ones(4)).power_cap == 50.0)


def _state(queues, weights, y=0.0):
    return SystemState(queues=list(queues), virtual_delay=list(weights), virtual_power=y)


def _policy(name, avg_power=36.0, max_power=50.0):
    return build_policy(name, avg_power, max_power, NOISES)


def _channel(slot, power_cap):
    """N(t) at `slot` and the packet cap at `power_cap`, as the engine computes them."""
    noise = float(NOISES[slot])
    return noise, int(capacity_cap_profile(NOISES[slot : slot + 1], power_cap, CONFIG.radio.eta)[0])


def _decide(policy, state, slot, omega=CONFIG.omega):
    """`decide` at `slot` with the inputs the engine reads from its profiles."""
    power_cap = float(policy.power_cap[slot])
    return decide(policy, state, power_cap, *_channel(slot, power_cap), CONFIG.radio.eta, omega)


class TestDecide:
    def test_empty_queues_proposed_stays_silent(self):
        state = _state([0] * 6, [0.0] * 6)
        power, allocation, capacity = _decide(_policy("proposed"), state, 0)
        assert power == 0.0
        assert allocation == [0] * 6
        assert capacity == 0

    def test_empty_queues_static_still_burns_power(self):
        state = _state([0] * 6, [0.0] * 6)
        power, allocation, _ = _decide(_policy("cpa-static"), state, 0)
        assert power == 36.0
        assert sum(allocation) == 0

    def test_power_price_is_k_times_y(self):
        # one power queue Y, priced once per service: the solver sees beta = omega * N * (K * Y)
        queues, weights, y = [40, 7, 0, 12, 3, 90], [30.0, 12.5, 0.0, 60.0, 1.0, 45.0], 1.0e7
        noise, cap = _channel(1234, 50.0)
        power, allocation, capacity = _decide(_policy("proposed"), _state(queues, weights, y), 1234, 0.8)
        solution = solve_slot(SlotInstance(tuple(weights), tuple(queues), 0.8 * noise * (6 * y), CONFIG.radio.eta, noise, cap))
        assert 0 < capacity < sum(queues)
        assert (power, allocation, capacity) == (solution.power, list(solution.allocation), solution.capacity)

    def test_solver_power_above_the_cap_is_an_error(self):
        # The packet cap prices within the power cap, so the solver's power is
        # that price as it stands.  A power cap a hair below the price of the
        # packet cap is a RuntimeError, not a clamp.
        policy, state = _policy("proposed"), _state([900] * 6, [1.0] * 6)
        noise, cap = _channel(0, 50.0)
        price = power_for_capacity(float(cap), noise, CONFIG.radio.eta)
        assert decide(policy, state, 50.0, noise, cap, CONFIG.radio.eta, 0.8)[::2] == (price, cap)
        assert price <= 50.0
        with pytest.raises(RuntimeError, match="exceeds the .* W cap"):
            decide(policy, state, price * (1.0 - 1e-12), noise, cap, CONFIG.radio.eta, 0.8)

    def test_static_capacity_ignores_backlog(self):
        # at the cell center a 36 W static slot carries 585 packets whatever the queues say
        policy = _policy("cpa-static")
        for queues in ([0] * 6, [3] * 6, [900] * 6):
            state = _state(queues, [1.0] * 6)
            power, allocation, capacity = _decide(policy, state, 0)
            assert power == 36.0
            assert capacity == 585
            assert sum(allocation) == min(585, sum(queues))

    def test_dynamic_cpa_equals_proposed_with_lowered_cap(self):
        dyn = _policy("cpa-dynamic", avg_power=36.0, max_power=50.0)
        prop = _policy("proposed", avg_power=36.0, max_power=36.0)
        rng = np.random.default_rng(3)
        for t in range(0, 40, 7):
            queues = [int(q) for q in rng.integers(0, 60, size=6)]
            weights = [float(w) for w in rng.uniform(0, 80, size=6)]
            y = float(rng.uniform(0, 50))
            power_a, allocation_a, capacity_a = _decide(dyn, _state(queues, weights, y), t, 0.8)
            power_b, allocation_b, capacity_b = _decide(prop, _state(queues, weights, y), t, 0.8)
            assert allocation_a == allocation_b
            assert capacity_a == capacity_b
            assert power_a == pytest.approx(power_b, rel=1e-12)

    def test_zero_profile_slot_is_silent(self):
        # a zero cap leaves the solver nothing to send: C = 0 at power 0
        policy = Policy("cpa-dynamic", np.zeros(5), static=False)
        state = _state([10] * 6, [5.0] * 6)
        power, allocation, capacity = _decide(policy, state, 2, 0.8)
        assert power == 0.0
        assert sum(allocation) == 0
        assert capacity == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=80), min_size=6, max_size=6),
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=6, max_size=6),
        st.floats(min_value=0.0, max_value=200.0),
        st.integers(min_value=0, max_value=29999),
    )
    def test_proposed_dominates_capped_variants(self, queues, weights, y, slot):
        # with profile power below the instantaneous cap, the proposed feasible
        # set contains the dynamic ones, so its slot objective cannot be worse
        noise, cap = _channel(slot, CONFIG.radio.max_power)
        _, allocation_a, _ = _decide(_policy("proposed"), _state(queues, weights, y), slot, 0.8)
        _, allocation_b, _ = _decide(_policy("cpa-dynamic"), _state(queues, weights, y), slot, 0.8)
        inst = SlotInstance(
            weights=tuple(weights),
            backlogs=tuple(queues),
            beta=0.8 * noise * y * 6,
            eta=CONFIG.radio.eta,
            noise_equiv=noise,
            capacity_cap=cap,
        )
        assert objective_value(float(sum(allocation_a)), inst) >= objective_value(float(sum(allocation_b)), inst) - 1e-9

