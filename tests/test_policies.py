import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsched.channel import capacity_cap, distance_at, noise_equiv
from railsched.config import default_config
from railsched.policies import (
    POLICY_NAMES,
    Policy,
    PolicyKind,
    build_policy,
    cpa_profile,
    decide,
    wfpa_profile,
)
from railsched.queues import SystemState
from railsched.solver import SlotInstance, objective_value, solve_slot

CONFIG = default_config()


class TestProfiles:
    def test_cpa_constant(self):
        profile = cpa_profile(36.0, 1000)
        assert profile.shape == (1000,)
        assert np.all(profile == 36.0)
        assert profile.mean() == 36.0

    def test_cpa_empty_horizon(self):
        assert cpa_profile(36.0, 0).shape == (0,)

    def test_wfpa_flat_channel(self):
        profile = wfpa_profile(np.array([1.0, 1.0, 1.0]), 2.0)
        assert profile == pytest.approx([2.0, 2.0, 2.0], rel=1e-8)

    def test_wfpa_known_level(self):
        # sum max(level - N, 0) = 6 over N = [1, 2, 3] gives level 4
        profile = wfpa_profile(np.array([1.0, 2.0, 3.0]), 2.0)
        assert profile == pytest.approx([3.0, 2.0, 1.0], rel=1e-8)

    def test_wfpa_budget_tolerance(self):
        noise = np.random.default_rng(0).uniform(0.01, 5.0, size=4096)
        profile = wfpa_profile(noise, 2.5)
        assert abs(profile.mean() - 2.5) / 2.5 <= 1e-6

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=64), st.floats(min_value=0.1, max_value=20.0))
    def test_wfpa_optimality_conditions(self, noise, budget):
        noise = np.asarray(noise)
        profile = wfpa_profile(noise, budget)
        active = profile > 0
        levels = profile[active] + noise[active]
        # every transmitting slot touches one shared water level ...
        assert levels.max() - levels.min() <= 1e-6 * levels.max()
        # ... and every silent slot sits above it
        if np.any(~active):
            assert noise[~active].min() >= levels.max() - 1e-6 * levels.max()

    def test_wfpa_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            wfpa_profile(np.array([1.0]), 0.0)

    def test_wfpa_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            wfpa_profile(np.array([1.0, -1.0]), 2.0)


class TestBuildPolicy:
    def test_all_names_resolve(self):
        noise = np.full(10, 0.01)
        for name in POLICY_NAMES:
            policy = build_policy(name, avg_power=36.0, max_power=50.0, noise_trajectory=noise)
            assert policy.kind.value == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_policy("banana", 36.0, 50.0, np.ones(4))

    def test_proposed_has_no_profile(self):
        assert build_policy("proposed", 36.0, 50.0, np.ones(4)).static_profile is None
        with pytest.raises(ValueError):
            Policy(PolicyKind.PROPOSED, static_profile=np.ones(4))

    def test_static_requires_profile(self):
        with pytest.raises(ValueError):
            Policy(PolicyKind.STATIC_CPA)

    def test_profile_validated_against_power_cap(self):
        # strongly uneven noise pushes the water-filling peak above the cap
        noise = np.array([0.1, 30.0, 30.0, 30.0])
        with pytest.raises(ValueError):
            build_policy("wfpa-static", avg_power=36.0, max_power=36.0, noise_trajectory=noise)


def _state(queues, weights, y=0.0):
    return SystemState(queues=list(queues), virtual_delay=list(weights), virtual_power=y, slot=0)


def _channel(slot, radio=CONFIG.radio):
    """Noise-equivalent power and real-valued capacity cap at `slot`."""
    noise = noise_equiv(distance_at(slot, CONFIG.geometry), radio)
    return noise, capacity_cap(radio, noise)


class TestDecide:
    def test_empty_queues_proposed_stays_silent(self):
        state = _state([0] * 6, [0.0] * 6)
        policy = build_policy("proposed", 36.0, 50.0, np.ones(1))
        power, allocation, capacity = decide(policy, state, 0, *_channel(0), CONFIG.radio, CONFIG.omega)
        assert power == 0.0
        assert allocation == [0] * 6
        assert capacity == 0

    def test_empty_queues_static_still_burns_power(self):
        state = _state([0] * 6, [0.0] * 6)
        policy = build_policy("cpa-static", 36.0, 50.0, np.ones(1))
        power, allocation, _ = decide(policy, state, 0, *_channel(0), CONFIG.radio, CONFIG.omega)
        assert power == 36.0
        assert sum(allocation) == 0

    def test_power_price_is_k_times_y(self):
        # one power queue Y, priced once per service: the solver sees beta = omega * N * (K * Y)
        queues, weights, y = [40, 7, 0, 12, 3, 90], [30.0, 12.5, 0.0, 60.0, 1.0, 45.0], 1.0e7
        noise, cap = _channel(1234)
        policy = build_policy("proposed", 36.0, 50.0, np.ones(1))
        power, allocation, capacity = decide(policy, _state(queues, weights, y), 1234, noise, cap, CONFIG.radio, 0.8)
        solution = solve_slot(SlotInstance(tuple(weights), tuple(queues), 0.8 * noise * (6 * y), CONFIG.radio.eta, noise, cap))
        assert 0 < capacity < sum(queues)
        assert (power, allocation, capacity) == (solution.power, list(solution.allocation), solution.capacity)

    def test_static_capacity_ignores_backlog(self):
        # at the cell center a 36 W static slot carries 585 packets whatever the queues say
        policy = build_policy("cpa-static", 36.0, 50.0, np.ones(1))
        for queues in ([0] * 6, [3] * 6, [900] * 6):
            state = _state(queues, [1.0] * 6)
            power, allocation, capacity = decide(policy, state, 0, *_channel(0), CONFIG.radio, CONFIG.omega)
            assert power == 36.0
            assert capacity == 585
            assert sum(allocation) == min(585, sum(queues))

    def test_dynamic_cpa_equals_proposed_with_lowered_cap(self):
        import dataclasses

        radio36 = dataclasses.replace(CONFIG.radio, max_power=36.0)
        dyn = build_policy("cpa-dynamic", 36.0, 50.0, np.ones(40))
        prop = build_policy("proposed", 36.0, 36.0, np.ones(40))
        rng = np.random.default_rng(3)
        for t in range(0, 40, 7):
            queues = [int(q) for q in rng.integers(0, 60, size=6)]
            weights = [float(w) for w in rng.uniform(0, 80, size=6)]
            y = float(rng.uniform(0, 50))
            power_a, allocation_a, capacity_a = decide(dyn, _state(queues, weights, y), t, *_channel(t), CONFIG.radio, 0.8)
            power_b, allocation_b, capacity_b = decide(prop, _state(queues, weights, y), t, *_channel(t, radio36), radio36, 0.8)
            assert allocation_a == allocation_b
            assert capacity_a == capacity_b
            assert power_a == pytest.approx(power_b, rel=1e-12)

    def test_zero_profile_slot_is_silent(self):
        policy = Policy(PolicyKind.DYNAMIC_CPA, static_profile=np.zeros(5))
        state = _state([10] * 6, [5.0] * 6)
        power, allocation, capacity = decide(policy, state, 2, *_channel(2), CONFIG.radio, 0.8)
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
        noise, cap = _channel(slot)
        prop = build_policy("proposed", 36.0, 50.0, np.ones(30000))
        dyn = build_policy("cpa-dynamic", 36.0, 50.0, np.ones(30000))
        _, allocation_a, _ = decide(prop, _state(queues, weights, y), slot, noise, cap, CONFIG.radio, 0.8)
        _, allocation_b, _ = decide(dyn, _state(queues, weights, y), slot, noise, cap, CONFIG.radio, 0.8)
        inst = SlotInstance(
            weights=tuple(weights),
            backlogs=tuple(queues),
            beta=0.8 * noise * y * 6,
            eta=CONFIG.radio.eta,
            noise_equiv=noise,
            capacity_cap=cap,
        )
        assert objective_value(float(sum(allocation_a)), inst) >= objective_value(float(sum(allocation_b)), inst) - 1e-9

