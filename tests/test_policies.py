import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsched.channel import channel_sample
from railsched.config import default_config
from railsched.policies import (
    POLICY_NAMES,
    ControlAction,
    Policy,
    PolicyKind,
    build_policy,
    cpa_profile,
    decide,
    wfpa_profile,
)
from railsched.queues import SystemState
from railsched.solver import SlotInstance, objective_value

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
    k = len(queues)
    return SystemState(queues=list(queues), virtual_delay=list(weights), virtual_power=[y] * k, slot=0)


class TestDecide:
    def test_empty_queues_proposed_stays_silent(self):
        channel = channel_sample(0, CONFIG.geometry, CONFIG.radio)
        state = _state([0] * 6, [0.0] * 6)
        policy = build_policy("proposed", 36.0, 50.0, np.ones(1))
        action = decide(policy, state, channel, CONFIG.radio, CONFIG.omega)
        assert action.power == 0.0
        assert action.allocation == [0] * 6
        assert action.served == 0

    def test_empty_queues_static_still_burns_power(self):
        channel = channel_sample(0, CONFIG.geometry, CONFIG.radio)
        state = _state([0] * 6, [0.0] * 6)
        policy = build_policy("cpa-static", 36.0, 50.0, np.ones(1))
        action = decide(policy, state, channel, CONFIG.radio, CONFIG.omega)
        assert action.power == 36.0
        assert action.served == 0

    def test_static_capacity_ignores_backlog(self):
        # at the cell center a 36 W static slot carries 585 packets whatever the queues say
        channel = channel_sample(0, CONFIG.geometry, CONFIG.radio)
        policy = build_policy("cpa-static", 36.0, 50.0, np.ones(1))
        for queues in ([0] * 6, [3] * 6, [900] * 6):
            state = _state(queues, [1.0] * 6)
            action = decide(policy, state, channel, CONFIG.radio, CONFIG.omega)
            assert action.power == 36.0
            assert action.capacity == 585
            assert action.served == min(585, sum(queues))

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
            chan_dyn = channel_sample(t, CONFIG.geometry, CONFIG.radio)
            chan_prop = channel_sample(t, CONFIG.geometry, radio36)
            a = decide(dyn, _state(queues, weights, y), chan_dyn, CONFIG.radio, 0.8)
            b = decide(prop, _state(queues, weights, y), chan_prop, radio36, 0.8)
            assert a.allocation == b.allocation
            assert a.capacity == b.capacity
            assert a.power == pytest.approx(b.power, rel=1e-12)

    def test_zero_profile_slot_is_silent(self):
        policy = Policy(PolicyKind.DYNAMIC_CPA, static_profile=np.zeros(5))
        channel = channel_sample(2, CONFIG.geometry, CONFIG.radio)
        state = _state([10] * 6, [5.0] * 6)
        action = decide(policy, state, channel, CONFIG.radio, 0.8)
        assert action.power == 0.0
        assert action.served == 0

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
        channel = channel_sample(slot, CONFIG.geometry, CONFIG.radio)
        prop = build_policy("proposed", 36.0, 50.0, np.ones(30000))
        dyn = build_policy("cpa-dynamic", 36.0, 50.0, np.ones(30000))
        a = decide(prop, _state(queues, weights, y), channel, CONFIG.radio, 0.8)
        b = decide(dyn, _state(queues, weights, y), channel, CONFIG.radio, 0.8)
        inst = SlotInstance(
            weights=tuple(weights),
            backlogs=tuple(queues),
            beta=0.8 * channel.noise_equiv * y * 6,
            eta=CONFIG.radio.eta,
            noise_equiv=channel.noise_equiv,
            capacity_cap=channel.capacity_cap,
        )
        assert objective_value(float(a.served), inst) >= objective_value(float(b.served), inst) - 1e-9


def test_control_action_served():
    action = ControlAction(power=1.0, allocation=[2, 0, 3], capacity=5)
    assert action.served == 5
