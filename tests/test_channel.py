import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from railsched.channel import Geometry, RadioParams, capacity_cap_profile, distance_profile, noise_profile, power_for_capacity
from railsched.selftest import capacity_cap, distance_at, link_capacity, noise_equiv

# Default physical setup: 1.5 km cells 50 m off the track, 100 m/s, 1 ms slots.
GEOM = Geometry(cell_radius=1500.0, rail_offset=50.0, speed=100.0, slot_duration=1e-3)
RADIO = RadioParams(
    bandwidth=5e6,
    noise_psd=10 ** (-174.0 / 10.0) / 1000.0,
    pathloss_exp=4.0,
    packet_bits=240.0,
    eta=0.048,
    max_power=50.0,
)

# Frozen from direct evaluation of the formulas with the constants above.
NOISE_CENTER = 1.244084907979683e-07
NOISE_EDGE = 0.10099493723828143
D_MAX = 1500.8331019803634


class TestDistance:
    def test_under_base_station(self):
        assert distance_at(0, GEOM) == 50.0

    def test_midway_between_base_stations(self):
        # s = R = 1500 m is slot 15000 at 0.1 m per slot
        assert distance_at(15000, GEOM) == pytest.approx(D_MAX, rel=1e-12)
        assert D_MAX == pytest.approx(math.hypot(1500.0, 50.0))

    def test_next_cell_center(self):
        # s = 2R: directly under the adjacent base station
        assert distance_at(30000, GEOM) == pytest.approx(50.0, abs=1e-6)

    def test_rejects_negative_slot(self):
        with pytest.raises(ValueError):
            distance_at(-1, GEOM)

    @given(st.integers(min_value=0, max_value=10**7))
    def test_image_stays_in_band(self, slot):
        d = distance_at(slot, GEOM)
        assert GEOM.rail_offset <= d <= GEOM.max_distance * (1 + 1e-12)

    @given(st.integers(min_value=0, max_value=10**5))
    def test_periodicity(self, slot):
        period = GEOM.period_slots
        assert distance_at(slot + period, GEOM) == pytest.approx(distance_at(slot, GEOM), rel=1e-9, abs=1e-6)

    def test_image_covers_full_band(self):
        d = distance_profile(GEOM.period_slots, GEOM)
        assert d.min() == pytest.approx(50.0, abs=1e-6)
        assert d.max() == pytest.approx(D_MAX, rel=1e-9)

    def test_profile_matches_scalar(self):
        d = distance_profile(500, GEOM)
        for t in (0, 1, 17, 123, 499):
            assert d[t] == distance_at(t, GEOM)

    def test_period_slots(self):
        assert GEOM.period_slots == 30000


class TestNoise:
    def test_center(self):
        assert noise_equiv(50.0, RADIO) == pytest.approx(NOISE_CENTER, rel=1e-12)

    def test_edge(self):
        assert noise_equiv(D_MAX, RADIO) == pytest.approx(NOISE_EDGE, rel=1e-12)

    def test_pathloss_disabled(self):
        radio = RadioParams(5e6, RADIO.noise_psd, 0.0, 240.0, 0.048, 50.0)
        assert noise_equiv(123.4, radio) == pytest.approx(5e6 * RADIO.noise_psd, rel=1e-15)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            noise_equiv(0.0, RADIO)

    def test_profile_matches_scalar(self):
        d = distance_profile(200, GEOM)
        n = noise_profile(d, RADIO)
        assert n[37] == noise_equiv(float(d[37]), RADIO)


class TestLinkCapacity:
    def test_zero_power(self):
        assert link_capacity(0.0, NOISE_CENTER, 0.048) == 0

    def test_center_at_36w(self):
        assert link_capacity(36.0, NOISE_CENTER, 0.048) == 585

    def test_one_packet_boundary(self):
        power = NOISE_CENTER * (2**0.048 - 1.0)
        assert link_capacity(power, NOISE_CENTER, 0.048) == 1

    @given(st.floats(min_value=0.0, max_value=200.0), st.floats(min_value=0.0, max_value=200.0))
    def test_monotone_in_power(self, p1, p2):
        lo, hi = sorted((p1, p2))
        assert link_capacity(lo, NOISE_EDGE, 0.048) <= link_capacity(hi, NOISE_EDGE, 0.048)

    @given(st.floats(min_value=1e-9, max_value=1.0), st.floats(min_value=1e-9, max_value=1.0))
    def test_antitone_in_noise(self, n1, n2):
        lo, hi = sorted((n1, n2))
        assert link_capacity(36.0, lo, 0.048) >= link_capacity(36.0, hi, 0.048)


class TestPowerForCapacity:
    def test_zero(self):
        assert power_for_capacity(0.0, NOISE_CENTER, 0.048) == 0.0

    def test_center_585(self):
        assert power_for_capacity(585.0, NOISE_CENTER, 0.048) == pytest.approx(35.29980435707347, rel=1e-12)

    def test_round_trip_identity(self):
        for c in range(0, 2001):
            assert link_capacity(power_for_capacity(float(c), NOISE_CENTER, 0.048), NOISE_CENTER, 0.048) == c

    def test_round_trip_spot(self):
        assert link_capacity(power_for_capacity(120.0, NOISE_CENTER, 0.048), NOISE_CENTER, 0.048) == 120

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            power_for_capacity(-1.0, NOISE_CENTER, 0.048)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            power_for_capacity(1e9, NOISE_CENTER, 0.048)


class TestCapacityCap:
    def test_zero_max_power(self):
        radio = RadioParams(5e6, RADIO.noise_psd, 4.0, 240.0, 0.048, 0.0)
        assert capacity_cap(radio, NOISE_CENTER) == 0.0

    def test_center(self):
        assert capacity_cap(RADIO, NOISE_CENTER) == pytest.approx(595.4639147032531, rel=1e-12)

    def test_edge(self):
        assert capacity_cap(RADIO, NOISE_EDGE) == pytest.approx(186.5502597772374, rel=1e-12)

    @given(st.floats(min_value=1e-8, max_value=1.0))
    def test_inverts_to_max_power(self, noise):
        cap = capacity_cap(RADIO, noise)
        assert power_for_capacity(cap, noise, RADIO.eta) == pytest.approx(RADIO.max_power, rel=1e-9)


def test_channel_sample_consistent():
    # The channel the engine samples at slot t from its profiles is the
    # scalar chain d(t) -> N(t) -> capacity cap, up to round-off.
    t = 15000
    distances = distance_profile(t + 1, GEOM)
    noises = noise_profile(distances, RADIO)
    caps = capacity_cap_profile(noises, RADIO.max_power, RADIO.eta)
    assert distances[t] == pytest.approx(distance_at(t, GEOM), rel=1e-12)
    assert noises[t] == pytest.approx(noise_equiv(distance_at(t, GEOM), RADIO), rel=1e-12)
    assert caps[t] == pytest.approx(capacity_cap(RADIO, float(noises[t])), rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(cell_radius=-1.0, rail_offset=50.0, speed=100.0, slot_duration=1e-3)
    with pytest.raises(ValueError):
        Geometry(cell_radius=1500.0, rail_offset=0.0, speed=100.0, slot_duration=1e-3)


def test_radio_validation():
    with pytest.raises(ValueError):
        RadioParams(0.0, 1e-20, 4.0, 240.0, 0.048, 50.0)
    with pytest.raises(ValueError):
        RadioParams(5e6, 1e-20, 4.0, 240.0, -0.048, 50.0)
