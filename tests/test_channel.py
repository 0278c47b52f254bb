import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from railsched.channel import Geometry, RadioParams, capacity_cap_profile, distance_profile, noise_profile

from reference_formulas import capacity_cap, distance_at, link_capacity, noise_equiv, power_for_capacity

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
        assert GEOM.rail_offset <= d <= math.hypot(GEOM.cell_radius, GEOM.rail_offset) * (1 + 1e-12)

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
    """The reference price; the solvers' own overflow errors are tested in test_solver.py."""

    def test_zero(self):
        assert power_for_capacity(0.0, NOISE_CENTER, 0.048) == 0.0

    def test_center_585(self):
        assert power_for_capacity(585.0, NOISE_CENTER, 0.048) == pytest.approx(35.29980435707347, rel=1e-12)

    def test_round_trip_identity(self):
        for c in range(0, 2001):
            assert link_capacity(power_for_capacity(float(c), NOISE_CENTER, 0.048), NOISE_CENTER, 0.048) == c

    def test_round_trip_spot(self):
        assert link_capacity(power_for_capacity(120.0, NOISE_CENTER, 0.048), NOISE_CENTER, 0.048) == 120


class TestCapacityCap:
    def test_zero_max_power(self):
        radio = RadioParams(5e6, RADIO.noise_psd, 4.0, 240.0, 0.048, 0.0)
        assert capacity_cap(radio, NOISE_CENTER) == 0.0

    def test_center(self):
        # log2(1 + P/N) / eta is 595.46 packets here
        assert capacity_cap(RADIO, NOISE_CENTER) == 595

    def test_edge(self):
        # and 186.55 here
        assert capacity_cap(RADIO, NOISE_EDGE) == 186

    @given(st.floats(min_value=1e-8, max_value=1.0))
    def test_inverts_to_max_power(self, noise):
        cap = capacity_cap(RADIO, noise)
        assert power_for_capacity(float(cap), noise, RADIO.eta) <= RADIO.max_power
        assert power_for_capacity(float(cap + 1), noise, RADIO.eta) > RADIO.max_power


def _fits(capacity, noise, power, eta):
    """Python's power test: the price of `capacity` packets is within `power`."""
    return power_for_capacity(float(capacity), noise, eta) <= power


class TestCapacityCapProfile:
    def test_round_trip(self):
        # C -> its price -> the cap at that price gives back C
        rng = np.random.default_rng(7)
        for eta in (0.048, 0.5, 1e-9):
            noises = 10.0 ** rng.uniform(-12.0, 2.0, 2000)
            capacities = rng.integers(0, 1000 if eta < 1e-6 else min(2000, int(900 / eta)), 2000)
            prices = np.array([power_for_capacity(float(c), n, eta) for c, n in zip(capacities.tolist(), noises.tolist())])
            caps = capacity_cap_profile(noises, prices, eta)
            assert caps.dtype == np.int64
            assert np.array_equal(caps, capacities)

    @pytest.mark.parametrize("eta", [0.048, 0.25, 1e-9], ids=["default", "wide", "tiny-eta"])
    def test_estimate_beside_an_integer(self, eta):
        # Power caps a few ulps either side of the price of k packets put the
        # log2 estimate just below or just above k.  Python's power test
        # decides k or k - 1, whichever side the estimate lands on: an
        # estimate below k can still fit k packets, and one at or above k can
        # price k past the cap.  At a tiny eta, 2^(eta*k) - 1 cancels and the
        # estimate strays by ~1e-7 packets.
        rng = random.Random(17)
        noises, powers, expected, seen = [], [], [], set()
        for _ in range(1000):
            noise, k = 10.0 ** rng.uniform(-9.0, 1.0), rng.randint(1, 60 if eta < 1e-6 else 600)
            power = power_for_capacity(float(k), noise, eta)
            for _ in range(6):
                power = math.nextafter(power, 0.0)
            for _ in range(13):
                estimate = float(np.log2(1.0 + np.float64(power) / noise) / eta)
                fits = _fits(k, noise, power, eta)
                assert _fits(k - 1, noise, power, eta) and not _fits(k + 1, noise, power, eta)
                seen.add((estimate < k, fits))
                noises.append(noise)
                powers.append(power)
                expected.append(k if fits else k - 1)
                power = math.nextafter(power, math.inf)
        caps = capacity_cap_profile(np.array(noises), np.array(powers), eta)
        assert caps.tolist() == expected
        # the estimate's floor is wrong both ways: below k yet k fits, at or
        # above k yet k does not
        assert (True, True) in seen and (False, False) in seen

    def test_bisection_steps_over_an_overflowing_price(self):
        # Below 2^-970 the window is infinite, so the bisection starts at
        # 2^53 packets, whose price overflows: it counts as not fitting.
        noise = 1e-300
        assert capacity_cap_profile(np.array([noise]), 1.0, 1.0).tolist() == [996] == [link_capacity(1.0, noise, 1.0)]

    def test_cap_prices_within_the_power_cap(self):
        # every cap of the default run's profiles fits its power cap, and one
        # more packet does not
        noises = noise_profile(distance_profile(30000, GEOM), RADIO)
        for power_cap in (RADIO.max_power, 0.5, 0.0):
            caps = capacity_cap_profile(noises, power_cap, RADIO.eta)
            for noise, cap in zip(noises[::97].tolist(), caps[::97].tolist()):
                assert _fits(cap, noise, power_cap, RADIO.eta)
                assert not _fits(cap + 1, noise, power_cap, RADIO.eta)


def test_channel_sample_consistent():
    # The channel the engine samples at slot t from its profiles is the
    # scalar chain d(t) -> N(t) -> packet cap; the cap is exact.
    t = 15000
    distances = distance_profile(t + 1, GEOM)
    noises = noise_profile(distances, RADIO)
    caps = capacity_cap_profile(noises, RADIO.max_power, RADIO.eta)
    assert distances[t] == pytest.approx(distance_at(t, GEOM), rel=1e-12)
    assert noises[t] == pytest.approx(noise_equiv(distance_at(t, GEOM), RADIO), rel=1e-12)
    assert caps[t] == capacity_cap(RADIO, float(noises[t]))
