import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsched.queues import (
    ArrivalProcess,
    SystemState,
    TrafficParams,
    _cdf_table,
    update_real_queue,
    update_virtual_delay,
    update_virtual_power,
)

from reference_formulas import invert_cdf


def make_params(rates, bounds=None, avg_power=36.0, buffer_cap=1_000_000):
    rates = tuple(rates)
    bounds = tuple(bounds) if bounds is not None else (15.0,) * len(rates)
    return TrafficParams(arrival_rates=rates, delay_bounds=bounds, avg_power=avg_power, buffer_cap=buffer_cap)


class TestArrivals:
    def test_zero_rate_always_zero(self):
        counts = ArrivalProcess((0.0,), master_seed=1).sample_horizon(50)
        assert counts.shape == (50, 1)
        assert np.all(counts == 0)

    def test_seed_determinism(self):
        a = ArrivalProcess((20.0, 5.0), master_seed=42).sample_horizon(500)
        b = ArrivalProcess((20.0, 5.0), master_seed=42).sample_horizon(500)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ArrivalProcess((20.0,), master_seed=1).sample_horizon(200)
        b = ArrivalProcess((20.0,), master_seed=2).sample_horizon(200)
        assert not np.array_equal(a, b)

    def test_scalar_and_vectorized_agree(self):
        # Reference: one scalar uniform per chunk per slot from service k's own
        # (seed, k) stream, inverted one at a time by the sequential search.
        proc = ArrivalProcess((20.0, 3.0, 45.0), master_seed=9)
        block = proc.sample_horizon(200)
        for k, (n_chunks, table) in enumerate(proc._chunks):
            stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9, spawn_key=(k,))))
            for t in range(200):
                expected = sum(invert_cdf(stream.random(), table) for _ in range(n_chunks))
                assert block[t, k] == expected

    @pytest.mark.parametrize("rate", [17.0, 23.0, 28.340553333333332])
    def test_largest_draw_has_a_count(self, rate):
        # These tables' running sums stop growing below 1 - 2**-53, the largest
        # draw, which once sent the draw into an endless tail search.
        table = _cdf_table(rate)
        assert table[-1] == 1.0
        assert invert_cdf(1.0 - 2.0**-53, table) == len(table) - 1
        assert np.searchsorted(table, 1.0 - 2.0**-53, side="left") == len(table) - 1

    def test_every_table_ends_at_one(self):
        assert all(_cdf_table(rate)[-1] == 1.0 for rate in np.linspace(0.01, 30.0, 3000).tolist())

    def test_rate_20_moments(self):
        # Law-of-large-numbers band on the implemented sampler itself.
        counts = ArrivalProcess((20.0,), master_seed=7).sample_horizon(100_000)[:, 0]
        assert 19.8 <= counts.mean() <= 20.2
        assert 19.0 <= counts.var(ddof=1) <= 21.0

    def test_chunked_high_rate_moments(self):
        # 45 > 30 exercises the chunk-and-sum path.
        counts = ArrivalProcess((45.0,), master_seed=7).sample_horizon(100_000)[:, 0]
        assert abs(counts.mean() - 45.0) < 0.3
        assert abs(counts.var(ddof=1) - 45.0) < 1.5

    def test_rate_800_moments(self):
        # A single table at this rate would start from math.exp(-800) == 0.0,
        # end as [1.0] and draw 0 every slot; the chunks keep the draws Poisson.
        assert _cdf_table(800.0) == [1.0]
        counts = ArrivalProcess((800.0,), master_seed=7).sample_horizon(2_000)[:, 0]
        assert abs(counts.mean() - 800.0) < 4.0
        assert abs(counts.var(ddof=1) - 800.0) < 160.0

    def test_streams_independent_of_service_count(self):
        # Service k's stream depends only on (seed, k), not on which others exist.
        one = ArrivalProcess((20.0,), master_seed=3).sample_horizon(100)[:, 0]
        two = ArrivalProcess((20.0, 7.0), master_seed=3).sample_horizon(100)[:, 0]
        assert np.array_equal(one, two)


class TestRealQueue:
    def test_direct_update(self):
        state = SystemState(queues=[5, 0], virtual_delay=[0.0, 0.0], virtual_power=0.0)
        drops = update_real_queue(state, [5, 0], [3, 7], make_params([1.0, 1.0]))
        assert state.queues == [3, 7]
        assert drops == [0, 0]

    def test_saturation_records_drop(self):
        params = make_params([1.0], buffer_cap=10)
        state = SystemState(queues=[10], virtual_delay=[0.0], virtual_power=0.0)
        drops = update_real_queue(state, [0], [1], params)
        assert state.queues == [10]
        assert drops == [1]

    def test_rejects_overserving(self):
        state = SystemState(queues=[2, 2], virtual_delay=[0.0] * 2, virtual_power=0.0)
        with pytest.raises(ValueError, match=r"allocation\[0\]=3"):
            update_real_queue(state, [3, 0], [0, 0], make_params([1.0, 1.0]))
        assert state.queues == [2, 2]

    def test_rejects_negative_allocation(self):
        state = SystemState(queues=[2, 4], virtual_delay=[0.0] * 2, virtual_power=0.0)
        with pytest.raises(ValueError, match=r"allocation\[1\]=-1"):
            update_real_queue(state, [1, -1], [5, 5], make_params([1.0, 1.0]))
        assert state.queues == [2, 4]


class TestVirtualDelay:
    def test_from_zero(self):
        params = make_params([20.0], bounds=[15.0])  # drain 300
        state = SystemState(queues=[5], virtual_delay=[0.0], virtual_power=0.0)
        update_virtual_delay(state, params)
        assert state.virtual_delay == [5.0]

    def test_partial_drain(self):
        params = make_params([20.0], bounds=[15.0])
        state = SystemState(queues=[50], virtual_delay=[400.0], virtual_power=0.0)
        update_virtual_delay(state, params)
        assert state.virtual_delay == [150.0]

    def test_drains_to_zero(self):
        params = make_params([20.0], bounds=[15.0])
        state = SystemState(queues=[0], virtual_delay=[250.0], virtual_power=0.0)
        update_virtual_delay(state, params)
        assert state.virtual_delay == [0.0]


class TestVirtualPower:
    def test_gain(self):
        state = SystemState(queues=[0], virtual_delay=[0.0], virtual_power=10.0)
        update_virtual_power(state, 50.0, make_params([1.0]))
        assert state.virtual_power == 50.0

    def test_drain(self):
        state = SystemState(queues=[0], virtual_delay=[0.0], virtual_power=100.0)
        update_virtual_power(state, 0.0, make_params([1.0]))
        assert state.virtual_power == 64.0

    @pytest.mark.parametrize("power", [-1.0, float("nan")])
    def test_rejects_bad_power(self, power):
        state = SystemState.initial(2)
        with pytest.raises(ValueError):
            update_virtual_power(state, power, make_params([1.0, 1.0]))
        assert state.virtual_power == 0.0


@st.composite
def random_walk(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=12), min_size=k, max_size=k),
                st.floats(min_value=0.0, max_value=60.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    serve_fracs = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=len(steps), max_size=len(steps)))
    return k, steps, serve_fracs


@settings(max_examples=60)
@given(random_walk())
def test_queue_walk_invariants(walk):
    """Conservation, non-negativity, X >= Q, and the telescoped drift bound, exactly."""
    k, steps, serve_fracs = walk
    params = make_params([2.0] * k, bounds=[5.0] * k, buffer_cap=25)
    state = SystemState.initial(k)
    arrived = [0] * k
    served = [0] * k
    dropped = [0] * k
    q_after_sum = [0] * k
    for (arrivals, power), frac in zip(steps, serve_fracs):
        mu = [int(frac * q) for q in state.queues]
        drops = update_real_queue(state, mu, list(arrivals), params)
        update_virtual_delay(state, params)
        update_virtual_power(state, power, params)
        for i in range(k):
            arrived[i] += arrivals[i]
            served[i] += mu[i]
            dropped[i] += drops[i]
            q_after_sum[i] += state.queues[i]
            assert state.queues[i] >= 0
            assert state.virtual_delay[i] >= state.queues[i] >= 0
        assert state.virtual_power >= 0
    horizon = len(steps)
    for i in range(k):
        # every packet is either served, still queued, or counted as dropped
        assert arrived[i] == served[i] + state.queues[i] + dropped[i]
        # telescoped drift inequality: X(T) - X(0) >= sum Q(t+1) - T * W * lambda
        assert state.virtual_delay[i] >= q_after_sum[i] - horizon * 10.0 - 1e-9


def test_all_zero_stays_zero():
    params = make_params([0.0, 0.0])
    state = SystemState.initial(2)
    for _ in range(20):
        assert update_real_queue(state, [0, 0], [0, 0], params) == [0, 0]
        update_virtual_delay(state, params)
        update_virtual_power(state, 0.0, params)
    assert state.queues == [0, 0]
    assert state.virtual_delay == [0.0, 0.0]
    assert state.virtual_power == 0.0
