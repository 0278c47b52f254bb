import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsched.queues import (
    _CHUNK_RATE,
    _GUIDE_BINS,
    _PCG_BLOCK,
    _PCG_MULT,
    ArrivalProcess,
    SystemState,
    TrafficParams,
    _affine,
    _cdf_table,
    _guide,
    _PCG64Stream,
    _pcg_jumps,
    update_real_queue,
    update_virtual_delay,
    update_virtual_power,
)

from reference_formulas import invert_cdf


# A zero rate, one whose table is [1.0], the three whose running sums stop
# short of the largest draw, the chunk rate itself, and chunked rates up to
# one whose single table would underflow.
GUIDE_RATES = [0.0, 1e-300, 1e-3, 17.0, 23.0, 28.340553333333332, 30.0, 30.5, 45.0, 800.0]


class Uniforms:
    """Stands in for a service's generator: `random(n)` returns the given draws."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        assert size == self.values.size
        return self.values.copy()


def plain_counts(rate, uniforms):
    """Per-slot counts from a plain np.searchsorted inversion of one chunk rate's table."""
    n_chunks = math.ceil(rate / _CHUNK_RATE)
    table = _cdf_table(rate / n_chunks)
    return np.searchsorted(table, uniforms, side="left").reshape(-1, n_chunks).sum(axis=1), table, n_chunks


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
        for k, (n_chunks, (table, _, _)) in enumerate(proc._chunks):
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

    @pytest.mark.parametrize("seed", [1, 9, 2024])
    def test_guide_matches_plain_and_sequential_search(self, seed):
        # Service k draws GUIDE_RATES[k] from its own (seed, k) stream.
        slots = 300
        block = ArrivalProcess(tuple(GUIDE_RATES), master_seed=seed).sample_horizon(slots)
        assert not block[:, 0].any()
        for k, rate in enumerate(GUIDE_RATES[1:], start=1):
            stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
            uniforms = stream.random(slots * math.ceil(rate / _CHUNK_RATE))
            plain, table, n_chunks = plain_counts(rate, uniforms)
            assert np.array_equal(block[:, k], plain), rate
            sequential = [sum(invert_cdf(u, table) for u in row) for row in uniforms.reshape(slots, n_chunks).tolist()]
            assert block[:, k].tolist() == sequential, rate

    @pytest.mark.parametrize("rate", GUIDE_RATES[1:])
    def test_guide_exact_at_every_bin_edge(self, rate):
        # Each edge b / bins, the double just below it, and the extremes 0 and
        # 1 - 2**-53, padded with zeros to whole slots.
        edges = np.arange(1, _GUIDE_BINS) / _GUIDE_BINS
        uniforms = np.concatenate(([0.0, 1.0 - 2.0**-53], edges, np.nextafter(edges, 0.0)))
        n_chunks = math.ceil(rate / _CHUNK_RATE)
        uniforms = np.concatenate((uniforms, np.zeros(-uniforms.size % n_chunks)))
        proc = ArrivalProcess((rate,), master_seed=1)
        proc._streams[0] = Uniforms(uniforms)
        assert np.array_equal(proc.sample_horizon(uniforms.size // n_chunks)[:, 0], plain_counts(rate, uniforms)[0])

    def test_guide_dtype_holds_every_table_length(self):
        for rate in np.linspace(1e-3, _CHUNK_RATE, 600).tolist() + GUIDE_RATES[1:8]:
            table, low, step = _guide(rate)
            assert len(low) == len(step) == _GUIDE_BINS
            assert np.iinfo(low.dtype).max >= len(table)

    def test_streams_independent_of_service_count(self):
        # Service k's stream depends only on (seed, k), not on which others exist.
        one = ArrivalProcess((20.0,), master_seed=3).sample_horizon(100)[:, 0]
        two = ArrivalProcess((20.0, 7.0), master_seed=3).sample_horizon(100)[:, 0]
        assert np.array_equal(one, two)


def numpy_stream(seed, key):
    """numpy's own generator for (seed, key), the oracle `_PCG64Stream` must match draw for draw."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))


ORACLE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1, 2**70 + 3]
ORACLE_LENGTHS = [1, _PCG_BLOCK - 1, _PCG_BLOCK, _PCG_BLOCK + 1, 3 * _PCG_BLOCK + 5]
MASK128 = (1 << 128) - 1


def as_int(lo, hi):
    return [int(h) << 64 | int(l) for l, h in zip(lo.tolist(), hi.tolist())]


def halves(values):
    return np.array([v & (2**64 - 1) for v in values], np.uint64), np.array([v >> 64 for v in values], np.uint64)


class TestPCG64Stream:
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_matches_numpy(self, seed):
        # Fresh streams at each length, and one stream continued across all of them.
        for key in range(8):
            continued, oracle = _PCG64Stream(seed, key), numpy_stream(seed, key)
            for size in ORACLE_LENGTHS:
                assert np.array_equal(_PCG64Stream(seed, key).random(size), numpy_stream(seed, key).random(size)), (key, size)
                assert np.array_equal(continued.random(size), oracle.random(size)), (key, size)

    def test_empty_draw_keeps_the_stream(self):
        stream = _PCG64Stream(5, 1)
        assert stream.random(0).shape == (0,)
        assert np.array_equal(stream.random(3), numpy_stream(5, 1).random(3))

    def test_draws_are_float64(self):
        draws = _PCG64Stream(1, 0).random(_PCG_BLOCK + 1)
        assert draws.dtype == np.float64
        assert 0.0 <= draws.min() and draws.max() < 1.0

    def test_jump_table_is_powers_and_their_sums(self):
        a_lo, a_hi, g_lo, g_hi = _pcg_jumps()
        assert a_lo.dtype == a_hi.dtype == g_lo.dtype == g_hi.dtype == np.uint64
        assert a_lo.size == _PCG_BLOCK
        a, g, powers, sums = 1, 0, [], []
        for _ in range(_PCG_BLOCK):
            g = (g + a) & MASK128
            a = a * _PCG_MULT & MASK128
            powers.append(a)
            sums.append(g)
        assert as_int(a_lo, a_hi) == powers
        assert as_int(g_lo, g_hi) == sums

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(0, MASK128), min_size=1, max_size=8),
        st.one_of(st.integers(0, MASK128), st.sampled_from([0, 1, MASK128, 2**64 - 1, 2**64, 2**32 - 1])),
        st.integers(0, MASK128),
    )
    def test_affine_matches_python_ints(self, xs, y, add):
        # Extremes included: every partial sum of the high half wraps without a warning.
        xs += [MASK128, 2**64 - 1, 2**64, 2**127]
        x_lo, x_hi = halves(xs)
        add_lo, add_hi = halves([add] * len(xs))
        lo, hi = _affine(x_lo, x_hi, y, add_lo, add_hi)
        assert lo.dtype == hi.dtype == np.uint64
        assert as_int(lo, hi) == [(x * y + add) & MASK128 for x in xs]


class TestArrivalSeeds:
    def test_negative_seed_is_a_value_error(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match="non-negative"):
            ArrivalProcess((20.0,), master_seed=-1)

    @pytest.mark.parametrize("seed", [3.0, np.int64(3), np.uint64(3), 3.7])
    def test_seed_coerced_with_int(self, seed):
        expected = ArrivalProcess((20.0, 45.0), master_seed=3).sample_horizon(50)
        assert np.array_equal(ArrivalProcess((20.0, 45.0), master_seed=seed).sample_horizon(50), expected)

    def test_two_horizons_continue_one_stream(self):
        # 45 packets/slot draws two uniforms a slot, so that stream crosses a block edge in both calls.
        rates = (20.0, 45.0)
        proc = ArrivalProcess(rates, master_seed=11)
        first, second = proc.sample_horizon(3000), proc.sample_horizon(2500)
        whole = ArrivalProcess(rates, master_seed=11).sample_horizon(5500)
        assert np.array_equal(np.concatenate((first, second)), whole)


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
