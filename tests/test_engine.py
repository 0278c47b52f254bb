import hashlib
import math
import re

import numpy as np
import pytest

from railsched import engine
from railsched.config import default_config, load_config, with_updates
from railsched.engine import Trace, audit_decisions, replay_check, run, summarize
from railsched.policies import POLICY_NAMES
from railsched.traceio import _WRITE_CHUNK_ROWS, _trace_schema, write_summary, write_trace

BASE = default_config()


def small_config(**kwargs):
    kwargs.setdefault("horizon", 1200)
    kwargs.setdefault("seed", 11)
    return with_updates(BASE, **kwargs)


class TestRun:
    def test_no_traffic_no_power_under_proposed(self):
        config = small_config(arrival_rate_pkts=0.0)
        trace, summary = run(config, policy="proposed")
        assert summary.avg_power == 0.0
        assert np.all(trace.queues == 0)
        assert summary.avg_delay == (0.0,) * 6
        assert all(summary.delay_ok) and summary.power_ok

    def test_same_seed_identical_traces(self):
        config = small_config()
        trace_a, summary_a = run(config)
        trace_b, summary_b = run(config)
        for name in ("power", "capacity", "served", "arrivals", "allocation", "queues", "virtual_delay", "virtual_power", "drops"):
            assert np.array_equal(getattr(trace_a, name), getattr(trace_b, name)), name
        assert summary_a == summary_b

    def test_different_seeds_differ(self):
        config = small_config()
        _, summary_a = run(with_updates(config, seed=1))
        _, summary_b = run(with_updates(config, seed=2))
        assert summary_a != summary_b

    @pytest.mark.parametrize("policy", sorted(POLICY_NAMES))
    def test_replay_and_power_cap_every_policy(self, policy):
        config = small_config(horizon=800)
        trace, summary = run(config, policy=policy)
        replay_check(trace, config)
        assert np.all(trace.power <= config.radio.max_power)
        assert np.all(trace.served <= trace.capacity)
        assert np.all(trace.allocation.sum(axis=1) == trace.served)

    def test_allocation_never_exceeds_backlog(self):
        config = small_config(horizon=600)
        trace, _ = run(config, policy="cpa-static")
        assert np.all(trace.allocation <= trace.queues)

    def test_empirical_rate_three_sigma(self):
        config = small_config(horizon=10_000, seed=4)
        _, summary = run(config, record_trace=False)
        for rate, lam in zip(summary.empirical_rates, config.traffic.arrival_rates):
            assert abs(rate - lam) / lam <= 3.0 / math.sqrt(lam * config.horizon)

    def test_streaming_summary_matches_trace_summary(self):
        config = small_config(horizon=700)
        trace, summary_stream = run(config)
        _, summary_nostore = run(config, record_trace=False)
        assert summary_stream == summary_nostore
        assert summarize(trace, config) == summary_stream

    def test_recorded_trace_arrays(self):
        # Tests edit trace arrays in place, so each keeps the schema's dtype, a
        # (T,) or (T, K) shape, C order and write access.  2500 slots span
        # several recording chunks; a 15-packet buffer drops packets.
        for config in (small_config(horizon=2500), small_config(horizon=2500, buffer_cap_pkts=15)):
            trace, _ = run(config)
            _, untraced = run(config, record_trace=False)
            horizon, k_count = config.horizon, config.traffic.num_services
            for _, name, integer, k in _trace_schema(k_count):
                array = getattr(trace, name)
                assert array.dtype == (np.int64 if integer else np.float64), name
                assert array.shape == ((horizon,) if k is None else (horizon, k_count)), name
                assert array.flags.c_contiguous and array.flags.writeable, name
            assert repr(summarize(trace, config)) == repr(untraced)
        assert sum(untraced.total_drops) > 0

    def test_state_rows_are_slot_start(self):
        config = small_config(horizon=50)
        trace, _ = run(config)
        # initial condition in row 0, first transition reproduced by hand
        assert np.all(trace.queues[0] == 0)
        assert np.all(trace.virtual_delay[0] == 0.0)
        assert trace.virtual_power[0] == 0.0
        lam_w = BASE.traffic.arrival_rates[0] * BASE.traffic.delay_bounds[0]
        for k in range(6):
            q1 = trace.queues[0, k] - trace.allocation[0, k] + trace.arrivals[0, k]
            assert trace.queues[1, k] == q1
            assert trace.virtual_delay[1, k] == max(trace.virtual_delay[0, k] - lam_w, 0.0) + q1
        assert trace.virtual_power[1] == max(trace.virtual_power[0] - 36.0, 0.0) + trace.power[0]

    def test_packet_tracker_exact_accounting(self):
        # (served delay, residual delay, packets served, packets queued, drops):
        # every packet of the 900-slot case waits one slot; the pinned dropping
        # case overflows its 300-packet buffers, so fewer packets are admitted
        # than arrive
        cases = [
            (small_config(horizon=900, seed=8), (107_882, 0, 107_882, 115, 0)),
            (
                load_config(None, seed=1, horizon=12_000, avg_power_w=0.5, buffer_cap_pkts=300),
                (3_565_114, 12_941, 1_424_724, 1_616, 13_610),
            ),
        ]
        for config, expected in cases:
            trace, summary = run(config)
            served_delay, residual, served, queued = packet_delays(trace, config.traffic.buffer_cap)
            assert (served_delay, residual, served, queued, sum(summary.total_drops)) == expected
            assert int(trace.queues.sum()) == served_delay + residual
            # with that identity, Little's law is the per-packet mean up to the
            # still-queued remainder
            admitted = int(sum(summary.empirical_rates) * summary.horizon + 0.5)
            assert served + queued == admitted


def packet_delays(trace, buffer_cap):
    """FIFO per-packet waiting recounted from a finished trace alone.

    A packet admitted in slot tau and sent in slot sigma waited sigma - tau
    slots; one still queued at the end has waited through slot T-1.  Packet n
    of a service arrives in the first slot whose cumulative admitted count
    exceeds n and leaves in the first whose cumulative allocation does.
    Returns (served delay, residual delay, packets served, packets queued).
    """
    # Overflow drops as `summarize` computes them: the buffer cap rejects the excess.
    dropped = np.maximum(trace.queues - trace.allocation + trace.arrivals - buffer_cap, 0)
    admitted = trace.arrivals - dropped
    served_delay = residual = served = queued = 0
    for k in range(trace.num_services):
        cum_in, cum_out = np.cumsum(admitted[:, k]), np.cumsum(trace.allocation[:, k])
        arrive = np.searchsorted(cum_in, np.arange(cum_in[-1]), side="right")
        depart = np.searchsorted(cum_out, np.arange(cum_out[-1]), side="right")
        served_delay += int((depart - arrive[: len(depart)]).sum())
        residual += int((len(trace) - 1 - arrive[len(depart) :]).sum())
        served, queued = served + len(depart), queued + len(arrive) - len(depart)
    return served_delay, residual, served, queued


class TestSummarize:
    def synthetic_trace(self, horizon=10):
        k = 1
        return Trace(
            slot=np.arange(horizon, dtype=np.int64),
            distance=np.full(horizon, 50.0),
            noise=np.full(horizon, 1e-7),
            power=np.full(horizon, 36.0),
            capacity=np.full(horizon, 585, dtype=np.int64),
            served=np.full(horizon, 20, dtype=np.int64),
            arrivals=np.full((horizon, k), 20, dtype=np.int64),
            allocation=np.full((horizon, k), 20, dtype=np.int64),
            queues=np.full((horizon, k), 300, dtype=np.int64),
            virtual_delay=np.zeros((horizon, k)),
            virtual_power=np.zeros(horizon),
            drops=np.zeros(horizon, dtype=np.int64),
        )

    def test_constant_power_mean(self):
        config = default_config_k(1)
        summary = summarize(self.synthetic_trace(), config)
        assert summary.avg_power == 36.0

    def test_littles_law_arithmetic(self):
        # steady backlog 300 at an admitted rate 20 is a 15-slot delay
        config = default_config_k(1)
        summary = summarize(self.synthetic_trace(), config)
        assert summary.avg_backlog == (300.0,)
        assert summary.empirical_rates == (20.0,)
        assert summary.avg_delay == (15.0,)
        assert summary.delay_ok == (True,)
        assert summary.power_ok is True

    def test_delay_flag_matches_backlog_inequality(self):
        config = default_config_k(1)
        summary = summarize(self.synthetic_trace(), config)
        for k in range(1):
            bound = config.traffic.delay_bounds[k]
            assert summary.delay_ok[k] == (summary.avg_backlog[k] <= bound * summary.empirical_rates[k])

    def test_rejects_empty(self):
        trace = self.synthetic_trace(horizon=0)
        with pytest.raises(ValueError):
            summarize(trace, default_config_k(1))

    def test_power_sum_is_sequential(self):
        # run() adds the powers one slot at a time.  In order, 1e16 + 1.0 + 1.0
        # is 1e16 (each 1.0 is half an ulp, rounded to even); a compensated sum,
        # as the builtin sum makes on floats since Python 3.12, gives 1e16 + 2.
        trace = self.synthetic_trace(horizon=3)
        trace.power = np.array([1e16, 1.0, 1.0])
        streamed = 0.0
        for power in trace.power.tolist():
            streamed += power
        assert streamed == 1e16
        assert summarize(trace, default_config_k(1)).avg_power == streamed / 3


def default_config_k(k):
    return with_updates(default_config(), num_services=k)


def test_replay_detects_tampering():
    config = small_config(horizon=60)
    trace, _ = run(config)
    trace.queues[30, 2] += 1
    with pytest.raises(AssertionError):
        replay_check(trace, config)


@pytest.mark.parametrize(
    "column, index, slot, check",
    [
        ("queues", (30, 2), 29, "real-queue"),
        ("virtual_delay", (30, 2), 29, "delay virtual-queue"),
        ("virtual_power", 30, 29, "power virtual-queue"),
        ("drops", 30, 30, "drop-count"),
        ("drops", -1, 59, "drop-count"),
        ("slot", 30, 30, "slot-number"),
        ("served", 30, 30, "served-count"),
    ],
)
def test_replay_names_tampered_slot(column, index, slot, check):
    # Q, X and Y are slot-start rows, so a bad row 30 is slot 29's successor;
    # the drop count, the slot number and the served count are the row's own,
    # the last row's drop count included
    config = small_config(horizon=60)
    trace, _ = run(config)
    getattr(trace, column)[index] += 1
    with pytest.raises(AssertionError, match=f"^slot {slot}: {check} replay mismatch$"):
        replay_check(trace, config)


@pytest.mark.parametrize("policy", ["proposed", "cpa-dynamic", "wfpa-static"])
@pytest.mark.parametrize("column", ["capacity", "power", "allocation", "distance"])
def test_audit_detects_tampered_decision(policy, column):
    # the distance is no decision, but the audit rebuilds each slot's input from the scenario's d(t)
    config = small_config(horizon=300)
    trace, _ = run(config, policy=policy)
    audit_decisions(trace, config, policy)
    slot = 150
    if column == "allocation":
        k = int(np.argmax(trace.queues[slot]))
        trace.allocation[slot, k] += 1 if trace.allocation[slot, k] < trace.queues[slot, k] else -1
    else:
        getattr(trace, column)[slot] += 1
    with pytest.raises(AssertionError, match=f"slot {slot}:"):
        audit_decisions(trace, config, policy)


def test_audit_checks_the_named_policy():
    # at 0.5 W the dynamic caps bind, so a proposed trace is not a cpa-dynamic one
    config = small_config(horizon=12_000, seed=1, avg_power_w=0.5)
    trace, _ = run(config, policy="proposed")
    with pytest.raises(AssertionError, match="slot"):
        audit_decisions(trace, config, "cpa-dynamic")
    with pytest.raises(ValueError, match="horizon"):
        audit_decisions(trace, small_config(horizon=100), "proposed")


def test_audit_settles_an_uncertified_threshold():
    # slot 150 rebuilt as X = (7, 0, ...), Q = (6, 0, ...) at a power price
    # where np.log2's threshold takes packet 6 but the float objective ties
    # M(5) = M(6): the threshold is not certified, and the oracle's C is 5
    config = small_config(horizon=300)
    trace, _ = run(config)
    t = 150
    trace.virtual_delay[t], trace.queues[t], trace.virtual_power[t] = [7.0] + [0.0] * 5, [6] + [0] * 5, 246942099.85019785
    trace.capacity[t] = trace.served[t] = 6
    trace.allocation[t] = [6] + [0] * 5
    trace.power[t] = float(trace.noise[t]) * (2.0 ** (config.radio.eta * 6) - 1.0)
    with pytest.raises(AssertionError, match=f"^slot {t}: recorded capacity 6 but the slot optimum is 5$"):
        audit_decisions(trace, config, "proposed")


@pytest.fixture(scope="module")
def six_service_run():
    config = small_config(horizon=200, seed=1)
    trace, _ = run(config)
    return config, trace


@pytest.mark.parametrize("num_services", [1, 2])
@pytest.mark.parametrize(
    "check",
    [summarize, replay_check, lambda trace, config: audit_decisions(trace, config, "proposed")],
    ids=["summarize", "replay_check", "audit_decisions"],
)
def test_checks_reject_another_service_count(six_service_run, check, num_services):
    # each check zips or broadcasts the scenario's per-service values against
    # the trace's K services, so a K=1 drain would broadcast and pass
    config, trace = six_service_run
    with pytest.raises(ValueError, match=f"^trace has 6 services but the scenario has {num_services}$"):
        check(trace, with_updates(config, num_services=num_services))


@pytest.mark.parametrize(
    "decision, message",
    [((99.0, [0] * 6, 0), "slot 0: power 99.0 exceeds the 50.0 W cap"), ((0.0, [1] + [0] * 5, 0), "slot 0: served 1 exceeds link capacity 0")],
    ids=["power", "served"],
)
def test_run_rejects_a_decision_past_its_caps(monkeypatch, decision, message):
    monkeypatch.setattr(engine, "decide", lambda *args: decision)
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        run(small_config(horizon=5))


def test_run_rejects_bad_horizon():
    config = small_config()
    object.__setattr__(config, "horizon", 0)
    with pytest.raises(ValueError):
        run(config)


# Config keys of each pinned scenario, all at seed 1.  At T=3000 the
# receiver stays near the base station and no cap binds, so the three solver
# policies write one trace; at 0.5 W and T=12000 the power price and the
# dynamic caps bind and each policy writes its own.  The dropping scenario
# adds a 300-packet buffer, so every policy overflows it (proposed drops
# 13 610 packets).
PINNED_SCENARIOS = {
    "default": {"horizon": 3000},
    "avg_power=0.5": {"horizon": 3000, "avg_power_w": 0.5},
    "binding": {"horizon": 12_000, "avg_power_w": 0.5},
    "dropping": {"horizon": 12_000, "avg_power_w": 0.5, "buffer_cap_pkts": 300},
    # A drain of 20.5 * 15 = 307.5 packets makes X fractional once a queue empties.
    "fractional-drain": {"horizon": 12_000, "avg_power_w": 0.5, "arrival_rate_pkts": 20.5},
}

# SHA-256 of (trace.csv, summary.txt) by scenario and policy.
PINNED_OUTPUTS = {
    ("default", "cpa-dynamic"): (
        "3f181ddb491c1256e5098b3090eef35e0cff4f71fc8dddcd99d60a9506a40b35",
        "609d1d66a881d2358489ea3e562e3819c6b7ef2b80720ba8c9a312a73cb25cc4",
    ),
    ("default", "cpa-static"): (
        "46469d671564f50c7043cd140e57284d8c8f0bf05c21054199bb187f8b1b1d53",
        "ebb206327d8493b8e3bcfe2e389a136ed98528cc0e1fafc2266da94ec91c6e10",
    ),
    ("default", "proposed"): (
        "3f181ddb491c1256e5098b3090eef35e0cff4f71fc8dddcd99d60a9506a40b35",
        "609d1d66a881d2358489ea3e562e3819c6b7ef2b80720ba8c9a312a73cb25cc4",
    ),
    ("default", "wfpa-dynamic"): (
        "3f181ddb491c1256e5098b3090eef35e0cff4f71fc8dddcd99d60a9506a40b35",
        "609d1d66a881d2358489ea3e562e3819c6b7ef2b80720ba8c9a312a73cb25cc4",
    ),
    ("default", "wfpa-static"): (
        "0c3ffa8be9cf21def75defd7a84d66c9ef92ddbe828c61c591a99d04998eeed5",
        "da53c18e6542cb3049a9a7086a99152732bcafbfe486e2a91db7133efa69bf33",
    ),
    ("avg_power=0.5", "cpa-dynamic"): (
        "3f181ddb491c1256e5098b3090eef35e0cff4f71fc8dddcd99d60a9506a40b35",
        "609d1d66a881d2358489ea3e562e3819c6b7ef2b80720ba8c9a312a73cb25cc4",
    ),
    ("avg_power=0.5", "cpa-static"): (
        "68e32c88389772db6e84194a348f30687f38e6a3026a395f070da62da02e03f2",
        "5cf0ea5cd2b135e45b7f8dc8aaea6bee1361d339940e0ab997fb213a3a85c6f0",
    ),
    ("avg_power=0.5", "proposed"): (
        "3f181ddb491c1256e5098b3090eef35e0cff4f71fc8dddcd99d60a9506a40b35",
        "609d1d66a881d2358489ea3e562e3819c6b7ef2b80720ba8c9a312a73cb25cc4",
    ),
    ("avg_power=0.5", "wfpa-dynamic"): (
        "3f181ddb491c1256e5098b3090eef35e0cff4f71fc8dddcd99d60a9506a40b35",
        "609d1d66a881d2358489ea3e562e3819c6b7ef2b80720ba8c9a312a73cb25cc4",
    ),
    ("avg_power=0.5", "wfpa-static"): (
        "da4017438de8ab7c84b19852fa869ad8a9b5b8456635a55c90f7dc2e1f07c729",
        "272617e470fa2336d1a1cb08ee7db6c1b789067679c4d3af1cb2f5329c3bd9cf",
    ),
    ("binding", "cpa-dynamic"): (
        "bad81c1b219415d01bfbf1584e5a86e4f69d3a5291fb0469a5280c7bc821e8fa",
        "e8980c0da94ab21fe2974c3426883a4deee6dfa0bebae7beefd2131b0b38929d",
    ),
    ("binding", "cpa-static"): (
        "06260bd5fffb7ba4b3148dc951a3c13fc1bfbb08cf012da6f6ef90d016f6c406",
        "35afb43f2f88a38d425bb0ded6e5ae426b1b566ecf03ab9f9aed064beec04874",
    ),
    ("binding", "proposed"): (
        "50ce49363d082bfa834f559f9be821f9d6344e87476e16b1e83e811101874702",
        "58b464f223454e8bab2cafc842cb38c0502e4657b8384d89a9b747dc792153f1",
    ),
    ("binding", "wfpa-dynamic"): (
        "623cf2a98ad35e996661701a14f1ef51fbdbad3623426e1b141430d4512c1d4a",
        "15c4e4f8242370a4981bcb96ae25afa4ec90c307fb3fc98f7fe2b535394f644a",
    ),
    ("binding", "wfpa-static"): (
        "6d91307b0f6b667974fa0a33a16f310588530d36ee519a9e9d9e50a495fae843",
        "d5ee433bba5baa4c04aace81211dd408d2f9fd8fc2d1fad08b93dd1e39fe0e9d",
    ),
    ("dropping", "cpa-dynamic"): (
        "c15480312fab2929c089a16894ed9956474269bb25f683681d2e3edd0d9ba9f1",
        "13d356ba1e205ff80a582f8b37e5147ac10fcdbc0974917059fb80b8178d30e7",
    ),
    ("dropping", "cpa-static"): (
        "a419ae550392b6612700c47e5b60034288566fe19437cf2074fa165c874a8476",
        "c716f631b7ce025a68b939358851fc16ef2f89ace480c8ee23ad24fceb997567",
    ),
    ("dropping", "proposed"): (
        "6331116a56bdab6e0021db7b92cd72caf88c614138de340789a950967d65f62c",
        "eedce3346662c2c9bc51dcdda4e7908932710035d987daa3c5450d5129f2b713",
    ),
    ("dropping", "wfpa-dynamic"): (
        "adb15f7f521ae694661db52f79532c76358c20f83cd02f006e2fae3be7d4e780",
        "074dafce241953174601cb2cf1b2df208e207db56a7190fd587dee3331c02ef9",
    ),
    ("dropping", "wfpa-static"): (
        "879fb202af5d1061ac1e6e1ff62add9809a724cb4d0b38bb45451643a6e9a33f",
        "fee72378f3860daebed2950d64bdd31cdb7ec23a3f998bc3fad81072c8bb0bee",
    ),
    ("fractional-drain", "cpa-dynamic"): (
        "5d2e91626a204db492f32d4761484d42ec9ab53f49ac0a81336cecde6977b978",
        "0b2d4011bcbd4674a8e29334b8e7cccf11bd37f04e345b5d3c82926f227845c9",
    ),
    ("fractional-drain", "cpa-static"): (
        "cd53d286aa76994758c0e818d2a1781c7b681cb790aad0b724cf255890d99204",
        "5a0632557f723cbc1a9f226ead728341c563053c2eb61ab5138961d1556fe18b",
    ),
    ("fractional-drain", "proposed"): (
        "c05ec4cd5d899ba6e2756f08469491b9d15f8ff5e5160bfcadfa71ee9c460d41",
        "1378120619766e566dda428d3a90cc535dc1a63e61345777a98f922308c04a48",
    ),
    ("fractional-drain", "wfpa-dynamic"): (
        "15089a3bea14a79d27581ce7d5c55dccfede67b4f8f1b0b58b08672266d8f8f8",
        "c22ebb6010148e203528f01ffb183a40f2240e3b5d719b1f1adc7506d4a876be",
    ),
    ("fractional-drain", "wfpa-static"): (
        "b54363a5b9045ac1d3e70c3eabf00ed4fa2b646ae00ba3add3d25d28994a0f5d",
        "1ac554c626fd68055387b04198ac491c13186e9c5d882979870c97b8b6be8f63",
    ),
}


@pytest.mark.parametrize("scenario, policy", sorted(PINNED_OUTPUTS))
def test_outputs_pinned(tmp_path, monkeypatch, scenario, policy):
    """Output files stay byte-identical for a fixed (config, policy, seed).

    The digests were generated with the engine that kept one power virtual
    queue per service and built per-slot channel, arrival and action
    objects, and with the row-by-row trace writer, before either was
    replaced; the binding scenario's with the engine that still kept a
    separate code path per policy kind; the dropping scenario's with the
    engine that still summed admitted packets and drops slot by slot; the
    fractional-drain scenario's with the writer that printed every float
    column with %.17g.  A change that alters any decision or any written
    byte fails here, and every recorded decision must be the policy's own,
    certified without the brute-force oracle.
    """
    config = load_config(None, seed=1, **PINNED_SCENARIOS[scenario])
    trace, summary = run(config, policy=policy)
    if scenario == "dropping":
        assert sum(summary.total_drops) > 0
    if scenario == "fractional-drain":
        # X is whole in some write chunks (printed with %d) and not in others.
        chunks = np.split(trace.virtual_delay, range(_WRITE_CHUNK_ROWS, len(trace), _WRITE_CHUNK_ROWS))
        assert {bool(np.all(chunk == np.trunc(chunk))) for chunk in chunks} == {True, False}
    with monkeypatch.context() as patch:
        patch.setattr(engine, "brute_force_slot", lambda inst: pytest.fail(f"oracle called on {inst}"))
        audit_decisions(trace, config, policy)
    write_trace(trace, tmp_path / "trace.csv")
    write_summary(summary, tmp_path / "summary.txt")
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("trace.csv", "summary.txt"))
    assert digests == PINNED_OUTPUTS[scenario, policy]
