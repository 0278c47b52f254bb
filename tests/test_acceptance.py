"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s`.  The long-horizon criteria
share module-scoped simulation fixtures; expect a few minutes of wall time.
"""

import itertools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from railsched.channel import distance_profile, noise_profile
from railsched.cli import main
from railsched.config import default_config, load_config, with_updates
from railsched.engine import audit_decisions, replay_check, run
from railsched.solver import SlotInstance, brute_force_slot, greedy_allocation, solve_slot
from railsched.sweep import SweepSpec, read_sweep, run_sweep
from railsched.traceio import write_trace

from reference_formulas import exhaustive_best_split, noise_equiv, objective_value, random_instance

SEEDS = (1, 2, 3)
HORIZON = 300_000

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
SWEEPS = {fig: flags for fig, *flags in (line.split() for line in (EXPERIMENTS / "sweeps.txt").read_text().splitlines() if line.strip() and line[0] != "#")}
COMPARED = tuple(SWEEPS["fig4"][SWEEPS["fig4"].index("--policies") + 1].split(","))

_timings: dict[str, float] = {}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_solver_oracle_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        inst = random_instance(rng)
        fast = solve_slot(inst).objective
        slow = brute_force_slot(inst).objective
        gap = abs(fast - slow) / max(1.0, abs(slow))
        worst = max(worst, gap)
        if gap > 1e-9:
            _report("criterion 1 (solver vs oracle)", False, f"relative gap {gap:.3e} on {inst}")
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (solver vs oracle)",
        elapsed < 5.0,
        f"1000 instances, worst relative gap {worst:.2e}, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_greedy_optimality_exhaustive():
    rng = random.Random(202)
    start = time.perf_counter()
    checked = 0
    for k in range(1, 5):
        for backlogs in itertools.product(range(7), repeat=k):
            weights = tuple(rng.uniform(0.0, 10.0) for _ in range(k))
            if checked % 7 == 0:
                weights = tuple(float(rng.randint(0, 3)) for _ in range(k))  # exercise ties
            inst = SlotInstance(weights, backlogs, 0.0, 0.048, 1.0, sum(backlogs))
            for c in range(min(12, sum(backlogs)) + 1):
                mu = greedy_allocation(c, inst)
                greedy_val = sum(w * m for w, m in zip(weights, mu))
                exact_val = exhaustive_best_split(weights, backlogs, c)
                if greedy_val != exact_val:
                    _report(
                        "criterion 2 (greedy optimality)",
                        False,
                        f"greedy {greedy_val} != exhaustive {exact_val} at X={weights} Q={backlogs} C={c}",
                    )
                checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (greedy optimality)",
        elapsed < 10.0,
        f"{checked} exact comparisons over all K<=4, Q<=6, C<=12 backlogs, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_discrete_concavity():
    rng = random.Random(303)
    worst = -math.inf
    for _ in range(1000):
        inst = random_instance(rng)
        hi = min(inst.total_backlog, inst.capacity_cap)
        values = [objective_value(float(c), inst) for c in range(hi + 1)]
        for c in range(1, len(values) - 1):
            second = values[c + 1] - 2.0 * values[c] + values[c - 1]
            worst = max(worst, second)
            if second > 1e-9:
                _report("criterion 3 (discrete concavity)", False, f"second difference {second:.3e} at C={c}")
    _report("criterion 3 (discrete concavity)", True, f"1000 instances, max second difference {worst:.2e} <= 1e-9")


# ---------------------------------------------------------------------------
# long-horizon fixtures


@pytest.fixture(scope="module")
def baseline_runs():
    """Proposed policy at the default setup (rate 20, bound 15, omega 0.8, cap 50 W)."""
    config = with_updates(default_config(), horizon=HORIZON)
    results = {}
    for seed in SEEDS:
        start = time.perf_counter()
        trace, summary = run(with_updates(config, seed=seed), record_trace=(seed == SEEDS[0]))
        _timings[f"baseline seed {seed}"] = time.perf_counter() - start
        results[seed] = (trace, summary)
    return config, results


@pytest.fixture(scope="module")
def capped_variant_period_runs(baseline_runs):
    """One full cell period of the two capped dynamic baselines, matching seeds."""
    config, _ = baseline_runs
    period_config = with_updates(config, horizon=config.geometry.period_slots)
    out = {}
    for policy in ("cpa-dynamic", "wfpa-dynamic"):
        trace, _ = run(with_updates(period_config, seed=SEEDS[0]), policy=policy)
        out[policy] = trace
    return period_config, out


def _load_powers(config):
    """Tracking and edge power of the offered load sum(lambda) in one scenario.

    Tracking power L is the cell-period mean of N(t) * (2^(eta*sum(lambda)) - 1):
    the average power of carrying each slot's mean arrivals in that slot.
    Edge power E is the same per-slot power at the deepest cell edge,
    N_max * (2^(eta*sum(lambda)) - 1).
    """
    geometry, radio = config.geometry, config.radio
    growth = 2.0 ** (config.radio.eta * sum(config.traffic.arrival_rates)) - 1.0
    noise = noise_profile(distance_profile(geometry.period_slots, geometry), radio)
    return float(noise.mean()) * growth, noise_equiv(math.hypot(geometry.cell_radius, geometry.rail_offset), radio) * growth


@pytest.fixture(scope="module")
def policy_comparison_table():
    """fig4's scenario at rate 25, budget midway between L and E: fig4's policies, 3 seeds.

    With a budget above the edge power E no per-slot cap binds, so the
    dynamic baselines solve exactly what the proposed policy solves and no
    delay margin can exist.  Below the tracking power L the budget cannot
    carry the load.  Between them both profile caps bind near the cell
    edge, which is the regime the comparison is about.
    """
    config = load_config(EXPERIMENTS / "fig4.ini", horizon=HORIZON, arrival_rate_pkts=25.0)
    tracking, edge = _load_powers(config)
    config = with_updates(config, avg_power_w=0.5 * (tracking + edge))
    assert tracking < config.traffic.avg_power < edge, (tracking, config.traffic.avg_power, edge)
    spec = SweepSpec(parameter="lambda", values=(25.0,), policies=COMPARED, replications=len(SEEDS))
    start = time.perf_counter()
    table = run_sweep(spec, config, workers=2)
    _timings["policy comparison sweep"] = time.perf_counter() - start
    assert not table.failures, [r.error for r in table.failures]
    return tracking, edge, config.traffic.avg_power, table


def _paper_sweep(figure, tmp_path_factory):
    """`railsched sweep` of experiments/<figure>.ini with its sweeps.txt flags at the gate's horizon; 0 means no failed cell."""
    out, config = tmp_path_factory.mktemp(figure), str(EXPERIMENTS / f"{figure}.ini")
    assert main(["sweep", "--config", config, *SWEEPS[figure], "--horizon", str(HORIZON), "--workers", "2", "--out", str(out)]) == 0
    return read_sweep(out / "sweep.csv")


@pytest.fixture(scope="module")
def omega_sweep_table(tmp_path_factory):
    return _paper_sweep("fig5", tmp_path_factory)


@pytest.fixture(scope="module")
def pmax_sweep_table(tmp_path_factory):
    return _paper_sweep("fig6", tmp_path_factory)


def test_criterion_4_constraints_hold(baseline_runs):
    config, results = baseline_runs
    worst_delay = 0.0
    worst_power = 0.0
    for seed in SEEDS:
        _, summary = results[seed]
        worst_delay = max(worst_delay, max(summary.avg_delay))
        worst_power = max(worst_power, summary.avg_power)
    slow = max(_timings[f"baseline seed {s}"] for s in SEEDS)
    ok = worst_delay <= 16.5 and worst_power <= 37.8 and slow < 120.0
    _report(
        "criterion 4 (constraint satisfaction)",
        ok,
        f"max Wbar {worst_delay:.3f} <= 16.5 slots, max Pbar {worst_power:.3f} <= 37.8 W, "
        f"slowest seed {slow:.1f}s (< 120s), T={HORIZON}, seeds {SEEDS}",
    )


def test_criterion_4b_rate_stability_proxy(baseline_runs):
    # linear-growth proxy on the delay virtual queues, summed over services to
    # average out single-slot arrival noise
    config, results = baseline_runs
    trace = results[SEEDS[0]][0]
    t_full = len(trace) - 1
    t_half = t_full // 2
    full = trace.virtual_delay[t_full].sum() / t_full
    half = trace.virtual_delay[t_half].sum() / t_half
    _report(
        "criterion 4b (virtual-queue rate stability)",
        full <= half,
        f"sum X(T)/T = {full:.3e} <= sum X(T/2)/(T/2) = {half:.3e}",
    )


def test_criterion_5_cell_center_capacity_tracks_arrivals(baseline_runs):
    config, results = baseline_runs
    trace = results[SEEDS[0]][0]
    near = trace.distance <= 1.1 * config.geometry.rail_offset
    mean_served = float(trace.served[near].mean())
    ok = 105.0 <= mean_served <= 135.0
    _report(
        "criterion 5 (cell-center service rate)",
        ok,
        f"mean served {mean_served:.2f} pkt/slot over {int(near.sum())} near-center slots, within [105, 135]",
    )


def _third_masks(trace, geometry, period):
    # horizontal offset to the nearest base station, from the stored distance
    d = trace.distance[:period]
    h = np.sqrt(np.maximum(d**2 - geometry.rail_offset**2, 0.0))
    r = geometry.cell_radius
    return h <= r / 3.0, h >= 2.0 * r / 3.0


def test_criterion_6_power_rises_toward_cell_edge(baseline_runs, capped_variant_period_runs):
    config, results = baseline_runs
    period_config, variants = capped_variant_period_runs
    period = config.geometry.period_slots
    details = []
    ok = True
    cases = {"proposed": results[SEEDS[0]][0], **variants}
    for name, trace in cases.items():
        center, edge = _third_masks(trace, config.geometry, period)
        p_center = float(trace.power[:period][center].mean())
        p_edge = float(trace.power[:period][edge].mean())
        ok &= p_edge > p_center
        details.append(f"{name}: edge {p_edge:.3f} W > center {p_center:.5f} W")
    _report("criterion 6 (power shape over the cell)", ok, "; ".join(details))


def test_criterion_7_policy_ordering(policy_comparison_table):
    # The comparison needs a budget with tracking power L < budget < edge
    # power E (the fixture asserts it): at or above E no cap binds and all
    # three policies make the same decisions.  Even then no policy gets below
    # Wbar = 1 - 1/T: arrivals land after service, so every admitted packet
    # sits in at least one slot-start backlog.  The abstract ranks the
    # proposed policy against the baselines, not the baselines against each
    # other, so only the former is checked; the proposed policy must also
    # meet both constraints, so the win is not bought with extra power.
    tracking, edge, budget, table = policy_comparison_table
    wbar, pbar = {}, {}
    for policy in COMPARED:
        rows = [r for r in table.rows if r.policy == policy]
        assert len(rows) == len(SEEDS)
        wbar[policy] = float(np.mean([r.mean_delay for r in rows]))
        pbar[policy] = float(np.mean([r.avg_power for r in rows]))
    feasible = all(r.power_ok and r.delay_ok for r in table.rows if r.policy == "proposed")
    best_baseline = min(wbar["wfpa-dynamic"], wbar["cpa-dynamic"])
    ordered = wbar["proposed"] < best_baseline
    margin = wbar["proposed"] <= 0.6 * best_baseline
    per_policy = ", ".join(f"{p} Wbar {wbar[p]:.4f} / Pbar {pbar[p]:.3f} W" for p in wbar)
    _report(
        "criterion 7 (policy ordering)",
        ordered and margin and feasible,
        f"L {tracking:.3f} W < budget {budget:.3f} W < E {edge:.3f} W; {per_policy}; "
        f"proposed < both baselines {'holds' if ordered else 'fails'}, "
        f"0.6x margin on the better baseline {'holds' if margin else 'fails'}, "
        f"proposed meets power and delay on seeds {SEEDS}: {feasible}",
    )


def _monotone_violations(values, direction):
    # returns (count, worst relative wrong-direction step)
    count, worst = 0, 0.0
    for a, b in zip(values, values[1:]):
        step = (b - a) if direction == "non-increasing" else (a - b)
        if step > 0.0:
            rel = step / abs(a) if a != 0 else math.inf
            count += 1
            worst = max(worst, rel)
    return count, worst


def test_criterion_8_omega_tradeoff(omega_sweep_table):
    rows = sorted((r for r in omega_sweep_table.rows), key=lambda r: r.value)
    powers = [r.avg_power for r in rows]
    delays = [r.mean_delay for r in rows]
    p_viol, p_worst = _monotone_violations(powers, "non-increasing")
    d_viol, d_worst = _monotone_violations(delays, "non-decreasing")
    power_ok = p_viol == 0 or (p_viol == 1 and p_worst <= 0.02)
    delay_ok = d_viol == 0 or (d_viol == 1 and d_worst <= 0.02)
    feasible = [r.value for r in rows if r.delay_ok and r.power_ok]
    _report(
        "criterion 8 (omega tradeoff)",
        power_ok and delay_ok and bool(feasible),
        f"Pbar {['%.4f' % p for p in powers]} ({p_viol} violation(s), worst {p_worst:.3%}); "
        f"Wbar {['%.4f' % d for d in delays]} ({d_viol} violation(s), worst {d_worst:.3%}); "
        f"feasible omega values {feasible}",
    )


def test_criterion_9_pmax_tradeoff(pmax_sweep_table):
    rows = sorted((r for r in pmax_sweep_table.rows), key=lambda r: r.value)
    powers = [r.avg_power for r in rows]
    delays = [r.mean_delay for r in rows]
    p_viol, p_worst = _monotone_violations(powers, "non-decreasing")
    d_viol, d_worst = _monotone_violations(delays, "non-increasing")
    power_ok = p_viol == 0 or (p_viol == 1 and p_worst <= 0.02)
    delay_ok = d_viol == 0 or (d_viol == 1 and d_worst <= 0.02)
    _report(
        "criterion 9 (power-cap tradeoff)",
        power_ok and delay_ok,
        f"Pbar {['%.4f' % p for p in powers]} ({p_viol} violation(s), worst {p_worst:.3%}); "
        f"Wbar {['%.4f' % d for d in delays]} ({d_viol} violation(s), worst {d_worst:.3%})",
    )


def test_criterion_10_replay_and_determinism(baseline_runs, tmp_path):
    config, results = baseline_runs
    trace = results[SEEDS[0]][0]
    replay_check(trace, config)
    audit_decisions(trace, config, "proposed")

    short = with_updates(config, horizon=20_000)
    trace_a, _ = run(with_updates(short, seed=SEEDS[0]))
    trace_b, _ = run(with_updates(short, seed=SEEDS[0]))
    audit_decisions(trace_a, short, "proposed")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(trace_a, first)
    write_trace(trace_b, second)
    identical = first.read_bytes() == second.read_bytes()
    _report(
        "criterion 10 (replay and determinism)",
        identical,
        f"full {HORIZON}-slot trace replays exactly and every decision audits; "
        f"identical seeds give byte-identical trace files ({identical})",
    )
