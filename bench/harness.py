"""Workloads, correctness gate, simulated-statistics record and metrics of the benchmark.

Host time is what the simulator takes to run; simulated time is what it
models.  Every metric here is host time.  The simulated statistics (Pbar,
mean Wbar, drops, output hashes) are kept only as the correctness record.

All three workloads are closed loop: one process issues one workflow
iteration after another and times each.  Only `sweep-binding` starts
worker processes (the sweep's own pool, two workers).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import railsched
from railsched import cli, engine, policies, queues, sweep, traceio
from railsched.channel import floor_eps
from railsched.config import load_config
from railsched.solver import brute_force_slot, solve_slot
from railsched.sweep import SweepSpec, run_sweep, write_sweep

import calibration
from tracer import Spans

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
SETUP_PROBE = BENCH_DIR / "setup_probe.py"

# Metric names and units; BENCHMARK.json lists the same ones.
END_TO_END = {
    "wall_s": "s",
    "slots_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "channel.profiles_ms": "ms",
    "config.load_ms": "ms",
    "queues.arrivals_ms": "ms",
    "queues.update_us": "us",
    "solver.calls": "count",
    "solver.solve_us_p50": "us",
    "solver.solve_us_p99": "us",
    "solver.greedy_calls": "count",
    "solver.span_mean": "packets",
    "solver.nonzero_frac": "frac",
    "policies.build_ms": "ms",
    "policies.decide_self_us": "us",
    "policies.cap_bound_frac": "frac",
    "engine.run_self_us_per_slot": "us",
    "engine.replay_check_ms": "ms",
    "engine.summarize_ms": "ms",
    "traceio.write_us_per_row": "us",
    "traceio.read_us_per_row": "us",
    "traceio.bytes_per_row": "bytes",
    "cli.overhead_ms": "ms",
    "sweep.cells": "count",
    "sweep.cell_s_p50": "s",
    "sweep.cell_s_max": "s",
    "sweep.parallel_efficiency": "frac",
    "trace_overhead_frac": "frac",
    "trace.glue_frac": "frac",
}

SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
ORACLE_SAMPLE = 64  # captured SlotInstances checked against brute force per gate run
ORACLE_RTOL = 1e-9  # the relative objective gap acceptance criterion 1 allows

# --------------------------------------------------------------------------
# Workloads


@dataclass
class Iteration:
    slots: int  # simulated slots in this iteration
    runs: int  # operations attempted: runs or sweep cells
    failed: int  # operations that failed
    payload: object  # the iteration's output, for the record and the determinism check


class _SingleRun:
    """A workload whose iteration is one run of one policy in the default scenario."""

    policy: str
    workers = 0
    runs_per_iteration = 1

    def __init__(self, horizon: int):
        self.horizon = horizon

    def overrides(self, seed: int) -> dict:
        return {"policy": self.policy, "seed": seed, "horizon": self.horizon}

    def setup_spec(self, seed: int) -> dict:
        return {"overrides": self.overrides(seed)}

    def fingerprint(self, payload) -> str:
        return _summary_bits(payload)

    def gate_cells(self, seed: int):
        return [(load_config(None, **self.overrides(seed)), self.policy)]


class ProposedSlack(_SingleRun):
    """Default scenario, `proposed` policy, `run(record_trace=False)`.

    `solve_slot` runs every slot and takes most of the host time, and no
    trace I/O runs: a solver change shows here, a trace-I/O change predicts
    no change.
    """

    name = "proposed-slack"
    policy = "proposed"

    def __init__(self, horizon: int = 10_000):
        super().__init__(horizon)

    def iterate(self, api, seed: int, work: Path, traced: bool) -> Iteration:
        config = api.load_config(None, **self.overrides(seed))
        _, summary = api.run(config, record_trace=False)
        return Iteration(slots=self.horizon, runs=1, failed=0, payload=summary)

    def cross_checks(self, config, policy, summary, trace_csv: Path, warm, work: Path):
        def untraced_run_agrees():
            _require(_summary_bits(summary) == _summary_bits(warm), "record_trace=True changed the summary")

        return [("record_trace_neutral", untraced_run_agrees)]

    def record(self, warm, gate_summaries, work: Path) -> dict:
        path = work / "record_summary.txt"
        traceio.write_summary(warm, path)
        return _summary_record(warm, path)


class StaticTrace(_SingleRun):
    """Default scenario, `wfpa-static`, through `railsched run`, then read, replay, summarize.

    The solver search never runs, while the engine loop, the queue updates
    and trace I/O carry the cost: engine and trace-I/O changes show here, a
    solver-only change predicts no change.
    """

    name = "static-trace"
    policy = "wfpa-static"

    def __init__(self, horizon: int = 20_000):
        super().__init__(horizon)

    def iterate(self, api, seed: int, work: Path, traced: bool) -> Iteration:
        out = work / "static"
        argv = ["run", "--policy", self.policy, "--seed", str(seed), "--horizon", str(self.horizon), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = api.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"railsched run exited with code {code}")
        config = api.load_config(None, **self.overrides(seed))
        trace = api.read_trace(out / "trace.csv")
        api.replay_check(trace, config)
        summary = api.summarize(trace, config)
        return Iteration(slots=self.horizon, runs=1, failed=0, payload=summary)

    def cross_checks(self, config, policy, summary, trace_csv: Path, warm, work: Path):
        out = work / "static"

        def cli_trace_matches_library():
            _require(trace_csv.read_bytes() == (out / "trace.csv").read_bytes(), "CLI trace.csv differs from run()")

        def cli_summary_matches_library():
            path = work / "gate_summary.txt"
            traceio.write_summary(summary, path)
            _require(path.read_bytes() == (out / "summary.txt").read_bytes(), "CLI summary.txt differs from run()")
            _require(_summary_bits(summary) == _summary_bits(warm), "summarize(read_trace) differs from run()")

        return [("cli_trace_bytes", cli_trace_matches_library), ("cli_summary_bytes", cli_summary_matches_library)]

    def record(self, warm, gate_summaries, work: Path) -> dict:
        out = work / "static"
        rec = _summary_record(warm, out / "summary.txt")
        rec["trace_sha256"] = _sha256(out / "trace.csv")
        return rec


class SweepBinding:
    """Omega sweep at a binding 0.5 W budget over the three solver policies, two workers.

    The dynamic policies' caps bind here, so the solver meets large
    backlogs that the cap limits; `build_policy` is paid once per cell, and
    this is the only workload that runs the process pool.
    """

    name = "sweep-binding"
    omegas = (0.8, 3.2)
    policies = ("proposed", "cpa-dynamic", "wfpa-dynamic")
    workers = 2
    avg_power_w = 0.5
    runs_per_iteration = len(omegas) * len(policies)

    def __init__(self, horizon: int = 12_000):
        self.horizon = horizon

    def overrides(self, seed: int) -> dict:
        return {"avg_power_w": self.avg_power_w, "seed": seed, "horizon": self.horizon}

    def spec(self) -> SweepSpec:
        return SweepSpec(parameter="omega", values=self.omegas, policies=self.policies)

    def setup_spec(self, seed: int) -> dict:
        overrides = dict(self.overrides(seed), policy=self.policies[0])
        return {"overrides": overrides, "updates": {"omega": self.omegas[0]}}

    def iterate(self, api, seed: int, work: Path, traced: bool) -> Iteration:
        base = api.load_config(None, **self.overrides(seed))
        # The traced run keeps its cells in-process so their spans are collected.
        table = api.run_sweep(self.spec(), base, workers=1 if traced else self.workers)
        return Iteration(slots=self.horizon * len(table.rows), runs=len(table.rows), failed=len(table.failures), payload=table)

    def fingerprint(self, payload) -> str:
        return repr([(r.value, r.policy, r.status, r.avg_power, r.mean_delay, r.avg_delay) for r in payload.rows])

    def gate_cells(self, seed: int):
        base = load_config(None, **self.overrides(seed))
        return [(railsched.with_updates(base, omega=self.omegas[0]), policy) for policy in self.policies]

    def cross_checks(self, config, policy, summary, trace_csv: Path, warm, work: Path):
        def sweep_row_matches_run():
            rows = [r for r in warm.rows if r.policy == policy and r.value == config.omega]
            _require(len(rows) == 1, f"no sweep row for {policy} at omega={config.omega}")
            row = rows[0]
            _require(row.avg_power == summary.avg_power, "sweep cell avg_power differs from run()")
            _require(row.mean_delay == float(np.mean(summary.avg_delay)), "sweep cell mean delay differs from run()")

        return [("sweep_cell_matches_run", sweep_row_matches_run)]

    def record(self, warm, gate_summaries, work: Path) -> dict:
        path = work / "record_sweep.csv"
        write_sweep(warm, path)
        return {
            "pbar": [r.avg_power for r in warm.rows],
            "mean_wbar": [r.mean_delay for r in warm.rows],
            "drops": sum(sum(s.total_drops) for s in gate_summaries),
            "summary_sha256": _sha256(path),
        }


WORKLOADS = {w.name: w for w in (ProposedSlack, StaticTrace, SweepBinding)}


def make_workload(name: str, horizon: int | None = None):
    cls = WORKLOADS[name]
    return cls() if horizon is None else cls(horizon)


# --------------------------------------------------------------------------
# Running the workflow, untraced or traced


@dataclass
class Phase:
    """Iterations of one workload under one span store."""

    spans: Spans
    roots: list[int] = field(default_factory=list)  # span index of each iteration's root
    iterations: list[Iteration] = field(default_factory=list)
    solves: list[tuple[float, bool, bool]] = field(default_factory=list)  # (span, C*>0, cap bound)
    rows_written: int = 0
    bytes_written: int = 0
    rows_read: int = 0
    calibrations: list[float] = field(default_factory=list)  # calibration loop seconds before each iteration

    @property
    def walls(self) -> list[float]:
        arrays = self.spans.arrays()
        return [float(arrays["duration"][i]) for i in self.roots]


def _api(phase: Phase, traced: bool) -> SimpleNamespace:
    """The package entry points the workflows call, wrapped in spans.

    Untraced, only the root span and the `run` calls are recorded (one or a
    few spans per iteration) so `slots_per_s` can be timed inside `run()`.
    Traced, the names each module looks up at call time are rebound too.
    """
    s = phase.spans
    api = SimpleNamespace(
        load_config=load_config,
        run=s.wrap("engine.run", engine.run),
        cli_main=s.wrap("cli.main", cli.main) if traced else cli.main,
        read_trace=traceio.read_trace,
        replay_check=engine.replay_check,
        summarize=engine.summarize,
        run_sweep=s.wrap("sweep.run_sweep", run_sweep) if traced else run_sweep,
    )
    s.patch(cli, "run", "engine.run")
    if not traced:
        return api

    def on_solve(args, solution):
        inst = args[0]
        backlog = inst.total_backlog
        c = solution.capacity
        phase.solves.append((min(backlog, inst.capacity_cap), c > 0, c == floor_eps(inst.capacity_cap) and c < backlog))

    def on_write(args, _):
        phase.rows_written += len(args[0])
        phase.bytes_written += os.path.getsize(args[1])

    def on_read(_, trace):
        phase.rows_read += len(trace)

    api.load_config = s.wrap("config.load", load_config)
    api.read_trace = s.wrap("traceio.read", traceio.read_trace, on_read)
    api.replay_check = s.wrap("engine.replay_check", engine.replay_check)
    api.summarize = s.wrap("engine.summarize", engine.summarize)
    for name in ("distance_profile", "noise_profile", "capacity_cap_profile"):
        s.patch(engine, name, "channel.profiles")
    for name in ("update_real_queue", "update_virtual_delay", "update_virtual_power"):
        s.patch(engine, name, "queues.update")
    s.patch(engine, "ArrivalProcess", "queues.arrivals")
    s.patch(queues.ArrivalProcess, "sample_horizon", "queues.arrivals")
    s.patch(engine, "build_policy", "policies.build")
    s.patch(engine, "decide", "policies.decide")
    s.patch(policies, "solve_slot", "solver.solve", on_solve)
    s.patch(policies, "greedy_allocation", "solver.greedy")
    s.patch(sweep, "run", "engine.run")
    s.patch(sweep, "with_updates", "config.load")
    s.patch(cli, "load_config", "config.load")
    s.patch(cli, "write_trace", "traceio.write", on_write)
    s.patch(cli, "write_summary", "traceio.summary")
    return api


def run_phase(workload, seed: int, seconds: float, traced: bool, work: Path, reference_fp: str | None) -> Phase:
    """Repeat the workflow until `seconds` have passed (at least once).

    Host speed is calibrated before each iteration.  An iteration whose
    output differs from `reference_fp` counts as failed: the simulator must
    be deterministic and tracing must not change it.  An iteration that
    raises stops the phase.
    """
    phase = Phase(spans=Spans())
    api = _api(phase, traced)
    root = phase.spans.wrap("workflow", workload.iterate)
    deadline = time.perf_counter() + seconds
    try:
        with calibration.calibrator(max(1, workload.workers)) as measure_host_speed:
            while True:
                phase.calibrations.append(measure_host_speed())
                phase.roots.append(len(phase.spans.start))
                try:
                    it = root(api, seed, work, traced)
                except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                    print(f"# iteration failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                    runs = workload.runs_per_iteration
                    phase.iterations.append(Iteration(slots=0, runs=runs, failed=runs, payload=None))
                    break
                if reference_fp is not None and workload.fingerprint(it.payload) != reference_fp:
                    it.failed = it.runs
                phase.iterations.append(it)
                if time.perf_counter() >= deadline:
                    break
    finally:
        phase.spans.restore()
    return phase


# --------------------------------------------------------------------------
# Correctness gate and simulated-statistics record


@contextlib.contextmanager
def _capturing(store: list):
    """Collect every SlotInstance the policies hand to the solver."""
    solve, greedy = policies.solve_slot, policies.greedy_allocation

    def capture_solve(inst):
        store.append(inst)
        return solve(inst)

    def capture_greedy(capacity, inst):
        store.append(inst)
        return greedy(capacity, inst)

    policies.solve_slot, policies.greedy_allocation = capture_solve, capture_greedy
    try:
        yield
    finally:
        policies.solve_slot, policies.greedy_allocation = solve, greedy


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _summary_bits(summary) -> str:
    # repr of a float is its shortest round-trip form: equal strings mean equal bits.
    return repr(dataclasses.astuple(summary))


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _summary_record(summary, summary_path: Path) -> dict:
    return {
        "pbar": summary.avg_power,
        "mean_wbar": float(np.mean(summary.avg_delay)),
        "drops": int(sum(summary.total_drops)),
        "summary_sha256": _sha256(summary_path),
    }


def _oracle_check(instances: list) -> None:
    if not instances:
        raise AssertionError("no SlotInstance was captured")
    step = max(1, len(instances) // ORACLE_SAMPLE)
    for inst in instances[::step][:ORACLE_SAMPLE]:
        fast = solve_slot(inst).objective
        slow = brute_force_slot(inst).objective
        gap = abs(fast - slow) / max(1.0, abs(slow))
        _require(gap <= ORACLE_RTOL, f"solve_slot objective {fast!r} vs brute force {slow!r} on {inst}")


def run_gate(workload, seed: int, warm, work: Path) -> tuple[list[tuple[str, bool, str]], list]:
    """Re-run the workload's gate cells with a recorded trace and check the outputs.

    Every check is one operation.  Returns the checks and the summaries of
    the gate runs.
    """
    checks: list[tuple[str, bool, str]] = []
    summaries = []

    def check(name, fn):
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - a failed check is reported, not raised
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            checks.append((name, True, ""))

    for config, policy in workload.gate_cells(seed):
        label = f"{policy}/omega={config.omega}"
        instances: list = []
        try:
            with _capturing(instances):
                trace, summary = engine.run(config, policy=policy, record_trace=True)
        except Exception as exc:  # noqa: BLE001 - the remaining cells are still checked
            checks.append((f"gate_run[{label}]", False, f"{type(exc).__name__}: {exc}"))
            continue
        summaries.append(summary)
        first, second = work / "gate_trace.csv", work / "gate_trace_again.csv"

        def round_trip():
            traceio.write_trace(trace, first)
            traceio.write_trace(traceio.read_trace(first), second)
            _require(first.read_bytes() == second.read_bytes(), "write->read->write is not byte-identical")

        def summary_bitwise():
            _require(_summary_bits(engine.summarize(trace, config)) == _summary_bits(summary), "summarize(trace) differs")

        check(f"replay_check[{label}]", lambda: engine.replay_check(trace, config))
        check(f"summarize_bitwise[{label}]", summary_bitwise)
        check(f"trace_round_trip[{label}]", round_trip)
        check(f"oracle[{label}]", lambda: _oracle_check(instances))
        for name, fn in workload.cross_checks(config, policy, summary, first, warm, work):
            check(f"{name}[{label}]", fn)
    return checks, summaries


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def decisions_changed(record: dict, reference: dict | None) -> int | None:
    """Recorded values that differ from the reference record; None when there is none."""
    if reference is None:
        return None
    changed = 0
    for key in sorted(set(record) | set(reference)):
        mine, theirs = record.get(key), reference.get(key)
        if isinstance(mine, list) and isinstance(theirs, list) and len(mine) == len(theirs):
            changed += sum(a != b for a, b in zip(mine, theirs))
        else:
            changed += mine != theirs
    return changed


# --------------------------------------------------------------------------
# Metrics


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus `workers` times its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def setup_probes(workload, seed: int, count: int) -> list[dict]:
    """Run `count` fresh interpreters through import, config and the pre-loop calls."""
    arg = json.dumps(workload.setup_spec(seed))
    results = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(SETUP_PROBE), arg], capture_output=True, text=True, timeout=120, check=True
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["module"]).resolve().is_relative_to(SRC_DIR.resolve()):
            raise RuntimeError(f"setup probe imported railsched from {result['module']}")
        results.append(result)
    return results


def end_to_end_metrics(workload, phase: Phase, setups: list[dict], rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics, plus the raw (unscaled) medians behind the timed ones."""
    arrays = phase.spans.arrays()
    walls = phase.walls
    run_id = phase.spans.id_of("engine.run")
    per_iter_run_s = _per_root_sum(arrays, phase.roots, run_id)
    rates = []
    for it, wall, run_s in zip(phase.iterations, walls, per_iter_run_s):
        # A sweep's cells run in worker processes: its rate is slots over the sweep's wall time.
        rates.append(it.slots / (wall if workload.workers else run_s))
    speed = [calibration.REFERENCE_S / c for c in phase.calibrations]
    metrics = {
        "wall_s": statistics.median(w * f for w, f in zip(walls, speed)),
        "slots_per_s": statistics.median(r / f for r, f in zip(rates, speed)),
        "setup_s": statistics.median(s["total"] for s in setups),
        "peak_rss_mb": rss_mb,
    }
    raw = {
        "wall_s": statistics.median(walls),
        "slots_per_s": statistics.median(rates),
        "calibration_s": statistics.median(phase.calibrations),
    }
    return metrics, raw


def _per_root_sum(arrays: dict, roots: list[int], name_id: int | None) -> list[float]:
    """Sum of the durations of spans named `name_id` inside each root span."""
    if name_id is None:
        return [0.0] * len(roots)
    index = np.arange(len(arrays["name_id"]))
    owner = np.searchsorted(np.asarray(roots), index, side="right") - 1
    mask = arrays["name_id"] == name_id
    sums = np.bincount(owner[mask], weights=arrays["duration"][mask], minlength=len(roots))
    return [float(v) for v in sums[: len(roots)]]


def layer_metrics(workload, traced: Phase, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics from the traced phase, plus self time per span name (ms per iteration)."""
    a = traced.spans.arrays()
    ids = {name: traced.spans.id_of(name) for name in traced.spans.names}
    n_iter = len(traced.roots)
    slots = sum(it.slots for it in traced.iterations)

    def mask(name):
        return a["name_id"] == ids[name] if name in ids else np.zeros(len(a["name_id"]), bool)

    def count(name):
        return int(mask(name).sum())

    def total(name, col="duration"):
        return float(a[col][mask(name)].sum())

    def per(name, denom, col="duration"):
        return total(name, col) / denom if denom else 0.0

    runs = count("engine.run")
    solve_durations = a["duration"][mask("solver.solve")]
    solves = traced.solves
    traced_wall = statistics.median(traced.walls)

    cli_mask = mask("cli.main")
    cli_children = np.isin(a["parent"], np.flatnonzero(cli_mask)) & (
        mask("engine.run") | mask("traceio.write") | mask("traceio.summary")
    )
    cell_mask = mask("engine.run") & np.isin(a["parent"], np.flatnonzero(mask("sweep.run_sweep")))
    cells = a["duration"][cell_mask]

    metrics = {
        "channel.profiles_ms": 1e3 * per("channel.profiles", runs),
        "config.load_ms": 1e3 * per("config.load", count("config.load")),
        "queues.arrivals_ms": 1e3 * per("queues.arrivals", runs),
        "queues.update_us": 1e6 * per("queues.update", slots),
        "solver.calls": count("solver.solve") / n_iter,
        "solver.solve_us_p50": 1e6 * float(np.percentile(solve_durations, 50)) if len(solve_durations) else 0.0,
        "solver.solve_us_p99": 1e6 * float(np.percentile(solve_durations, 99)) if len(solve_durations) else 0.0,
        "solver.greedy_calls": count("solver.greedy") / n_iter,
        "solver.span_mean": float(np.mean([s[0] for s in solves])) if solves else 0.0,
        "solver.nonzero_frac": sum(s[1] for s in solves) / len(solves) if solves else 0.0,
        "policies.build_ms": 1e3 * per("policies.build", count("policies.build")),
        "policies.decide_self_us": 1e6 * per("policies.decide", count("policies.decide"), "self_time"),
        "policies.cap_bound_frac": sum(s[2] for s in solves) / len(solves) if solves else 0.0,
        "engine.run_self_us_per_slot": 1e6 * per("engine.run", slots, "self_time"),
        "engine.replay_check_ms": 1e3 * per("engine.replay_check", count("engine.replay_check")),
        "engine.summarize_ms": 1e3 * per("engine.summarize", count("engine.summarize")),
        "traceio.write_us_per_row": 1e6 * per("traceio.write", traced.rows_written),
        "traceio.read_us_per_row": 1e6 * per("traceio.read", traced.rows_read),
        "traceio.bytes_per_row": traced.bytes_written / traced.rows_written if traced.rows_written else 0.0,
        "cli.overhead_ms": 1e3
        * ((total("cli.main") - float(a["duration"][cli_children].sum())) / count("cli.main") if cli_mask.any() else 0.0),
        "sweep.cells": len(cells) / n_iter,
        "sweep.cell_s_p50": float(np.median(cells)) if len(cells) else 0.0,
        "sweep.cell_s_max": float(cells.max()) if len(cells) else 0.0,
        "sweep.parallel_efficiency": float(cells.sum()) / n_iter / (workload.workers * untraced_wall)
        if len(cells)
        else 0.0,
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.glue_frac": total("workflow", "self_time") / total("workflow"),
    }
    self_ms = {
        name: 1e3 * float(a["self_time"][a["name_id"] == i].sum()) / n_iter for name, i in ids.items()
    }
    return metrics, self_ms


def bypass_checks(workload, metrics: dict, traced: Phase) -> list[tuple[str, bool, str]]:
    """Assert the layers each workload is predicted to bypass are really bypassed."""
    expected = []
    if workload.name == "static-trace":
        expected.append(("bypass:solver.calls==0", metrics["solver.calls"] == 0))
    if workload.name == "proposed-slack":
        expected.append((f"bypass:solver.calls=={workload.horizon}", metrics["solver.calls"] == workload.horizon))
    if workload.name in ("proposed-slack", "sweep-binding"):
        name_ids = traced.spans.arrays()["name_id"]
        io_ids = [traced.spans.id_of(n) for n in ("traceio.write", "traceio.read", "traceio.summary")]
        io_calls = int(np.isin(name_ids, [i for i in io_ids if i is not None]).sum())
        expected.append(("bypass:no traceio call", io_calls == 0))
    return [(name, ok, "" if ok else "the workload no longer isolates its layer") for name, ok in expected]


# --------------------------------------------------------------------------
# Provenance


def provenance(seed: int, root: Path) -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    git_sha, dirty = "unknown (not a git checkout)", None
    if (root / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=30, check=True
            ).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(root), "status", "--porcelain"], capture_output=True, text=True, env=env, timeout=30, check=True
            ).stdout
            dirty = bool(status.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "railsched": railsched.__version__,
        "git_sha": git_sha,
        "git_dirty": dirty,
        "seed": seed,
        "note": "CPUs are not pinned and no machine setting was changed; host times include other tenants' load",
    }
