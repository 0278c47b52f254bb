"""The package surface: the root's names, the names the benchmark harness and the scripts take, and the `_` names modules share.

A rename of any of them breaks `bench/`; `bench/smoke.py` notices only
through a slow subprocess, these checks in process.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from operator import attrgetter
from pathlib import Path

import pytest

import railsched

# The workflow a user scripts against: build a config, run it, check the run, sweep it.
ROOT_NAMES = {
    "ConfigError",
    "default_config",
    "load_config",
    "with_updates",
    "run",
    "summarize",
    "replay_check",
    "audit_decisions",
    "SweepSpec",
    "run_sweep",
    "__version__",
}

# Imported at load by bench/harness.py, bench/setup_probe.py and scripts/.
IMPORTED = {
    "railsched": ("with_updates", "__version__", "load_config", "default_config"),
    "railsched.channel": ("floor_eps", "capacity_cap_profile", "distance_profile", "noise_profile"),
    "railsched.config": ("load_config",),
    "railsched.policies": ("build_policy",),
    "railsched.queues": ("ArrivalProcess",),
    "railsched.solver": ("brute_force_slot", "solve_slot"),
    "railsched.sweep": ("SweepSpec", "run_sweep", "write_sweep"),
}

# Rebound or called by bench/harness.py, looked up at call time.
REBOUND = {
    "railsched.engine": (
        "decide",
        "build_policy",
        "distance_profile",
        "noise_profile",
        "capacity_cap_profile",
        "ArrivalProcess",
        "update_real_queue",
        "update_virtual_delay",
        "update_virtual_power",
        "run",
        "replay_check",
        "summarize",
    ),
    "railsched.policies": ("solve_slot", "greedy_allocation"),
    "railsched.sweep": ("run", "with_updates"),
    "railsched.cli": ("main", "run", "load_config", "write_trace", "write_summary"),
    "railsched.traceio": ("read_trace",),
    "railsched.queues": ("ArrivalProcess.sample_horizon",),
}


def test_root_holds_only_the_workflow():
    public = {name for name, value in vars(railsched).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public | {"__version__"} == ROOT_NAMES
    assert isinstance(railsched.__version__, str)


@pytest.mark.parametrize(
    "module, names",
    [pytest.param(module, names, id=f"{module}-{kind}") for kind, table in (("imported", IMPORTED), ("rebound", REBOUND)) for module, names in table.items()],
)
def test_harness_and_script_names_resolve(module, names):
    loaded = importlib.import_module(module)
    for name in names:
        attrgetter(name)(loaded)


# The `_` helpers one package module takes from another, as (importer, source, name).
PRIVATE_IMPORTS = {("sweep", "traceio", "_fmt"), ("sweep", "traceio", "_named_decode_errors"), ("traceio", "engine", "_CHUNK_ROWS")}


def test_private_names_shared_between_modules():
    package = Path(railsched.__file__).parent
    shared = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                shared |= {(path.stem, node.module, alias.name) for alias in node.names if alias.name.startswith("_")}
    assert shared == PRIVATE_IMPORTS


# A user's whole workflow in a fresh interpreter: runs, a trace round trip
# and a two-worker sweep, after which numpy's random module must still be
# unloaded (its import costs 2-6 MB of resident memory).
WORKFLOW = """
import sys, tempfile
from pathlib import Path
import railsched
from railsched.traceio import read_trace, write_trace
config = railsched.load_config(None, horizon=300)
railsched.run(config, "proposed")
static_trace, _ = railsched.run(config, "wfpa-static")
with tempfile.TemporaryDirectory() as tmp:
    write_trace(static_trace, Path(tmp) / "trace.csv")
    read_trace(Path(tmp) / "trace.csv")
table = railsched.run_sweep(railsched.SweepSpec("omega", (1.0, 2.0), ("proposed", "wfpa-static")), config, workers=2)
assert not table.failures, table.failures
print(sorted(name for name in sys.modules if name.startswith("numpy.random")))
"""


def test_workflow_never_imports_numpy_random():
    src = str(Path(railsched.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", WORKFLOW], env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
