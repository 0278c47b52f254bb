"""The package surface: the root's names, the names the benchmark harness and the scripts take, and the `_` names modules share.

A rename of any of them breaks `bench/`; `bench/smoke.py` notices only
through a slow subprocess, these checks in process.
"""

import ast
import importlib
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
PRIVATE_IMPORTS = {("sweep", "traceio", "_fmt"), ("sweep", "traceio", "_named_decode_errors")}


def test_private_names_shared_between_modules():
    package = Path(railsched.__file__).parent
    shared = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                shared |= {(path.stem, node.module, alias.name) for alias in node.names if alias.name.startswith("_")}
    assert shared == PRIVATE_IMPORTS
