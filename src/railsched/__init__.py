"""Slotted-time downlink scheduling to a receiver moving along a rail line.

Per-slot joint power control and integer packet allocation driven by
virtual-queue drift, with static and dynamic power-allocation baselines,
a deterministic simulation engine, and an experiment harness.

The root holds the workflow a user scripts against: build a config, run
it, check the run, sweep it.  Everything else lives in its submodule
(`channel`, `queues`, `solver`, `policies`, ...).
"""

from .config import ConfigError, default_config, load_config, with_updates
from .engine import audit_decisions, replay_check, run, summarize
from .sweep import SweepSpec, run_sweep

__version__ = "0.1.0"
