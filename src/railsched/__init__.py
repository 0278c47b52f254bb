"""Slotted-time downlink scheduling to a receiver moving along a rail line.

Per-slot joint power control and integer packet allocation driven by
virtual-queue drift, with static and dynamic power-allocation baselines,
a deterministic simulation engine, and an experiment harness.
"""

from .channel import (
    Geometry,
    RadioParams,
    capacity_cap,
    distance_at,
    link_capacity,
    noise_equiv,
    power_for_capacity,
)
from .config import ConfigError, ScenarioConfig, default_config, load_config, with_updates
from .engine import PacketDelayTracker, SimSummary, Trace, audit_decisions, replay_check, run, summarize
from .policies import Policy, build_policy, cpa_profile, decide, wfpa_profile
from .queues import (
    ArrivalProcess,
    SystemState,
    TrafficParams,
    update_real_queue,
    update_virtual_delay,
    update_virtual_power,
)
from .solver import (
    SlotInstance,
    SlotSolution,
    brute_force_slot,
    greedy_allocation,
    m1_value,
    m2_value,
    objective_value,
    solve_slot,
)
from .sweep import SweepSpec, SweepTable, emit_plotdata, run_sweep

__version__ = "0.1.0"
