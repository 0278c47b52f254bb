"""Time one fresh interpreter's path to the first simulated slot.

Run as `python3 bench/setup_probe.py '<json>'`, where the JSON holds the
`load_config` overrides and optional `with_updates` fields of a workload's
first run.  The probe repeats, call for call, what `railsched.run` does
before its slot loop (channel profiles, `build_policy`, arrival sampling),
times each call, and prints one JSON line of seconds.  The clock starts
before `import railsched`, so the import is part of the total.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    times = {}

    t = time.perf_counter()
    import railsched
    from railsched.channel import capacity_cap_profile, distance_profile, noise_profile
    from railsched.policies import build_policy
    from railsched.queues import ArrivalProcess

    times["import"] = time.perf_counter() - t

    t = time.perf_counter()
    config = railsched.load_config(None, **spec["overrides"])
    if spec.get("updates"):
        config = railsched.with_updates(config, **spec["updates"])
    times["config"] = time.perf_counter() - t

    geom, radio, traffic = config.geometry, config.radio, config.traffic
    t = time.perf_counter()
    distances = distance_profile(config.horizon, geom)
    noises = noise_profile(distances, radio)
    capacity_cap_profile(noises, radio.max_power, radio.eta)
    times["profiles"] = time.perf_counter() - t

    t = time.perf_counter()
    build_policy(config.policy, traffic.avg_power, radio.max_power, noises)
    times["build_policy"] = time.perf_counter() - t

    t = time.perf_counter()
    ArrivalProcess(traffic.arrival_rates, config.seed).sample_horizon(config.horizon)
    times["arrivals"] = time.perf_counter() - t

    times["total"] = time.perf_counter() - T0
    times["module"] = railsched.__file__
    print(json.dumps(times))


if __name__ == "__main__":
    main()
