"""Poisson packet arrivals, real per-service queues, and the two virtual queues.

The real queue of service k evolves as

    Q_k(t+1) = min(Q_k(t) - mu_k(t) + A_k(t), buffer_cap)

and two virtual accumulators turn the long-run constraints into queue
stability: X_k gains the fresh backlog Q_k(t+1) each slot and drains by the
delay budget W_k * lambda_k, Y gains the spent power and drains by the
average-power budget.  Keeping X and Y from growing linearly is exactly what
keeps average delay below W_k and average power below the budget.

The updates work on plain Python lists and floats, one slot at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Rates above this are split into equal chunks and the chunk draws summed
# (Poisson additivity), keeping the sequential CDF search short and exact.
_CHUNK_RATE = 30.0

# CDF tables are extended until this much mass is covered; draws landing in
# the remaining tail fall back to continuing the term recurrence directly.
_CDF_TAIL = 1e-16


@dataclass(frozen=True)
class TrafficParams:
    """Arrival and constraint constants for the K services."""

    arrival_rates: tuple[float, ...]  # lambda_k, packets/slot
    delay_bounds: tuple[float, ...]  # W_k, slots of allowed average delay
    avg_power: float  # average-power budget, W
    buffer_cap: int = 1_000_000  # per-service backlog cap, packets

    def __post_init__(self) -> None:
        if len(self.arrival_rates) < 1:
            raise ValueError("TrafficParams needs at least one service")
        if len(self.delay_bounds) != len(self.arrival_rates):
            raise ValueError("arrival_rates and delay_bounds must have equal length")
        # Zero rates are allowed so degenerate no-traffic runs stay testable.
        # NaN fails every chained comparison, so these reject it too.
        if not all(0.0 <= rate < math.inf for rate in self.arrival_rates):
            raise ValueError(f"arrival rates must be finite and non-negative, got {self.arrival_rates}")
        if not all(0.0 < bound < math.inf for bound in self.delay_bounds):
            raise ValueError(f"delay bounds must be finite and positive, got {self.delay_bounds}")
        # A NaN or infinite budget is the config validator's to reject, by its config key.
        if self.avg_power <= 0:
            raise ValueError("avg_power must be positive")
        if self.buffer_cap <= 0:
            raise ValueError("buffer_cap must be positive")

    @property
    def num_services(self) -> int:
        return len(self.arrival_rates)

    @cached_property
    def delay_drains(self) -> tuple[float, ...]:
        """Per-slot drain W_k * lambda_k of each delay virtual queue."""
        return tuple(w * r for w, r in zip(self.delay_bounds, self.arrival_rates))


@dataclass
class SystemState:
    """Mutable per-slot state: real queues Q, virtual queues X and Y.

    The power constraint is one constraint on the shared transmitter, so
    there is one power virtual queue Y; the drift bound prices it once per
    service, which the policies fold into a price proportional to K * Y.
    """

    queues: list[int]
    virtual_delay: list[float]
    virtual_power: float

    @classmethod
    def initial(cls, num_services: int) -> "SystemState":
        return cls(queues=[0] * num_services, virtual_delay=[0.0] * num_services, virtual_power=0.0)


def _cdf_table(rate: float) -> list[float]:
    """Poisson CDF values F(0), F(1), ... built with the plain term recurrence."""
    term = math.exp(-rate)
    total = term
    table = [total]
    k = 0
    while total < 1.0 - _CDF_TAIL:
        k += 1
        term *= rate / k
        total += term
        table.append(total)
        if term == 0.0:
            break
    return table


class ArrivalProcess:
    """Seeded Poisson arrival streams, one independent substream per service.

    Draws use CDF inversion (one uniform per draw), so sequences are
    bit-identical across platforms: a table lookup covers all but the last
    1e-16 of the mass, and `_invert` continues the term recurrence past it.
    """

    def __init__(self, rates: tuple[float, ...], master_seed: int):
        self.rates = tuple(float(r) for r in rates)
        self.master_seed = int(master_seed)
        self._streams = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=self.master_seed, spawn_key=(k,))))
            for k in range(len(self.rates))
        ]
        self._chunks: list[tuple[int, float, list[float]]] = []
        for rate in self.rates:
            if rate == 0.0:
                self._chunks.append((0, 0.0, []))
                continue
            n_chunks = max(1, math.ceil(rate / _CHUNK_RATE))
            chunk_rate = rate / n_chunks
            self._chunks.append((n_chunks, chunk_rate, _cdf_table(chunk_rate)))

    def _invert(self, u: float, chunk_rate: float, table: list[float]) -> int:
        # Sequential search: smallest k with u <= F(k).  Draws beyond the
        # table continue the term recurrence directly.
        for k, total in enumerate(table):
            if u <= total:
                return k
        k = len(table) - 1
        term = table[-1] - (table[-2] if len(table) > 1 else 0.0)
        total = table[-1]
        while u > total:
            k += 1
            term *= chunk_rate / k
            total += term
        return k

    def sample_horizon(self, num_slots: int) -> np.ndarray:
        """Arrival counts for slots 0..num_slots-1, shape (num_slots, K).

        Each service inverts one block of uniforms from its own stream, one
        uniform per chunk per slot, in slot order.
        """
        out = np.zeros((num_slots, len(self.rates)), dtype=np.int64)
        for k, ((n_chunks, chunk_rate, table), stream) in enumerate(zip(self._chunks, self._streams)):
            if n_chunks == 0:
                continue
            u = stream.random(num_slots * n_chunks)
            cdf = np.asarray(table)
            idx = np.searchsorted(cdf, u, side="left")
            overflow = np.flatnonzero(idx == len(table))
            for j in overflow:
                idx[j] = self._invert(u[j], chunk_rate, table)
            out[:, k] = idx.reshape(num_slots, n_chunks).sum(axis=1)
        return out


def update_real_queue(state: SystemState, allocation, arrivals: list[int], params: TrafficParams) -> list[int]:
    """Apply one slot of service and arrivals to the real queues; return the per-service drops.

    Overflow beyond `buffer_cap` is returned as drops, never silently
    discarded.  Serving more than the current backlog is a caller bug and
    raises before any queue changes.
    """
    cap = params.buffer_cap
    queues = state.queues
    nxt: list[int] = []
    drops: list[int] = []
    for q, mu, a in zip(queues, allocation, arrivals):
        if not 0 <= mu <= q:
            k = len(nxt)
            raise ValueError(f"allocation[{k}]={mu} outside [0, Q_{k}={q}]")
        n = q - mu + a
        if n > cap:
            drops.append(n - cap)
            n = cap
        else:
            drops.append(0)
        nxt.append(n)
    queues[:] = nxt
    return drops


def update_virtual_delay(state: SystemState, params: TrafficParams) -> SystemState:
    """X_k <- max(X_k - W_k * lambda_k, 0) + Q_k, with Q_k already advanced."""
    state.virtual_delay[:] = [
        (x - d if x > d else 0.0) + q for x, d, q in zip(state.virtual_delay, params.delay_drains, state.queues)
    ]
    return state


def update_virtual_power(state: SystemState, power: float, params: TrafficParams) -> SystemState:
    """Y <- max(Y - avg_power, 0) + power."""
    if not power >= 0.0:
        raise ValueError("power must be non-negative")
    y, drain = state.virtual_power, params.avg_power
    state.virtual_power = (y - drain if y > drain else 0.0) + power
    return state
