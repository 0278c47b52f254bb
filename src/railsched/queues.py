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
# (Poisson additivity).  One table per rate would fail above a rate of about
# 745, where math.exp(-rate) underflows to 0: `_cdf_table` is then [1.0] and
# every draw 0.  Any chunk rate below that is exact, but changing this one
# changes the draws of every seeded run above it.
_CHUNK_RATE = 30.0

# Equal bins of [0, 1) in each rate's guide table; a power of two.
_GUIDE_BINS = 4096


@dataclass(frozen=True)
class TrafficParams:
    """Arrival and constraint constants for the K services."""

    arrival_rates: tuple[float, ...]  # lambda_k, packets/slot
    delay_bounds: tuple[float, ...]  # W_k, slots of allowed average delay
    avg_power: float  # average-power budget, W
    buffer_cap: int  # per-service backlog cap, packets

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
    """Poisson CDF values F(0), F(1), ... built with the plain term recurrence.

    The table ends where the running sum stops growing, which for many
    rates is short of the largest uniform draw 1 - 2**-53; its last entry
    is set to 1.0, so every draw lands in the table.
    """
    term = total = math.exp(-rate)
    table = [total]
    k = 0
    while True:
        k += 1
        term *= rate / k
        if total + term == total:
            break
        total += term
        table.append(total)
    table[-1] = 1.0
    return table


def _guide(rate: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk rate's CDF table, and for each of the `_GUIDE_BINS` bins of [0, 1) its guide.

    A draw u in bin b inverts to the smallest k with u <= F(k).  That k is at
    least low[b], the smallest k with F(k) >= b / bins, and it is low[b]
    unless some F(k) lies inside the bin, which `step[b]` marks; only those
    draws need a search.  low's dtype is the smallest that holds the table's
    length.
    """
    table = np.array(_cdf_table(rate))
    edges = np.searchsorted(table, np.arange(_GUIDE_BINS + 1) / _GUIDE_BINS, side="left")
    return table, edges[:-1].astype(np.min_scalar_type(len(table))), edges[1:] != edges[:-1]


class ArrivalProcess:
    """Seeded Poisson arrival streams, one independent substream per service.

    Draws use CDF inversion, one uniform per draw, through a guide table
    (indexed search: Chen & Asau, AIIE Transactions 6(2), 1974; Devroye,
    Non-Uniform Random Variate Generation, 1986, III.2.4): a draw's bin
    gives its count directly unless a CDF step falls inside the bin, and
    only those draws are binary-searched.  The counts are those of a plain
    search of the table, so sequences are bit-identical across platforms.
    """

    def __init__(self, rates: tuple[float, ...], master_seed: int):
        self.rates = tuple(float(r) for r in rates)
        self._streams = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=int(master_seed), spawn_key=(k,))))
            for k in range(len(self.rates))
        ]
        # (chunks per slot, the chunk rate's guide) per service; one guide per distinct chunk rate.
        guides: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._chunks: list[tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray] | None]] = []
        for rate in self.rates:
            n_chunks = math.ceil(rate / _CHUNK_RATE)
            if n_chunks and rate / n_chunks not in guides:
                guides[rate / n_chunks] = _guide(rate / n_chunks)
            self._chunks.append((n_chunks, guides[rate / n_chunks] if n_chunks else None))

    def sample_horizon(self, num_slots: int) -> np.ndarray:
        """Arrival counts for slots 0..num_slots-1, shape (num_slots, K).

        Each service inverts one block of uniforms from its own stream, one
        uniform per chunk per slot, in slot order.  Scaling a uniform by the
        bin count, a power of two, and back is exact.
        """
        out = np.zeros((num_slots, len(self.rates)), dtype=np.int64)
        for k, ((n_chunks, guide), stream) in enumerate(zip(self._chunks, self._streams)):
            if n_chunks == 0:
                continue
            table, low, step = guide
            scaled = stream.random(num_slots * n_chunks)
            scaled *= _GUIDE_BINS
            bins = scaled.astype(np.intp)
            counts = low[bins]
            search = step[bins]
            counts[search] = np.searchsorted(table, scaled[search] / _GUIDE_BINS, side="left")
            out[:, k] = counts if n_chunks == 1 else counts.reshape(num_slots, n_chunks).sum(axis=1)
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


def update_virtual_delay(state: SystemState, params: TrafficParams) -> None:
    """X_k <- max(X_k - W_k * lambda_k, 0) + Q_k, with Q_k already advanced."""
    state.virtual_delay[:] = [
        (x - d if x > d else 0.0) + q for x, d, q in zip(state.virtual_delay, params.delay_drains, state.queues)
    ]


def update_virtual_power(state: SystemState, power: float, params: TrafficParams) -> None:
    """Y <- max(Y - avg_power, 0) + power."""
    if not power >= 0.0:
        raise ValueError("power must be non-negative")
    y, drain = state.virtual_power, params.avg_power
    state.virtual_power = (y - drain if y > drain else 0.0) + power
