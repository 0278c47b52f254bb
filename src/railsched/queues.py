"""Poisson packet arrivals, real per-service queues, and the two virtual queues.

The real queue of service k evolves as

    Q_k(t+1) = min(Q_k(t) - mu_k(t) + A_k(t), buffer_cap)

and two virtual accumulators turn the long-run constraints into queue
stability: X_k gains the fresh backlog Q_k(t+1) each slot and drains by the
delay budget W_k * lambda_k, Y gains the spent power and drains by the
average-power budget.  Keeping X and Y from growing linearly is exactly what
keeps average delay below W_k and average power below the budget.

The updates work on plain Python lists and floats, one slot at a time.

Arrivals are drawn from one PCG64 stream per service (M. E. O'Neill, "PCG:
A Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905, 2014), seeded by numpy's
`SeedSequence` hash, in this package rather than through numpy's random
module: each stream yields the doubles of numpy's
`Generator(PCG64(SeedSequence(seed, spawn_key=(k,)))).random`, bit for bit,
so the traces do not depend on numpy's generator code, and that module's
import (with `secrets`, `hashlib` and OpenSSL) is never paid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# Rates above this are split into equal chunks and the chunk draws summed
# (Poisson additivity).  One table per rate would fail above a rate of about
# 745, where math.exp(-rate) underflows to 0: `_cdf_table` is then [1.0] and
# every draw 0.  Any chunk rate below that is exact, but changing this one
# changes the draws of every seeded run above it.
_CHUNK_RATE = 30.0

# Equal bins of [0, 1) in each rate's guide table; a power of two.
_GUIDE_BINS = 4096

# PCG64's 128-bit LCG multiplier, and the draws one vectorized step advances a stream.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_BLOCK = 4096
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants (its bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# uint64 scalars for the array arithmetic, so numpy 1.x and 2.x pick the same dtypes.
_U0, _U11, _U32, _U58, _U63 = (np.uint64(n) for n in (0, 11, 32, 58, 63))
_ULOW32 = np.uint64(_MASK32)


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


def _words32(value: int) -> list[int]:
    """A non-negative int as 32-bit words, least significant first; 0 is one word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _pcg64_seed(entropy: int, key: int) -> tuple[int, int]:
    """The (state, increment) of `PCG64(SeedSequence(entropy, spawn_key=(key,)))`, in Python ints.

    SeedSequence pads the entropy's words to its pool size of 4 when a
    spawn key follows, hashes them into a 4-word pool, and draws 8 words
    from the pool: the low then high halves of four uint64s, (seed high,
    seed low, sequence high, sequence low).  PCG64 then sets inc = 2 *
    sequence + 1, steps from state 0, adds the seed, and steps again.
    """
    if entropy < 0:
        raise ValueError("expected non-negative integer")
    run = _words32(entropy)
    words = run + [0] * (4 - len(run)) + _words32(key)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    seed = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = ((out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 | 1) & _MASK128
    return ((inc + seed) * _PCG_MULT + inc) & _MASK128, inc


def _affine(x_lo: np.ndarray, x_hi: np.ndarray, y: int, add_lo, add_hi) -> tuple[np.ndarray, np.ndarray]:
    """(x * y + add) mod 2**128, with x and add as (low, high) uint64 halves and y a Python int.

    uint64 array products wrap mod 2**64, so the low half and the cross
    terms of the high half are plain products; only the carry out of
    x_lo * y_lo needs 32-bit limbs.  Every operation is array by scalar:
    a uint64 scalar product would warn on overflow.
    """
    y_lo, y_hi = np.uint64(y & _MASK64), np.uint64(y >> 64)
    y0, y1 = np.uint64(y & _MASK32), np.uint64(y >> 32 & _MASK32)
    x0, x1 = x_lo & _ULOW32, x_lo >> _U32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    hi = x1 * y1
    mid = p00 >> _U32
    mid += p01 & _ULOW32
    mid += p10 & _ULOW32
    hi += p01 >> _U32
    hi += p10 >> _U32
    hi += mid >> _U32
    hi += x_hi * y_lo
    hi += x_lo * y_hi
    hi += add_hi
    lo = x_lo * y_lo
    lo += add_lo
    hi += lo < add_lo
    return lo, hi


@cache
def _pcg_jumps() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A_i = M^i and G_i = M^0 + ... + M^(i-1) mod 2**128 for i = 1.._PCG_BLOCK, as (low, high) halves.

    i steps take state s to A_i * s + G_i * inc.  Built by doubling:
    A_(i+L) = A_L * A_i and G_(i+L) = A_L * G_i + G_L.
    """
    a_lo, a_hi = np.array([_PCG_MULT & _MASK64], np.uint64), np.array([_PCG_MULT >> 64], np.uint64)
    g_lo, g_hi = np.array([1], np.uint64), np.array([0], np.uint64)
    while a_lo.size < _PCG_BLOCK:
        a_last = int(a_hi[-1]) << 64 | int(a_lo[-1])
        next_a = _affine(a_lo, a_hi, a_last, _U0, _U0)
        next_g = _affine(g_lo, g_hi, a_last, g_lo[-1], g_hi[-1])
        a_lo, a_hi = np.concatenate((a_lo, next_a[0])), np.concatenate((a_hi, next_a[1]))
        g_lo, g_hi = np.concatenate((g_lo, next_g[0])), np.concatenate((g_hi, next_g[1]))
    for table in (a_lo, a_hi, g_lo, g_hi):
        table.setflags(write=False)  # one copy serves every stream
    return a_lo, a_hi, g_lo, g_hi


class _PCG64Stream:
    """The uniform doubles of numpy's `Generator(PCG64(SeedSequence(entropy, spawn_key=(key,))))`.

    PCG64 steps its 128-bit state s -> s * M + inc and outputs
    xsl_rr(s) = rotr64(high(s) ^ low(s), s >> 122); a double is
    (output >> 11) * 2**-53.  `random(n)` computes up to `_PCG_BLOCK`
    states at once from the block's start state s as A_i * s + G_i * inc.
    """

    def __init__(self, entropy: int, key: int):
        self._state, self._inc = _pcg64_seed(entropy, key)

    def random(self, size: int) -> np.ndarray:
        a_lo, a_hi, g_lo, g_hi = _pcg_jumps()
        out = np.empty(size)
        # G_i * inc is the same in every block.
        step = min(size, _PCG_BLOCK)
        inc_lo, inc_hi = _affine(g_lo[:step], g_hi[:step], self._inc, _U0, _U0)
        for start in range(0, size, _PCG_BLOCK):
            m = min(_PCG_BLOCK, size - start)
            lo, hi = _affine(a_lo[:m], a_hi[:m], self._state, inc_lo[:m], inc_hi[:m])
            self._state = int(hi[-1]) << 64 | int(lo[-1])
            rot = hi >> _U58
            hi ^= lo
            bits = hi >> rot
            bits |= hi << (-rot & _U63)
            bits >>= _U11
            np.multiply(bits, 2.0**-53, out=out[start : start + m])
        return out


class ArrivalProcess:
    """Seeded Poisson arrival streams, one independent substream per service.

    Draws use CDF inversion, one uniform per draw, through a guide table
    (indexed search: Chen & Asau, AIIE Transactions 6(2), 1974; Devroye,
    Non-Uniform Random Variate Generation, 1986, III.2.4): a draw's bin
    gives its count directly unless a CDF step falls inside the bin, and
    only those draws are binary-searched.  The counts are those of a plain
    search of the table, so sequences are bit-identical across platforms.

    Service k's uniforms come from a `_PCG64Stream` keyed (master_seed, k):
    numpy's `SeedSequence(master_seed, spawn_key=(k,))` hash seeds a PCG64
    generator (O'Neill 2014), computed here draw for draw without numpy's
    random module.  A negative seed is a ValueError, as in `SeedSequence`.
    """

    def __init__(self, rates: tuple[float, ...], master_seed: int):
        self.rates = tuple(float(r) for r in rates)
        self._streams = [_PCG64Stream(int(master_seed), k) for k in range(len(self.rates))]
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
