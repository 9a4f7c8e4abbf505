"""Deterministic counter-based random numbers for slot simulations.

Every random decision in a run is a pure function of (master seed, stream
tag, counter), so results are identical regardless of chunk size or slot
order within a chunk.  The mixer is splitmix64, one finalizer (`_mix`)
for seeds and variates alike; one finalizer call per variate is plenty
for Monte Carlo (counter-based streams: Salmon et al., SC'11).
`SlotRng.raw_at` is the one entry point for every variate.

Rare events are drawn as candidates rather than slot by slot (thinning
after Lewis & Shedler, 1979): `bernoulli_hits` gives the slots that a
Bernoulli(2^-k) process hits, walking aligned sub-blocks of 2^k slots by
geometric gaps, so a stretch of slots costs about two draws per 2^k
slots instead of one per slot.  Each detector stream has one such
process per level k (`SlotRng.level`); `detector.simulate_block` tests
the candidates of the level of each slot's escape probability.  A
level's streams are walked together: a stream's counter c is counter
c + delta of any other stream, for a fixed shift delta (golden is odd,
so it has an inverse modulo 2^64), so one draw per round serves them all
and every stream draws what it would draw alone.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_GOLDEN_INV = pow(0x9E3779B97F4A7C15, -1, 1 << 64)  # golden * _GOLDEN_INV == 1 (mod 2^64)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_INV_2_53 = 1.0 / (1 << 53)
_MASK = (1 << 64) - 1

# The highest dyadic level: a level-k sub-block holds 2^k slots, and with
# slots below 2^62 a walk through the last one stays within int64.
MAX_LEVEL = 61
# log(1 - 2^-k), the log of a level-k slot's miss probability.
_LOG_MISS = (-math.inf, *(math.log1p(-(2.0 ** -k)) for k in range(1, MAX_LEVEL + 1)))


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on the uint64 array `z` (0-d
    included), which it returns.  Array arithmetic wraps modulo 2^64
    without a warning; one temp array holds the shifted halves."""
    t = np.empty_like(z)
    np.right_shift(z, _U64(30), out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


def _mix_int(z: int) -> int:
    """`_mix` of one Python int in [0, 2^64): no numpy call, so a seed
    costs microseconds."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, tag: str, index: int = 0) -> int:
    """Stable 64-bit stream seed from a master seed, a label, and an index."""
    h = 0xCBF29CE484222325  # FNV-1a over the tag bytes
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    z = _mix_int((master & _MASK) ^ h)
    return _mix_int((z + ((index & _MASK) + 1) * 0x9E3779B97F4A7C15) & _MASK)


def child_seed(master: int, index: int) -> int:
    """Per-run seed for sweep entry `index`, derived from the base seed."""
    return derive_seed(master, "sweep-run", index)


class SlotRng:
    """Random-access uniform variates indexed by slot (or cycle) number.

    A stream is addressed by its seed; `uniform_at(idx)` returns the same
    value for the same index no matter how calls are batched.  `raw_at(k)`
    equals the (k+1)-th output of the reference splitmix64 generator
    seeded with this stream's seed.
    """

    __slots__ = ("seed", "_offset", "_levels")

    def __init__(self, seed: int):
        self.seed = int(seed)
        # (index + 1) * golden + seed == index * golden + _offset (mod 2^64)
        self._offset = _U64((seed + int(_GOLDEN)) & _MASK)
        self._levels = {}  # k -> the level-k stream, derived once

    def raw_at(self, index):
        """Raw 64-bit variates at `index` (integers, negative ones modulo
        2^64), as a uint64 array of its shape."""
        z = np.asarray(index).astype(np.uint64)
        z *= _GOLDEN
        z += self._offset
        return _mix(z)

    def level(self, k: int) -> "SlotRng":
        """The stream of this stream's level-k candidate gaps (see
        `bernoulli_hits`), derived on first use."""
        stream = self._levels.get(k)
        if stream is None:
            stream = self._levels[k] = SlotRng(derive_seed(self.seed, "candidates", k))
        return stream

    def uniform_at(self, index):
        """Uniform float64 in [0, 1) for each requested index."""
        z = self.raw_at(index)
        z >>= _U64(11)
        u = z.astype(np.float64)
        u *= _INV_2_53
        return u

    def bit_at(self, index):
        """Uniform bit (uint8) for each requested index."""
        z = self.raw_at(index)
        z >>= _U64(63)
        return z.astype(np.uint8)


def bernoulli_hits(streams, k: int, blocks, cap: int) -> list:
    """Each stream's hits: the slots, sorted, that a Bernoulli(2^-k)
    process hits in the aligned sub-blocks `blocks[i]` (sorted, distinct)
    of 2^k slots, on the level-k stream `streams[i]` (`SlotRng.level`),
    0 < k <= MAX_LEVEL; sub-block b holds the slots [b 2^k, (b + 1) 2^k).

    Each sub-block is walked by geometric gaps: draw j of sub-block b is
    the uniform u at counter b (2^k + 1) + j, its gap
    floor(log(1 - u) / log(1 - 2^-k)) slots are passed over, and the slot
    after them is hit while it lies in the sub-block.  A sub-block takes
    at most 2^k + 1 draws, so no two sub-blocks share a counter.  Each
    round draws once for every sub-block whose walk has not yet left it.

    The streams share round loops of at most `cap` sub-blocks, so no array
    exceeds `cap`: a loop takes whole streams while they fit, and a stream
    is split only where it alone is longer.  raw_at(c) is
    mix(c golden + offset), so counter c of stream i is counter
    c + delta_i of the loop's first stream s, delta_i = (offset_i -
    offset_s) golden^-1 modulo 2^64: one `uniform_at` of s per round draws
    for every stream of the loop, and each draw is the one its own stream
    gives.
    """
    size = 1 << k
    loops, room = [], 0  # each loop's parts (stream, first, stop), and what it has left
    for i, b in enumerate(blocks):
        for first in range(0, len(b), cap):
            stop = min(first + cap, len(b))
            if stop - first > room:
                loops.append([])
                room = cap
            loops[-1].append((i, first, stop))
            room -= stop - first
    found = [[b[:0]] for b in blocks]
    for parts in loops:
        stream = streams[parts[0][0]]
        batch = np.concatenate([blocks[i][first:stop] for i, first, stop in parts])
        bounds = np.cumsum([0, *(stop - first for _, first, stop in parts)])
        counter = (batch * (size + 1)).view(np.uint64)
        for (i, _, _), x, y in zip(parts[1:], bounds[1:-1].tolist(), bounds[2:].tolist()):
            counter[x:y] += _U64((int(streams[i]._offset) - int(stream._offset)) * _GOLDEN_INV
                                 & _MASK)
        slot = (batch << k) - 1  # the slot before the next gap
        end = slot + (size + 1)
        while len(counter):
            gap = np.log1p(-stream.uniform_at(counter))
            gap /= _LOG_MISS[k]
            np.minimum(gap, size, out=gap)  # >= 0, so the cast floors it
            slot = slot + gap.astype(np.int64)
            slot += 1
            inside = np.flatnonzero(slot < end)
            counter, slot, end = counter[inside], slot[inside], end[inside]
            counter += 1
            if len(parts) == 1:
                found[parts[0][0]].append(slot)
                continue
            bounds = np.searchsorted(inside, bounds)
            for (i, _, _), x, y in zip(parts, bounds[:-1].tolist(), bounds[1:].tolist()):
                found[i].append(slot[x:y])
    return [np.sort(np.concatenate(f)) for f in found]


class RunStreams:
    """The named random streams a scenario run draws from."""

    __slots__ = ("alice", "flip", "detectors", "cycles", "eve")

    def __init__(self, master_seed: int):
        self.alice = SlotRng(derive_seed(master_seed, "alice"))
        self.flip = SlotRng(derive_seed(master_seed, "phase-flip"))
        self.detectors = tuple(
            SlotRng(derive_seed(master_seed, "detector", i)) for i in range(1, 5)
        )
        self.cycles = SlotRng(derive_seed(master_seed, "attack-cycle"))
        self.eve = SlotRng(derive_seed(master_seed, "eve"))
