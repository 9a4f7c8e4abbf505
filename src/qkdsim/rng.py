"""Deterministic counter-based random numbers for slot simulations.

Every random decision in a run is a pure function of (master seed, stream
tag, counter), so results are identical regardless of chunk size, slot
order within a chunk, or how many worker threads a sweep uses.  The mixer
is splitmix64; one finalizer call per variate is plenty for Monte Carlo.
Slot k's counter is k * golden + offset (mod 2^64), so the counters of a
contiguous range are a ramp of multiples of golden plus one constant,
and a range is hashed without building its slot indices (counter-based
streams: Salmon et al., SC'11).
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_INV_2_53 = 1.0 / (1 << 53)


def mix64(x):
    """splitmix64 finalizer; accepts a uint64 scalar or array.

    Multiplication wraps modulo 2^64 by design.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64)
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def derive_seed(master: int, tag: str, index: int = 0) -> int:
    """Stable 64-bit stream seed from a master seed, a label, and an index."""
    h = 0xCBF29CE484222325  # FNV-1a over the tag bytes
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    with np.errstate(over="ignore"):
        z = mix64(_U64(master & 0xFFFFFFFFFFFFFFFF) ^ _U64(h))
        z = mix64(z + (_U64(index & 0xFFFFFFFFFFFFFFFF) + _U64(1)) * _GOLDEN)
    return int(z)


def child_seed(master: int, index: int) -> int:
    """Per-run seed for sweep entry `index`, derived from the base seed."""
    return derive_seed(master, "sweep-run", index)


def raw_limit(p):
    """Largest raw variate whose uniform variate can lie below `p`, per entry.

    `uniform_at` maps raw r to (r >> 11) / 2**53, so for p > 0, uniform < p
    exactly when r < ceil(p * 2**53) << 11, i.e. r <= raw_limit(p), which
    stays within 64 bits at p = 1.  For p = 0 it keeps raw values < 2**11.
    """
    k = np.maximum(np.ceil(np.asarray(p, dtype=np.float64) * 2.0**53), 1.0)
    return ((k.astype(np.uint64) - _U64(1)) << _U64(11)) | _U64(2047)


# `per_range` loops over ranges that average at least this many
# positions, and otherwise repeats the range values to full length, a
# per-position temporary: a loop step costs about 1.3 us per range, the
# repeated values about 0.35 ns per position.  Measured for np.add on
# uint64 and np.less_equal at 4,096-131,072 positions in 1-16 ranges,
# the loop wins from 2^13 to 2^14 positions per range on.
_LOOP_RANGE_LEN = 1 << 13


def per_range(ufunc, a: np.ndarray, values: np.ndarray, lengths: np.ndarray, out):
    """ufunc(a, values[i]) into `out` at the lengths[i] positions of range
    i, the ranges laid end to end (lengths >= 0)."""
    busy = np.flatnonzero(lengths)
    if len(a) < _LOOP_RANGE_LEN * len(busy):
        return ufunc(a, np.repeat(values, lengths), out=out)
    stops, lengths = np.cumsum(lengths).tolist(), lengths.tolist()
    for i in busy.tolist():
        f, s = stops[i] - lengths[i], stops[i]
        ufunc(a[f:s], values[i], out=out[f:s])
    return out


def _as_u64(a: np.ndarray) -> np.ndarray:
    """Integers as uint64, negative ones modulo 2^64."""
    return a.view(np.uint64) if a.dtype == np.int64 else a.astype(np.uint64, copy=False)


class SlotRng:
    """Random-access uniform variates indexed by slot (or cycle) number.

    A stream is addressed by its seed; `uniform_at(idx)` returns the same
    value for the same index no matter how calls are batched.  `raw_at(k)`
    equals the (k+1)-th output of the reference splitmix64 generator
    seeded with this stream's seed.
    """

    __slots__ = ("seed", "_seed_u64", "_offset")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._seed_u64 = _U64(seed & 0xFFFFFFFFFFFFFFFF)
        # (index + 1) * golden + seed == index * golden + _offset (mod 2^64)
        self._offset = _U64((seed + int(_GOLDEN)) & 0xFFFFFFFFFFFFFFFF)

    def raw_at(self, index, ends=None):
        """Raw 64-bit variates at `index`.  Given `ends`, `index` holds the
        first slots of the ranges [index[i], ends[i]), and the result is
        their variates laid end to end, equal to
        `raw_at(detector.slot_ranges(index, ends))`; a range with
        ends[i] <= index[i] is empty."""
        with np.errstate(over="ignore"):
            if ends is not None:
                z = self._range_counters(np.asarray(index), np.asarray(ends))
            else:
                idx = _as_u64(np.asarray(index))
                if idx.ndim == 0:
                    return mix64(self._seed_u64 + (idx + _U64(1)) * _GOLDEN)
                z = idx * _GOLDEN
                z += self._offset
            # In-place pipeline; one temp array for the shifted halves.
            t = z >> _U64(30)
            z ^= t
            z *= _MIX1
            np.right_shift(z, _U64(27), out=t)
            z ^= t
            z *= _MIX2
            np.right_shift(z, _U64(31), out=t)
            z ^= t
            return z

    def _range_counters(self, starts, ends):
        """The counters of the ranges [starts[i], ends[i]) laid end to end:
        at position p of range i, p * golden + (starts[i] - firsts[i]) *
        golden + offset, with firsts[i] the position of its first slot."""
        lengths = np.maximum(ends - starts, 0)
        base = _as_u64(starts) - _as_u64(np.cumsum(lengths) - lengths)
        base *= _GOLDEN
        base += self._offset
        z = np.arange(int(lengths.sum()), dtype=np.uint64)
        z *= _GOLDEN
        return per_range(np.add, z, base, lengths, out=z)

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
