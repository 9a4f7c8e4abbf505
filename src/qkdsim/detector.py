"""Superconducting single-photon detector model.

A detector is a three-state machine driven once per clock slot:

* Ready   -- clicks on photons (escape probability 1 - e^{-mean*eta}) or
             dark counts; a click starts the dead time.
* Dead    -- quiet until the dead time expires.
* Blinded -- the output is latched high by bright light at or above the
             blinding threshold; no clicks until the light has been below
             threshold for `recovery_slots` consecutive slots.

Bright light produces exactly one click per continuous bright interval:
the rising edge, and only when entered from Ready.  Bright light during
dead time latches the output high without a rising edge, so the detector
moves to Blinded silently; any bright slot also cancels a pending dead
time for the same reason.

`simulate_block` is the detector stage the engine runs, for the four
detectors over a chunk of slots at a time, without visiting every slot.
Bright light enters it as latched spans (`latched_spans`): the first and
last bright slot of each maximal group of bright slots whose gaps are at
most `recovery_slots`, built from runs of bright slots that the engine
mostly takes from the cycle plan in closed form.  The detector is
latched inside a span and recovered `recovery_slots` after its end, so
the live dim slots run from there to the next span's start, and a span's
first slot is a rising-edge candidate when the previous span ended more
than `recovery_slots` before it.  It is also given, for each piece of
constant light, its light type, whose incident levels its slots show.

Dim clicks are drawn as candidates, not slot by slot.  A dim slot whose
escape probability p > 0 has the level k with 2^-(k+1) < p <= 2^-k
(`DetectorParams.level`, at most `rng.MAX_LEVEL`).  It is a candidate
when its detector's level-k Bernoulli(2^-k) process hits it
(`rng.bernoulli_hits`, drawn by geometric gaps in aligned sub-blocks of
2^k slots), and a candidate clicks, when Ready, if u 2^-k < p for the
slot's uniform u on the detector stream: a Bernoulli(p) event, whatever
the slot's piece or chunk.  Only the live slots of each piece are
searched, at the levels its dim light has, so a run costs its candidates
and the sub-blocks they lie in.  Each detector's live ranges and
sub-blocks are found first; then each level present is walked once for
all the detectors that search it, since one stream's counters are
another's shifted by a constant, and each detector filters, thins and
resolves its own candidates.  A candidate's level and thinning bound
p 2^k are read from the table of its piece's light type, which the caller
computes once per type (`engine._typed`); the chain is asked only which of
the type's two means the candidate shows.  The clicks equal those of
the slot-by-slot reference state machine in the tests, which follows the
same definition.
Candidate clicks and rising edges are then resolved for dead time
(`_resolve`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import ClickLog
from .rng import MAX_LEVEL, SlotRng, bernoulli_hits

PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 299792458.0

_NEVER = -(1 << 62)


@dataclass(frozen=True)
class DetectorParams:
    # efficiency and dark rate default to the stock-link calibration (see
    # qkdsim.engine and scripts/calibrate_defaults.py for the derivation)
    efficiency: float = 0.06
    dark_prob_per_slot: float = 2.4532042261666024e-06
    dead_time_slots: int = 50
    blind_threshold_photons: float = 2.5e4
    recovery_slots: int = 8

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [0,1], got {self.efficiency}")
        if not 0.0 <= self.dark_prob_per_slot < 1.0:
            raise ValueError(f"dark_prob_per_slot must be in [0,1), got {self.dark_prob_per_slot}")
        if self.dead_time_slots < 0:
            raise ValueError("dead_time_slots must be >= 0")
        if self.blind_threshold_photons < 100.0:
            raise ValueError("blind_threshold_photons must be >= 100 (bright-light regime)")
        if self.recovery_slots < 1:
            raise ValueError("recovery_slots must be >= 1")

    def escape(self, incident):
        """Click probability of a Ready detector in a dim slot: photon or
        dark count, 1 - (1 - d) e^{-mean*eta}.  From mean*eta = 40 on it is
        1 exactly (e^-40 is below half an ulp of 1), so the exponent is
        clamped there: exp is several times slower where it underflows, as
        it does for bright light."""
        return 1.0 - (1.0 - self.dark_prob_per_slot) * np.exp(
            np.maximum(-incident * self.efficiency, -40.0))

    def level(self, incident):
        """(k, bound): the candidate level of each incident mean (see
        `simulate_block`), as int8, and its thinning bound p 2^k, p its
        escape probability.  k is the one in [0, MAX_LEVEL] with
        2^-(k+1) < p <= 2^-k, or the highest; -1 where the light is bright
        or p = 0, so the slot cannot click as a dim slot."""
        incident = np.asarray(incident, dtype=np.float64)
        p = self.escape(incident)
        mantissa, exponent = np.frexp(p)
        k = np.minimum((mantissa == 0.5) - exponent, MAX_LEVEL)
        k = np.where((incident < self.blind_threshold_photons) & (p > 0.0), k, -1)
        # The candidate test u 2^-k < p, as u < p 2^k: both scalings are exact.
        return k.astype(np.int8), np.ldexp(p, k)


@dataclass
class BlockState:
    """Carried detector state between vectorized blocks."""

    last_bright: int = _NEVER
    dead_until: int = _NEVER
    last_dim_click: int = _NEVER


def slot_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The slots of the ranges [starts[i], ends[i]), in order; a range
    with ends[i] <= starts[i] is empty."""
    lengths = np.maximum(ends - starts, 0)
    offsets = np.cumsum(lengths) - lengths
    slots = np.arange(int(lengths.sum()))
    slots += np.repeat(starts - offsets, lengths)
    return slots


def latched_spans(first: np.ndarray, last: np.ndarray, step: np.ndarray,
                  recovery_slots: int):
    """The latched spans of sorted, disjoint bright runs, run i holding
    the slots first[i], first[i] + step[i], ..., last[i]: (starts, ends),
    the first and last slot of each maximal group of bright slots whose
    gaps are at most `recovery_slots`.  A run whose step exceeds that
    gives a span per slot."""
    wide = step > recovery_slots
    if wide.any():
        n = np.where(wide, (last - first) // step + 1, 1)
        run = np.repeat(np.arange(len(first)), n)
        offset = np.arange(len(run)) - np.repeat(np.cumsum(n) - n, n)
        first = first[run] + step[run] * offset
        last = np.where(wide[run], first, last[run])
    if not len(first):
        return first, last
    gap = first[1:] - last[:-1] > recovery_slots
    return first[np.concatenate(([True], gap))], last[np.concatenate((gap, [True]))]


def _cut(first, stop, piece_starts, hi):
    """The ranges [first[j], stop[j]) (sorted, disjoint, non-empty) cut at
    the piece starts: (lo, hi, piece) of each part."""
    a = np.searchsorted(piece_starts, first, side="right") - 1
    b = np.searchsorted(piece_starts, stop - 1, side="right")
    piece = slot_ranges(a, b)
    j = np.repeat(np.arange(len(first)), b - a)
    piece_ends = np.append(piece_starts[1:], hi)
    return (np.maximum(first[j], piece_starts[piece]), np.minimum(stop[j], piece_ends[piece]),
            piece)


def _candidates(streams, k: int, ranges, cap: int) -> list:
    """For each detector stream `streams[i]`, the slots, sorted, of its
    ranges `ranges[i]` = (lo, hi), [lo[j], hi[j]) sorted, disjoint and
    non-empty, that its level-k process hits: every slot at level 0, else
    the hits in the sub-blocks they touch, all streams in one walk."""
    if k == 0:
        return [slot_ranges(lo, hi) for lo, hi in ranges]
    blocks = []
    for lo, hi in ranges:
        b = slot_ranges(lo >> k, ((hi - 1) >> k) + 1)
        blocks.append(b[np.append(True, b[1:] != b[:-1])])
    walked = bernoulli_hits([rng.level(k) for rng in streams], k, blocks, cap)
    found = []
    for (lo, hi), hits in zip(ranges, walked):
        j = np.maximum(np.searchsorted(lo, hits, side="right") - 1, 0)
        found.append(hits[(hits >= lo[j]) & (hits < hi[j])])
    return found


def simulate_block(lo: int, hi: int, spans, piece_starts: np.ndarray, piece_light: np.ndarray,
                   level: np.ndarray, bound: np.ndarray, shown_at, detectors, states,
                   streams, cap: int) -> ClickLog:
    """Run the detectors over the slots [lo, hi); return their click log.

    Equivalent to stepping each detector d's state machine through every
    slot, given its parameters `detectors[d]`, its carried state
    `states[d]`, its stream `streams[d]` and its latched spans `spans[d]`
    = (starts, ends) in the block (spans closer than `recovery_slots` to
    the one before, or to the block before, are joined to it), and the
    pieces of constant light starting at `piece_starts` (the first at
    `lo`): every dim slot of piece i sees one of the two incident means of
    its light type t = `piece_light[i]`, whose candidate levels and
    thinning bounds at detector d (`DetectorParams.level`) are
    `level[d, t]` and `bound[d, t]`, and `shown_at(slots, piece)` maps
    sorted slots in the pieces `piece` to the index, 0 or 1, of the one
    each shows.  The levels and bounds are computed by the caller, once
    per light type, and `shown_at` is called once per detector, for its
    candidates.  Each level's candidates are drawn for all detectors in
    one walk of at most `cap` sub-blocks a round loop
    (`rng.bernoulli_hits`); each detector's candidate clicks and rising
    edges are then resolved for dead time.
    """
    # Interval j runs from the end prev[j] of a span (the carried last
    # bright slot for j = 0) to the start of the next (or `hi`).  A dim
    # slot is past blinding once `recovery_slots` dim slots have elapsed
    # since the last bright one (counting itself), so interval j is live
    # from prev[j] + R.  Its live slots in piece i are candidates of each
    # level that a dim level of the piece's light has.
    prevs, searched = [], []  # per detector: its span ends, its live ranges by level
    for (starts, ends), params, state, lv in zip(spans, detectors, states, level):
        prev = np.concatenate(([state.last_bright], ends))
        first = np.maximum(prev + params.recovery_slots, lo)
        stop = np.append(starts, hi)
        live = first < stop
        seg_lo, seg_hi, piece = _cut(first[live], stop[live], piece_starts, hi)
        seg_light = piece_light[piece]
        # The levels of the light types present, by counts over
        # [0, MAX_LEVEL].  Not np.unique: its first call imports numpy.ma,
        # which would take most of a short run.
        present = lv[np.bincount(seg_light, minlength=len(lv)) > 0]
        at_level = {}
        for k in np.flatnonzero(np.bincount(present[present >= 0])).tolist():
            at = ((lv[:, 0] == k) | (lv[:, 1] == k))[seg_light]
            at_level[k] = seg_lo[at], seg_hi[at]
        prevs.append(prev)
        searched.append(at_level)

    cand = [[np.empty(0, np.int64)] for _ in detectors]
    cand_level = [[np.empty(0, np.int8)] for _ in detectors]
    for k in sorted(set().union(*searched)):
        ds = [d for d, ranges in enumerate(searched) if k in ranges]
        found = _candidates([streams[d] for d in ds], k, [searched[d][k] for d in ds], cap)
        for d, hits in zip(ds, found):
            cand[d].append(hits)
            cand_level[d].append(np.full(len(hits), k, np.int8))

    # A candidate of level k clicks if k is the level of the mean it shows
    # and u 2^-k < p, that mean's escape probability: Bernoulli(p) in all.
    # A slot that is a candidate at both of its light's levels passes at
    # one at most.
    clicks = []
    for d, params in enumerate(detectors):
        c, k = np.concatenate(cand[d]), np.concatenate(cand_level[d])
        order = np.argsort(c, kind="stable")
        c, k = c[order], k[order]
        piece = np.searchsorted(piece_starts, c, side="right") - 1
        at = 2 * piece_light[piece] + shown_at(c, piece)
        take = level[d].ravel()[at] == k
        take &= streams[d].uniform_at(c) < bound[d].ravel()[at]
        clicks.append(_resolve(c[take], spans[d][0], prevs[d], params, states[d]))
    return ClickLog.merge(clicks)


def _resolve(dim, starts, prev, params: DetectorParams, state: BlockState) -> np.ndarray:
    """One detector's clicks from its dim candidates (sorted) and the span
    starts that are rising-edge candidates, resolved for dead time;
    carries its state out of the block.

    Dead time applies unless a bright slot after the click latched the
    output high (which supersedes it).  A dim slot at the expiry slot
    performs the Dead->Ready transition itself and may click; a bright
    slot clicks only if some dim slot after both the click and the expiry
    already ran.  Only dim clicks start a dead time, so the dim clicks form
    a chain: after a click at s_i the next is the first candidate at or
    after s_i + D, or the first whose last bright slot is after s_i.  Each
    rising edge is then tested against the last dim click before it.
    """
    n, dead = len(dim), params.dead_time_slots
    lbs = prev[np.searchsorted(starts, dim)]  # each candidate's last bright slot
    first = min(np.searchsorted(dim, state.dead_until), np.searchsorted(lbs, state.last_dim_click))
    # jump[i]: the candidate that clicks next after a click at candidate i;
    # n ends the chain.  Pointer doubling lists the chain from `first`: if
    # `chain` holds its first 2^t links, jump^(2^t) maps them to the next 2^t.
    jump = np.minimum(np.searchsorted(dim, dim + dead), np.searchsorted(lbs, dim))
    jump = np.append(np.maximum(jump, np.arange(1, n + 1)), n)
    chain = np.array([first])
    while chain[-1] < n:
        chain = np.concatenate((chain, jump[chain]))
        jump = jump[jump]
    clicked = dim[chain[chain < n]]

    # A span's start is a rising-edge candidate only if the detector had
    # already recovered at some dim slot before it, i.e. its own interval
    # held a live slot: a gap of more than R to the span before.
    gap = np.flatnonzero(starts - prev[:-1] > params.recovery_slots)
    edges, edge_lbs = starts[gap], prev[gap]
    before = np.searchsorted(clicked, edges) - 1
    last = np.where(before >= 0, clicked[before] if len(clicked) else 0, state.last_dim_click)
    until = np.where(before >= 0, last + dead, state.dead_until)
    blocked = (edges <= np.maximum(until, last + 1)) & (edge_lbs < last)

    state.last_bright = int(prev[-1])
    if len(clicked):
        state.last_dim_click = int(clicked[-1])
        state.dead_until = state.last_dim_click + dead
    return np.sort(np.concatenate((clicked, edges[~blocked])))


def count_rate_sweep(
    params: DetectorParams,
    powers: list[float],
    slots_per_point: int,
    rng: SlotRng,
    clock_hz: float = 1e9,
) -> list[tuple[float, float]]:
    """Click rate under continuous illumination, one point per power level.

    Each point is an independent stretch of `slots_per_point` slots at a
    constant mean photon number; the returned rate is clicks per second at
    the given clock.  The curve rises with power, saturates near
    clock/(dead_time+1), and collapses once the power latches the detector.
    """
    if list(powers) != sorted(powers):
        raise ValueError("powers must be sorted ascending")
    if slots_per_point < 10**4:
        raise ValueError("slots_per_point must be >= 1e4")
    results = []
    for j, power in enumerate(powers):
        if power < 0.0:
            raise ValueError("powers must be >= 0")
        # Disjoint slot ranges keep the points statistically independent.
        lo, hi = j * slots_per_point, (j + 1) * slots_per_point
        span = np.array([lo, hi - 1] if power >= params.blind_threshold_photons else [], np.int64)
        # A point has fewer sub-blocks than slots: it is walked in one
        # round loop.
        level, bound = params.level([[power, power]])
        clicks = simulate_block(
            lo, hi, [(span[:1], span[1:])], np.array([lo]), np.zeros(1, np.intp),
            level[None], bound[None], lambda s, piece: np.zeros(len(s), np.intp),
            [params], [BlockState()], [rng], slots_per_point,
        )
        results.append((float(power), clock_hz * len(clicks) / slots_per_point))
    return results


def dBm_to_photons(power_dBm: float, clock_hz: float, wavelength_nm: float) -> float:
    """Mean photons per slot of an average optical power at the given
    clock: P / (f h c / lam), with P = 1 mW * 10^(dBm / 10)."""
    energy_j = PLANCK_J_S * LIGHT_SPEED_M_S / (wavelength_nm * 1e-9)
    watts = 1e-3 * 10.0 ** (power_dBm / 10.0)
    return watts / (clock_hz * energy_j)
