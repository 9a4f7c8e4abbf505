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

`simulate_block` is the detector stage the engine runs, over a chunk of
slots at a time, without visiting every slot.  It is given the chunk's
bright slots and, for each piece of constant light, the incident levels
its slots can show.  The live dim slots lie at least `recovery_slots`
after a bright one, in intervals given in closed form; a bright slot is a
rising-edge candidate when more than `recovery_slots` slots separate it
from the previous bright one.  Live slots are thinned against their
piece's largest escape probability with one integer comparison of the raw
variate (`rng.raw_limit`), and only the survivors get their exact
incident mean and the exact test `uniform < escape`.  The counter-based
variate of a slot is the same whichever slots are drawn, so the clicks
equal those of the slot-by-slot reference state machine in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SlotRng, raw_limit

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
        dark count, 1 - (1 - d) e^{-mean*eta}."""
        return 1.0 - (1.0 - self.dark_prob_per_slot) * np.exp(-incident * self.efficiency)

    def escape_bound(self, levels):
        """Per row of `levels` (the incident means that a piece of slots
        can show), the largest escape probability among its dim levels, 0
        if it has none: no live slot of the piece can click more likely."""
        levels = np.asarray(levels, dtype=np.float64)
        dim = levels < self.blind_threshold_photons
        return np.where(dim, self.escape(levels), 0.0).max(axis=-1)


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


def simulate_block(lo: int, hi: int, bright: np.ndarray, piece_starts: np.ndarray,
                   piece_levels: np.ndarray, incident_at, params: DetectorParams,
                   state: BlockState, rng: SlotRng) -> np.ndarray:
    """Run one detector over the slots [lo, hi); return its click slots.

    Equivalent to stepping the state machine through every slot, given
    `bright`, the sorted slots whose incident mean reaches the blinding
    threshold, and the pieces of constant light starting at `piece_starts`
    (the first at `lo`): every dim slot of piece i sees one of the incident
    means `piece_levels[i]`.  `incident_at` maps sorted slots to their exact
    incident mean; it is called only for the slots that survive thinning.
    Candidate clicks are then resolved sequentially for dead time.
    """
    # Interval j runs from the bright slot prev[j] (the carried one for
    # j = 0) to the next bright slot (or `hi`).  A dim slot is past
    # blinding once `recovery_slots` dim slots have elapsed since the last
    # bright one (counting itself), so interval j is live from prev[j] + R.
    # A bright slot is a rising-edge candidate only if the detector had
    # already recovered at some dim slot before it, i.e. its own interval
    # held a live slot: a gap of more than R.  Only those gaps matter.
    R = params.recovery_slots
    prev = np.append(np.int64(state.last_bright), bright)
    gap = np.flatnonzero(np.diff(prev) > R)
    live = slot_ranges(
        np.maximum(np.append(prev[gap], prev[-1]) + R, lo), np.append(bright[gap], hi)
    )

    # Thinning: a live slot can click only if its variate lies below its
    # piece's escape bound, an integer test on the raw variate; only the
    # survivors get their exact incident mean and escape probability.
    raw = rng.raw_at(live)
    keep = np.empty(len(live), dtype=bool)
    first = np.searchsorted(live, piece_starts).tolist()
    limits = raw_limit(params.escape_bound(piece_levels)).tolist()
    for i0, i1, limit in zip(first, first[1:] + [len(live)], limits):
        np.less_equal(raw[i0:i1], limit, out=keep[i0:i1])
    thin = live[keep]
    dim = thin[rng.uniform_at(thin) < params.escape(incident_at(thin))]

    # Candidates in slot order, each with the last bright slot before it.
    cand = np.concatenate((dim, bright[gap]))
    order = np.argsort(cand, kind="stable")
    lbs = np.concatenate((prev[np.searchsorted(bright, dim)], prev[gap]))

    clicks = []
    dead_until = state.dead_until
    last_dim_click = state.last_dim_click
    for s, lb, at_bright in zip(
        cand[order].tolist(), lbs[order].tolist(), (order >= len(dim)).tolist()
    ):
        # Dead time applies unless a bright slot after the click latched the
        # output high (which supersedes it).  A dim slot at the expiry slot
        # performs the Dead->Ready transition itself and may click; a bright
        # slot clicks only if some dim slot after both the click and the
        # expiry already ran, hence the extra slot.
        if at_bright:
            blocked = s <= max(dead_until, last_dim_click + 1) and lb < last_dim_click
        else:
            blocked = s < dead_until and lb < last_dim_click
        if blocked:
            continue
        clicks.append(s)
        if not at_bright:
            last_dim_click = s
            dead_until = s + params.dead_time_slots

    # Carry state out of the block.
    state.last_bright = int(prev[-1])
    state.dead_until = dead_until
    state.last_dim_click = last_dim_click
    return np.asarray(clicks, dtype=np.int64)


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
        bright = np.arange(lo, hi) if power >= params.blind_threshold_photons else np.arange(0)
        clicks = simulate_block(lo, hi, bright, np.array([lo]), np.array([[float(power)]]),
                                lambda s: np.full(len(s), float(power)), params, BlockState(), rng)
        results.append((float(power), clock_hz * len(clicks) / slots_per_point))
    return results


def photons_to_dBm(photons_per_slot: float, clock_hz: float, wavelength_nm: float) -> float:
    """Average optical power, in dBm, of a photon flux at the given clock."""
    if photons_per_slot <= 0.0 or clock_hz <= 0.0 or wavelength_nm <= 0.0:
        raise ValueError("all arguments must be positive")
    energy_j = PLANCK_J_S * LIGHT_SPEED_M_S / (wavelength_nm * 1e-9)
    watts = photons_per_slot * clock_hz * energy_j
    return 10.0 * math.log10(watts / 1e-3)


def dBm_to_photons(power_dBm: float, clock_hz: float, wavelength_nm: float) -> float:
    """Inverse of `photons_to_dBm`."""
    energy_j = PLANCK_J_S * LIGHT_SPEED_M_S / (wavelength_nm * 1e-9)
    watts = 1e-3 * 10.0 ** (power_dBm / 10.0)
    return watts / (clock_hz * energy_j)
