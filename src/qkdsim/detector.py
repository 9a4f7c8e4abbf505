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
slots at a time.  It works from the indices of the chunk's bright slots:
the live dim slots lie at least `recovery_slots` after a bright one, in
intervals given in closed form, and only those draw a variate and
evaluate the escape probability.  A bright slot is a rising-edge
candidate when more than `recovery_slots` slots separate it from the
previous bright one.  `Detector.step` is the slot-by-slot reference it
is tested against: both read the same counter-based variate for a slot,
so they produce identical click sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import SlotRng

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


class Mode(Enum):
    READY = "ready"
    DEAD = "dead"
    BLINDED = "blinded"


@dataclass
class DetectorState:
    mode: Mode = Mode.READY
    until_slot: int = _NEVER        # first clickable slot while DEAD
    last_bright_slot: int = _NEVER  # latest above-threshold slot while BLINDED


@dataclass(frozen=True)
class ClickEvent:
    detector_id: int
    slot: int


class Detector:
    """One detector unit: parameters, live state, and its random stream.

    Must be stepped in strictly increasing slot order by a single caller.
    """

    def __init__(self, detector_id: int, params: DetectorParams, rng: SlotRng):
        if detector_id not in (1, 2, 3, 4):
            raise ValueError("detector_id must be 1..4")
        self.detector_id = detector_id
        self.params = params
        self.rng = rng
        self.state = DetectorState()
        self._last_stepped = _NEVER

    def step(self, incident_mean: float, slot: int) -> ClickEvent | None:
        """Advance one slot; return a ClickEvent if the detector fired."""
        if incident_mean < 0.0:
            raise ValueError("incident_mean must be >= 0")
        if slot <= self._last_stepped:
            raise ValueError(
                f"slots must be strictly increasing (got {slot} after {self._last_stepped})"
            )
        self._last_stepped = slot
        p = self.params
        st = self.state

        if incident_mean >= p.blind_threshold_photons:
            # Bright branch: latch high.  Rising edge only from Ready.
            clicked = st.mode is Mode.READY
            st.mode = Mode.BLINDED
            st.last_bright_slot = slot
            return ClickEvent(self.detector_id, slot) if clicked else None

        # Dim branch: leave Blinded/Dead first if due, then act as Ready.
        if st.mode is Mode.BLINDED:
            if slot - st.last_bright_slot >= p.recovery_slots:
                st.mode = Mode.READY
        elif st.mode is Mode.DEAD:
            if slot >= st.until_slot:
                st.mode = Mode.READY
        if st.mode is not Mode.READY:
            return None

        escape = 1.0 - (1.0 - p.dark_prob_per_slot) * math.exp(
            -incident_mean * p.efficiency
        )
        if float(self.rng.uniform_at(slot)) < escape:
            st.mode = Mode.DEAD
            st.until_slot = slot + p.dead_time_slots
            return ClickEvent(self.detector_id, slot)
        return None


@dataclass
class BlockState:
    """Carried detector state between vectorized blocks."""

    last_bright: int = _NEVER
    dead_until: int = _NEVER
    last_dim_click: int = _NEVER


def simulate_block(
    incident: np.ndarray,
    base_slot: int,
    params: DetectorParams,
    state: BlockState,
    rng: SlotRng,
) -> np.ndarray:
    """Run one detector over a contiguous slot block; return click slots.

    Equivalent to calling `Detector.step` for slots
    [base_slot, base_slot + len(incident)), but candidate clicks are found
    with array operations from the bright-slot indices, and only the
    (sparse) candidates are resolved sequentially for dead-time
    interactions.  Latched slots draw no variate.
    """
    n = len(incident)
    bright = np.flatnonzero(incident >= params.blind_threshold_photons)
    # Block-relative: interval j runs from the bright slot prev[j] (the
    # carried one for j = 0) to the next bright slot, ends[j] (the block's
    # end for the last interval).
    prev = np.empty(len(bright) + 1, dtype=np.int64)
    prev[0] = state.last_bright - base_slot
    prev[1:] = bright
    ends = np.append(bright, n)

    # Recovery gate: a dim slot is past blinding once `recovery_slots` dim
    # slots have elapsed since the last bright one (counting itself), so
    # interval j is live from prev[j] + R.  A bright slot is a rising-edge
    # candidate only if the detector had already recovered at some dim slot
    # before it, i.e. its own interval held a live slot: a gap of more than R.
    starts = np.maximum(prev + params.recovery_slots, 0)
    lengths = np.maximum(ends - starts, 0)
    offsets = np.cumsum(lengths) - lengths
    live = np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))
    escape = 1.0 - (1.0 - params.dark_prob_per_slot) * np.exp(
        -incident[live] * params.efficiency
    )
    dim = live[rng.uniform_at(live + base_slot) < escape]
    edge = bright - prev[:-1] > params.recovery_slots

    # Candidates in slot order, each with the last bright slot before it.
    cand = np.concatenate((dim, bright[edge]))
    order = np.argsort(cand, kind="stable")
    lbs = np.concatenate((prev[np.searchsorted(bright, dim)], prev[:-1][edge]))

    clicks = []
    dead_until = state.dead_until
    last_dim_click = state.last_dim_click
    for s, lb, at_bright in zip(
        (cand[order] + base_slot).tolist(),
        (lbs[order] + base_slot).tolist(),
        (order >= len(dim)).tolist(),
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
    state.last_bright = int(prev[-1]) + base_slot
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
        incident = np.full(slots_per_point, float(power))
        state = BlockState()
        # Disjoint slot ranges keep the points statistically independent.
        clicks = simulate_block(incident, j * slots_per_point, params, state, rng)
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
