"""Eve: her measurement of Alice's pulses and the bright-light
detector-control pulse stream she sends to Bob.

The attack holds all four of Bob's detectors latched high with a bright
pulse stream whose phases repeat the {0, 0, pi, pi} pattern, so the phase
difference alternates 0, pi and the light alternates between the two
interferometer ports every slot -- each detector is refreshed fast enough
that it never recovers, and no pi/2 modulation is needed.  To force a
click, Eve routes the stream away from one port for a recovery window,
lets that port's detector pair become clickable, then ends the cycle with
one bright slot routed back at the recovered pair: both of its detectors
fire on the rising edge, in the same slot, and latch again.

One cycle (blinding + window + re-blinding edge) serves one bit.  Each
attacked cycle contains its own re-blinding edge as its final slot, so a
cycle produces its fake click regardless of whether the next cycle is
attacked or passes Alice's genuine light through.

Phases are tracked as pi-parities (phase = pi * bit); every phase Eve
sends is 0 or pi.  The phase difference an attacked cycle shows is fixed
in closed form (`AttackPlan.pattern`): pi at its first slot, alternating
0, pi through the rest of the blinding, constant through the recovery
window (0 for a port-2 target, pi for port 1) after its first slot, and
the re-blinding edge -- so the detector stage takes the cycle's bright
slots as a few runs instead of evaluating them one by one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .optics import ALTERNATING, CONSTANT, PER_SLOT
from .rng import SlotRng

PORT1, PORT2 = 1, 2


@dataclass(frozen=True)
class AttackConfig:
    enabled: bool = False
    mode: str = "emulation"  # emulation | intercept_resend
    # Stream power at the interferometer input.  Routing sends the full
    # stream to one port whose coupler halves it, so 5e4 here puts 2.5e4 on
    # each detector of the lit pair -- the blinding threshold.
    blind_photons_per_slot: float = 5.0e4
    blinding_slots: int = 9990
    recovery_window_slots: int = 10
    attacked_fraction: float = 1.0
    blind_wavelength_nm: float = 1551.0

    def __post_init__(self):
        if self.mode not in ("emulation", "intercept_resend"):
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if self.blind_photons_per_slot <= 0.0:
            raise ValueError("blind_photons_per_slot must be > 0")
        if self.blinding_slots < 4:
            raise ValueError("blinding_slots must be >= 4")
        if self.recovery_window_slots < 1:
            raise ValueError("recovery_window_slots must be >= 1")
        if not 0.0 <= self.attacked_fraction <= 1.0:
            raise ValueError("attacked_fraction must be in [0, 1]")

    @property
    def cycle_slots(self) -> int:
        return self.blinding_slots + self.recovery_window_slots


def eve_outcome(slots, mu: float, rng: SlotRng, alice_parity_at) -> np.ndarray:
    """Outcomes of Eve's interferometer on Alice's pulses in `slots`:
    0 = no click, 1 = port 1 (phase difference 0), 2 = port 2 (pi).

    Eve measures before the channel with ideal apparatus (unit efficiency,
    lossless, dark-free), so a slot clicks with probability 1 - e^{-mu}.
    Slot 0 has no predecessor phase and never clicks.
    """
    s = np.asarray(slots, dtype=np.int64)
    clicked = (rng.uniform_at(s) < 1.0 - math.exp(-mu)) & (s > 0)
    same = alice_parity_at(s) == alice_parity_at(s - 1)
    return np.where(clicked, np.where(same, PORT1, PORT2), 0).astype(np.int8)


class AttackPlan:
    """Per-cycle schedule plus closed-form slot fields for the whole run.

    Cycle k covers slots [k*C, (k+1)*C).  An attacked, served cycle is
    blinding for C - W - 1 slots, a W-slot recovery window, and one
    re-blinding slot aimed at the target pair.  Attacked cycles without an
    Eve outcome at their re-blinding slot (intercept mode on a lossy
    source), and cycles truncated by the end of the run, blind throughout.
    Pass-through cycles carry Alice's genuine attenuated pulses.

    `alice_parity_at` maps slot indices to Alice's phase parities;
    `eve_outcome_at` maps an array of slot indices to Eve's outcomes there
    (see `eve_outcome`) and is consulted only in intercept mode.
    """

    def __init__(
        self,
        cfg: AttackConfig,
        n_slots: int,
        signal_mean: float,
        signal_wavelength_nm: float,
        alice_parity_at,
        cycle_rng: SlotRng,
        eve_outcome_at=None,
    ):
        if cfg.mode == "intercept_resend" and eve_outcome_at is None:
            raise ValueError("intercept_resend needs Eve's measurement outcomes")
        self.cfg = cfg
        self.n_slots = n_slots
        self.signal_mean = signal_mean
        self.signal_wavelength_nm = signal_wavelength_nm
        self.alice_parity_at = alice_parity_at
        C = cfg.cycle_slots
        self.n_cycles = (n_slots + C - 1) // C

        q = cfg.attacked_fraction
        if q >= 1.0:
            attacked = np.ones(self.n_cycles, dtype=bool)
        elif q <= 0.0:
            attacked = np.zeros(self.n_cycles, dtype=bool)
        else:
            attacked = cycle_rng.uniform_at(np.arange(self.n_cycles, dtype=np.uint64)) < q
        self.attacked = attacked

        # Target pair of each cycle's re-blinding edge; 0 = unserved.
        self.targets = np.zeros(self.n_cycles, dtype=np.int8)
        complete = (np.arange(self.n_cycles) + 1) * C <= n_slots
        served = attacked & complete
        if cfg.mode == "emulation":
            self.targets[served] = PORT2
        else:
            self.targets[served] = eve_outcome_at((np.flatnonzero(served) + 1) * C - 1)

        # Piece offsets in a served cycle: its first slot, the rest of the
        # blinding, the window's first slot, the rest of the window and the
        # edge; a one-slot window has no rest.
        B = C - cfg.recovery_window_slots - 1
        offsets, first = np.unique([0, 1, B, B + 1, C - 1], return_index=True)
        kinds = np.array([CONSTANT, ALTERNATING, CONSTANT, CONSTANT, CONSTANT], dtype=np.int8)
        self._pattern = offsets, kinds[first]

        self.entry_parity = np.zeros(self.n_cycles, dtype=np.uint8)
        parity = 0  # parity of the slot preceding the cycle
        for k in range(self.n_cycles):
            self.entry_parity[k] = parity
            target = self.targets[k]
            if not attacked[k]:
                parity = int(alice_parity_at(min((k + 1) * C, n_slots) - 1))
            elif target == 0:
                parity ^= ((C - 1) // 2 + 1) & 1  # blinding throughout
            elif target == PORT1:
                parity ^= (cfg.recovery_window_slots & 1) ^ 1
            # target PORT2: the edge slot's parity equals the entry parity

    def _attacked_parity(self, slots: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Parity at `slots` of the attacked cycles `k` they lie in."""
        C = self.cfg.cycle_slots
        W = self.cfg.recovery_window_slots
        j = slots - k * C
        # Blinding, entered with the parity of the preceding slot: the first
        # slot flips (difference pi), then differences alternate 0, pi -- the
        # {0,0,pi,pi} repetition.  Only bit 0 matters, so uint8 wrap is fine.
        parity = (j >> 1).astype(np.uint8)
        parity += self.entry_parity[k] + 1
        parity &= 1
        # Window offset i < W, then the re-blinding edge at i = W.  A port-2
        # target holds the phase through the window (light on port 1) and
        # flips at the edge; a port-1 target alternates through the window
        # (light on port 2) and repeats at the edge.
        tail = np.flatnonzero(j >= C - W - 1)
        tail = tail[self.targets[k[tail]] != 0]
        i = j[tail] - (C - W - 1)
        p = self.entry_parity[k[tail]]
        parity[tail] = np.where(
            self.targets[k[tail]] == PORT2, p ^ (i < W), p ^ 1 ^ ((np.minimum(i, W - 1) + 1) & 1)
        )
        return parity

    def pattern(self, lo: int, hi: int):
        """Pieces of [lo, hi) and how the phase difference runs over each
        (see `optics.OpticalChain.pieces`): (starts, kinds), the first
        piece starting at `lo`.  A cycle's first slot follows the previous
        cycle's light, so it is a piece of its own.  In an attacked cycle
        the difference alternates through the blinding from the second
        slot; a served cycle's window opens with a slot of its own (its
        difference depends on the blinding's length), holds one
        difference for the rest of the window, and ends with the edge.
        Pass-through cycles carry Alice's phases, drawn per slot."""
        C = self.cfg.cycle_slots
        offsets, kinds = self._pattern
        k = np.arange(lo // C, (hi - 1) // C + 1)
        starts = k[:, None] * C + offsets
        kind = np.repeat(kinds[None, :], len(k), axis=0)
        kind[~self.attacked[k], 1] = PER_SLOT
        used = (self.targets[k] != 0)[:, None] | (offsets < 2)
        starts, kind = starts[used], kind[used]
        inside = (starts > lo) & (starts < hi)
        at_lo = np.searchsorted(starts, lo, side="right") - 1
        return (np.concatenate(([lo], starts[inside])),
                np.concatenate((kind[at_lo:at_lo + 1], kind[inside])))

    def channel_fields(self, slots: np.ndarray):
        """(mean, parity, wavelength) at the given slot indices, in closed
        form from the cycle schedule.  Mean and wavelength are constant over
        each cycle, and are scalars when all slots lie in attacked cycles or
        all in pass-through ones."""
        cfg = self.cfg
        k = slots // cfg.cycle_slots
        attacked = self.attacked[k]
        if attacked.all():
            parity = self._attacked_parity(slots, k)
            return cfg.blind_photons_per_slot, parity, cfg.blind_wavelength_nm
        if not attacked.any():
            return self.signal_mean, self.alice_parity_at(slots), self.signal_wavelength_nm
        mean = np.where(attacked, cfg.blind_photons_per_slot, self.signal_mean)
        lam = np.where(attacked, cfg.blind_wavelength_nm, self.signal_wavelength_nm)
        passing = ~attacked
        parity = np.empty(len(slots), dtype=np.uint8)
        parity[passing] = self.alice_parity_at(slots[passing])
        parity[attacked] = self._attacked_parity(slots[attacked], k[attacked])
        return mean, parity, lam


def validate_against_detectors(cfg: AttackConfig, recovery_slots: int) -> None:
    """Warn when the recovery window is too short for the detectors to
    become clickable -- a failing attack is a legitimate scenario."""
    if cfg.enabled and cfg.recovery_window_slots < recovery_slots:
        warnings.warn(
            f"recovery window of {cfg.recovery_window_slots} slots is shorter than "
            f"the detector recovery of {recovery_slots}; fake clicks will not fire",
            stacklevel=2,
        )
