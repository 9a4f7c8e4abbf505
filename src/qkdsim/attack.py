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
sends is 0 or pi.  Her cycle is one phase program, a table in
`AttackPlan` with a row per target: the cycle's pieces -- its first slot
(difference pi), the rest of the blinding (alternating 0, pi), the
window's first slot, the rest of the window (held at 0 for a port-2
target, pi for port 1) and the re-blinding edge -- each with its kind and
first phase difference.  The plan's pieces (`AttackPlan.pattern`), the
parity of any slot and the parity each cycle is entered with all follow
from that table, so the detector stage takes a cycle's bright slots as a
few runs instead of evaluating them one by one.  Each piece is tagged
with its light by its row and column of the table (and, at a cycle's
first slot, the light before it), so every cycle repeats a handful of
light types that the optical chain evaluates once per run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .optics import ALTERNATING, CONSTANT, PER_SLOT
from .rng import SlotRng

PORT1, PORT2 = 1, 2


@dataclass(frozen=True)
class AttackConfig:
    enabled: bool = False
    mode: Literal["emulation", "intercept_resend"] = "emulation"
    # Stream power at the interferometer input.  Routing sends the full
    # stream to one port whose coupler halves it, so 5e4 here puts 2.5e4 on
    # each detector of the lit pair -- the blinding threshold.
    blind_photons_per_slot: float = 5.0e4
    blinding_slots: int = 9990
    recovery_window_slots: int = 10
    attacked_fraction: float = 1.0
    blind_wavelength_nm: float = 1551.0

    def __post_init__(self):
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


def _flips(kind, diff, n):
    """Parity change over the first `n` slots of a piece whose phase
    difference starts at `diff` and is held (n * diff) or alternates
    (the number of pi differences among n, starting from `diff`)."""
    alt = kind == ALTERNATING
    return ((n + diff * alt) >> alt) & (alt | diff)


class AttackPlan:
    """Per-cycle schedule plus closed-form slot fields for the whole run.

    Cycle k covers slots [k*C, (k+1)*C).  An attacked, served cycle is
    blinding for C - W - 1 slots, a W-slot recovery window, and one
    re-blinding slot aimed at the target pair.  Attacked cycles without an
    Eve outcome at their re-blinding slot (intercept mode on a lossy
    source), and cycles truncated by the end of the run, blind throughout.
    Pass-through cycles carry the light of `alice` (`protocol.AliceSource`).

    Eve's cycle is one phase program, a table with a row per target
    (0 = unserved, port 1, port 2): the offsets of its pieces (the first
    slot, the rest of the blinding, the window's first slot, the rest of
    the window, the edge; an unserved cycle blinds from its second slot to
    its end), each piece's kind and its first phase difference.  The
    pieces of `pattern`, the parities of `channel_fields` and each cycle's
    entry parity (`entry_parity`, the parity of the slot before it) all
    follow from it.

    `eve_outcome_at` maps an array of slot indices to Eve's outcomes there
    (see `eve_outcome`) and is consulted only in intercept mode.
    """

    n_tags = 120  # the tags of `pattern`: 4 rows x 5 columns x 6

    def __init__(self, cfg: AttackConfig, n_slots: int, alice, cycle_rng: SlotRng,
                 eve_outcome_at=None):
        if cfg.mode == "intercept_resend" and eve_outcome_at is None:
            raise ValueError("intercept_resend needs Eve's measurement outcomes")
        self.cfg = cfg
        self.n_slots = n_slots
        self.alice = alice
        C = cfg.cycle_slots
        self.n_cycles = (n_slots + C - 1) // C
        k = np.arange(self.n_cycles)
        self.attacked = cycle_rng.uniform_at(k) < cfg.attacked_fraction

        # Target pair of each cycle's re-blinding edge; 0 = unserved.
        self.targets = np.zeros(self.n_cycles, dtype=np.int8)
        served = self.attacked & ((k + 1) * C <= n_slots)
        if cfg.mode == "emulation":
            self.targets[served] = PORT2
        else:
            self.targets[served] = eve_outcome_at((np.flatnonzero(served) + 1) * C - 1)

        # The phase program.  The first slot flips (difference pi) and the
        # blinding alternates 0, pi from the second: the {0,0,pi,pi}
        # repetition.  A served window holds one difference after its first
        # slot, 0 for a port-2 target (light on port 1), pi for port 1, and
        # opens on the entry parity flipped (port 2) or on it (port 1), so
        # its first difference depends on where the blinding ended.  The
        # edge flips a port-2 target's light back onto port 2 and repeats
        # a port-1 target's last parity.  A one-slot window has no rest.
        B = C - cfg.recovery_window_slots - 1
        opens = ((B - 1) >> 1) & 1  # a port-2 window's first difference
        # Rows: unserved, port 1, port 2.  Columns: first slot, blinding,
        # window's first slot, rest of the window, edge; an unserved cycle
        # blinds to its end, so its last three pieces are empty.
        self._offsets = np.array([[0, 1, C, C, C],
                                  [0, 1, B, B + 1, C - 1],
                                  [0, 1, B, B + 1, C - 1]])
        self._kinds = np.array([[CONSTANT, ALTERNATING, CONSTANT, CONSTANT, CONSTANT]] * 3, np.int8)
        self._diffs = np.array([[1, 0, 0, 0, 0],
                                [1, 0, opens ^ 1, 1, 0],
                                [1, 0, opens, 0, 1]], np.uint8)
        lengths = np.diff(self._offsets, axis=1, append=C)
        self._used = lengths > 0
        flips = _flips(self._kinds, self._diffs, lengths)
        after = np.bitwise_xor.accumulate(flips, axis=1)
        # Parity before each piece's first slot, relative to the entry parity.
        self._before = (after ^ flips).astype(np.uint8)
        # The rows laid end to end, C + 1 apart: one search over them finds
        # each slot's piece.
        self._row_starts = (self._offsets + (C + 1) * np.arange(3)[:, None]).ravel()

        # Entry parities: a cumulative XOR of the attacked cycles' net flips
        # that restarts after each pass-through cycle from Alice's parity at
        # its last slot.
        acc = np.bitwise_xor.accumulate(np.where(self.attacked, after[self.targets, -1], 0))
        passing = np.flatnonzero(~self.attacked)
        restart = np.zeros(self.n_cycles + 1, dtype=acc.dtype)
        restart[passing + 1] = acc[passing] ^ alice.parity_at(
            np.minimum((passing + 1) * C, n_slots) - 1)
        exit_parity = acc ^ restart[np.maximum.accumulate(np.where(self.attacked, 0, k + 1))]
        self.entry_parity = np.concatenate(([0], exit_parity[:-1])).astype(np.uint8)

    def _piece_parity(self, j, entry, i):
        """Parity at cycle offsets `j` in the program's pieces `i` (indices
        into the flattened table) of cycles entered with parity `entry`."""
        offset, kind, diff, before = (
            a.ravel()[i] for a in (self._offsets, self._kinds, self._diffs, self._before))
        parity = _flips(kind, diff, j - (offset - 1)).astype(np.uint8)
        parity ^= entry ^ before
        return parity

    def _attacked_parity(self, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Parity at offsets `j` of cycles `k`, were they attacked."""
        row = self.targets[k] * np.int64(self.cfg.cycle_slots + 1)
        i = np.searchsorted(self._row_starts, row + j, side="right") - 1
        return self._piece_parity(j, self.entry_parity[k], i)

    def pattern(self, lo: int, hi: int):
        """Pieces of [lo, hi), how the phase difference runs over each (see
        `optics.OpticalChain.pieces`) and the light each carries: (starts,
        kinds, tags), the first piece starting at `lo`.  An attacked
        cycle's pieces are those of its row of the phase program; a
        pass-through cycle's first slot follows the previous cycle's
        light, so it is a piece of its own, and the rest carries Alice's
        phases, drawn per slot.  Pieces with one tag carry one light: the
        tag names the program's row (a fourth row for a pass-through
        cycle) and column, for a cycle's first slot the previous cycle's
        light (vacuum before slot 0, Eve's or Alice's) and, in a
        pass-through cycle, its phase difference to that light."""
        C = self.cfg.cycle_slots
        k = np.arange(lo // C, (hi - 1) // C + 1)
        t = self.targets[k]
        attacked = self.attacked[k]
        starts = k[:, None] * C + self._offsets[t]
        kind = self._kinds[t]
        kind[~attacked, 1] = PER_SLOT
        tag = (np.where(attacked, t, 3)[:, None] * 5 + np.arange(5)) * 6
        prev = np.where(k == 0, 0, np.where(self.attacked[k - 1], 1, 2))
        bit = self.alice.parity_at(k * C) ^ self.entry_parity[k]
        tag[:, 0] += 2 * prev + (bit & ~attacked)
        used = self._used[t]
        starts, kind, tag = starts[used], kind[used], tag[used]
        held = slice(np.searchsorted(starts, lo, side="right") - 1, np.searchsorted(starts, hi))
        return np.maximum(starts[held], lo), kind[held], tag[held]

    def parity_at(self, slots: np.ndarray) -> np.ndarray:
        """Phase parities at the given slot indices, in closed form from
        the cycle schedule; Alice's source is consulted at the pass-through
        slots only."""
        k = slots // self.cfg.cycle_slots
        parity = self._attacked_parity(slots - k * self.cfg.cycle_slots, k)
        passing = np.flatnonzero(~self.attacked[k])
        parity[passing] = self.alice.parity_at(slots[passing])
        return parity

    def channel_fields(self, slots: np.ndarray):
        """(mean, parity, wavelength) arrays at the given slot indices."""
        cfg = self.cfg
        attacked = self.attacked[slots // cfg.cycle_slots]
        mean = np.where(attacked, cfg.blind_photons_per_slot, self.alice.mean)
        lam = np.where(attacked, cfg.blind_wavelength_nm, self.alice.wavelength_nm)
        return mean, self.parity_at(slots), lam


def validate_against_detectors(cfg: AttackConfig, recovery_slots: int) -> None:
    """Warn when the recovery window is too short for the detectors to
    become clickable -- a failing attack is a legitimate scenario."""
    if cfg.enabled and cfg.recovery_window_slots < recovery_slots:
        warnings.warn(
            f"recovery window of {cfg.recovery_window_slots} slots is shorter than "
            f"the detector recovery of {recovery_slots}; fake clicks will not fire",
            stacklevel=2,
        )
