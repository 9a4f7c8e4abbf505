"""Differential-phase-shift protocol roles and post-processing.

Alice sends a per-slot {0, pi} phase sequence; the key bit of slot s
is the phase difference to slot s-1 (0 -> bit 0, pi -> bit 1).  Bob's bit
is the port that clicked: detectors 1/2 sit on port 1 (bit 0), detectors
3/4 on port 2 (bit 1).

Sifting keeps slots with exactly one click.  Same-slot double clicks
inside one detector pair are the countermeasure's alarm events: they are
tallied per pair and excluded from the key.  Slots with clicks at both
ports carry no bit and are discarded, as are slot-0 clicks (no
predecessor phase).

The measured conditional coincidence rate of a pair is
2*N_coinc / (N_a + N_b), where each coincidence contributes one click to
each detector's count; the expected rate under honest operation is
estimated as mu*T*eta/4 + d.  The secure key length applies the
individual-attack bound with the estimated attacked-bit fraction
(CCR_measured - CCR_estimated) subtracted from the secure fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .optics import CONSTANT, PER_SLOT
from .rng import SlotRng

PAIR_DETECTORS = {"A": (1, 2), "B": (3, 4)}


class NoDataError(ValueError):
    """An estimator was asked for a quantity with no supporting events."""


class AliceSource:
    """Alice's pulses, phase parities and key bits, by slot index.

    `random` draws each phase uniformly from {0, pi} from the seeded
    stream; `static_0pi` alternates 0, pi, 0, pi (the attack-emulation
    pattern, whose per-slot key bit is always 1).  `mean` and
    `wavelength_nm` describe every pulse as it reaches Bob.
    """

    def __init__(self, mode: str, rng: SlotRng, mean: float = 0.0,
                 wavelength_nm: float = 1551.0):
        if mode not in ("random", "static_0pi"):
            raise ValueError(f"unknown alice mode {mode!r}")
        self.mode = mode
        self.rng = rng
        self.mean = mean
        self.wavelength_nm = wavelength_nm

    def channel_fields(self, slots):
        """(mean, parity, wavelength) at the given slot indices; mean and
        wavelength are the same scalars for every slot."""
        return self.mean, self.parity_at(slots), self.wavelength_nm

    def pattern(self, lo: int, hi: int):
        """Pieces of [lo, hi) and how the phase difference runs over each
        (see `optics.OpticalChain.pieces`): per slot for random phases,
        constant (pi) for the 0, pi alternation.  Slot 0 follows vacuum,
        so it is a piece of its own."""
        starts = np.array([lo, 1] if lo == 0 and hi > 1 else [lo], dtype=np.int64)
        kind = PER_SLOT if self.mode == "random" else CONSTANT
        return starts, np.full(len(starts), kind, dtype=np.int8)

    def parity_at(self, slots):
        s = np.asarray(slots, dtype=np.int64)
        if self.mode == "random":
            return self.rng.bit_at(s.astype(np.uint64))
        return (s % 2).astype(np.uint8)

    def key_bits_at(self, slots: np.ndarray) -> np.ndarray:
        """Key bits of slots >= 1 (phase difference to the predecessor)."""
        if self.mode == "static_0pi":
            return np.ones(len(slots), dtype=np.uint8)
        return self.parity_at(slots) ^ self.parity_at(slots - 1)


@dataclass(frozen=True)
class ClickLog:
    """Time-ordered click record; the single source of truth for estimators."""

    slots: np.ndarray        # int64, non-decreasing
    detector_ids: np.ndarray  # int8 in 1..4; ties in slot are ordered by id

    def __post_init__(self):
        if len(self.slots) != len(self.detector_ids):
            raise ValueError("slots and detector_ids must have equal length")

    def __len__(self) -> int:
        return len(self.slots)

    @classmethod
    def merge(cls, detector_slots) -> "ClickLog":
        """One log from each detector's click slots (`detector_slots[i]`
        holds detector i+1's), ordered by slot and then detector id."""
        slots = np.concatenate(detector_slots).astype(np.int64, copy=False)
        dets = np.repeat(
            np.arange(1, len(detector_slots) + 1, dtype=np.int8),
            [len(d) for d in detector_slots],
        )
        order = np.lexsort((dets, slots))
        return cls(slots=slots[order], detector_ids=dets[order])

    @classmethod
    def concat(cls, logs) -> "ClickLog":
        """One log from the logs of consecutive, disjoint slot ranges."""
        return cls(slots=np.concatenate([log.slots for log in logs]),
                   detector_ids=np.concatenate([log.detector_ids for log in logs]))

    def counts_per_detector(self) -> tuple[int, int, int, int]:
        return tuple(int(np.count_nonzero(self.detector_ids == d)) for d in (1, 2, 3, 4))

    def write_csv(self, path) -> None:
        pairs = np.column_stack((self.slots, self.detector_ids)).ravel().tolist()
        with open(path, "w", encoding="utf-8") as f:
            f.write("slot,detector_id\n" + ("%d,%d\n" * len(self)) % tuple(pairs))


@dataclass
class SiftResult:
    """Outcome of sifting a click log against Alice's key bits.

    Every kept slot had exactly one clicking detector; `coincidence_counts`
    tallies same-slot double clicks within pair A = (Det1, Det2) and
    pair B = (Det3, Det4).  The extra click counters make the accounting
    identity singles + 2*coincidences + multiport_clicks + slot0_clicks
    == total log events testable.
    """

    alice_bits: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint8))
    bob_bits: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint8))
    kept_slots: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    coincidence_counts: dict = field(default_factory=lambda: {"A": 0, "B": 0})
    singles_counts: dict = field(default_factory=lambda: {1: 0, 2: 0, 3: 0, 4: 0})
    discarded_multiport: int = 0
    discarded_multiport_clicks: int = 0
    slot0_clicks: int = 0

    def __len__(self) -> int:
        return len(self.kept_slots)


def sift(log: ClickLog, key_bits_at) -> SiftResult:
    """Sift a click log into key bits and coincidence statistics.

    `key_bits_at` maps an array of slots >= 1 to Alice's key bits there.
    """
    result = SiftResult()
    if len(log) == 0:
        return result
    slots, dets = log.slots, log.detector_ids
    # One group per distinct slot: its first click, click count and how
    # many of its clicks are at port 2.
    first = np.flatnonzero(np.concatenate(([True], slots[1:] != slots[:-1])))
    size = np.diff(np.append(first, len(slots)))
    at_port2 = np.add.reduceat((dets >= 3).astype(np.int64), first)
    slot = slots[first]

    slot0 = slot == 0
    single = (size == 1) & ~slot0
    multi = (size > 1) & ~slot0
    multiport = multi & (at_port2 > 0) & (at_port2 < size)
    result.slot0_clicks = int(size[slot0].sum())
    result.discarded_multiport = int(np.count_nonzero(multiport))
    result.discarded_multiport_clicks = int(size[multiport].sum())
    result.coincidence_counts = {
        "A": int(np.count_nonzero(multi & (at_port2 == 0))),
        "B": int(np.count_nonzero(multi & (at_port2 == size))),
    }

    single_dets = dets[first[single]]
    counts = np.bincount(single_dets, minlength=5)
    result.singles_counts = {d: int(counts[d]) for d in (1, 2, 3, 4)}
    result.kept_slots = slot[single]
    result.bob_bits = (single_dets >= 3).astype(np.uint8)
    result.alice_bits = key_bits_at(result.kept_slots)
    return result


def qber(result: SiftResult) -> float:
    """Bit error rate of the sifted key; undefined on an empty sift."""
    n = len(result)
    if n == 0:
        raise NoDataError("empty sifted key: QBER is undefined")
    return float(np.count_nonzero(result.alice_bits != result.bob_bits)) / n


def ccr_estimate(mu: float, T: float, eta: float, d: float) -> float:
    """Expected conditional coincidence rate under honest operation:
    mu*T*eta/4 + d."""
    if mu < 0.0 or not 0.0 < T <= 1.0 or not 0.0 <= eta <= 1.0 or not 0.0 <= d < 1.0:
        raise ValueError("ccr_estimate arguments out of range")
    return 0.25 * mu * T * eta + d


def ccr_measure(result: SiftResult, pair: str) -> float:
    """Measured conditional coincidence rate of one detector pair.

    2*N_coinc / (N_a + N_b) with each coincidence contributing one click to
    each detector's count; 1.0 iff every click of the pair was coincident.
    """
    det_a, det_b = PAIR_DETECTORS[pair]
    n_coinc = result.coincidence_counts[pair]
    n_a = result.singles_counts[det_a] + n_coinc
    n_b = result.singles_counts[det_b] + n_coinc
    if n_a + n_b == 0:
        raise NoDataError(f"pair {pair} has no clicks: CCR is undefined")
    return 2.0 * n_coinc / (n_a + n_b)


@dataclass(frozen=True)
class KeyRateInputs:
    """Everything the secure-key-length bound consumes."""

    K_sift: int
    mu: float
    T: float
    eta: float
    e: float
    f_e: float = 1.16
    CCR_exp: float = 0.0
    CCR_est: float = 0.0

    def __post_init__(self):
        if self.K_sift < 0:
            raise ValueError("K_sift must be >= 0")
        if self.mu < 0.0 or not 0.0 < self.T <= 1.0 or not 0.0 < self.eta <= 1.0:
            raise ValueError("mu/T/eta out of range")
        if not 0.0 <= self.e < 0.5:
            raise ValueError("e must be in [0, 0.5)")
        if self.f_e < 1.0:
            raise ValueError("f_e must be >= 1")
        if not 0.0 <= self.CCR_exp <= 1.0 or not 0.0 <= self.CCR_est <= 1.0:
            raise ValueError("CCR values must be in [0, 1]")


def binary_entropy(e: float) -> float:
    if e <= 0.0 or e >= 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def secure_fraction(inputs: KeyRateInputs) -> float:
    """Secure fraction of the sifted key under the individual-attack bound.

    (1 - 2 mu (1 - eta T)) * (-log2(1 - e^2 - (1-6e)^2/2))
      - f(e) h(e) - (CCR_exp - CCR_est)

    Raises ValueError outside the bound's domain (e >= 1/6, or a
    non-positive collision-probability argument).
    """
    e = inputs.e
    if e >= 1.0 / 6.0:
        raise ValueError("secure fraction undefined for e >= 1/6")
    collision_arg = 1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0
    if collision_arg <= 0.0:
        raise ValueError("collision-probability log argument <= 0")
    coeff = 1.0 - 2.0 * inputs.mu * (1.0 - inputs.eta * inputs.T)
    return (
        coeff * (-math.log2(collision_arg))
        - inputs.f_e * binary_entropy(e)
        - (inputs.CCR_exp - inputs.CCR_est)
    )


def secure_key_length(**fields) -> tuple[int, str]:
    """Secure key length max(0, floor(K_sift * secure_fraction)) for the
    `KeyRateInputs` fields, and why it is 0 whenever it is: an empty key,
    inputs outside the bound's domain, or a fraction too small."""
    K_sift = fields["K_sift"]
    if K_sift == 0:
        return 0, "empty sifted key"
    try:
        s = secure_fraction(KeyRateInputs(**fields))
    except ValueError as exc:
        return 0, f"secure-key bound undefined: {exc}"
    if s <= 0.0:
        return 0, "secure fraction is not positive"
    length = math.floor(K_sift * s)
    return length, "" if length else f"secure fraction {s:.4g} of {K_sift} sifted bits floors to 0"


def attack_fraction_estimate(CCR_exp: float, CCR_est: float) -> float:
    """Fraction of bits under detector control implied by the coincidence
    excess, clamped to [0, 1]."""
    if not 0.0 <= CCR_exp <= 1.0 or not 0.0 <= CCR_est <= 1.0:
        raise ValueError("CCR values must be in [0, 1]")
    if CCR_est == 1.0:
        raise ValueError("CCR_est = 1 leaves the attacked fraction undetermined")
    return min(1.0, max(0.0, (CCR_exp - CCR_est) / (1.0 - CCR_est)))


@dataclass(frozen=True)
class PairBalance:
    detector_counts: tuple[int, int]
    z_score: float
    flagged: bool


def detector_statistics_check(result: SiftResult, tolerance_sigma: float) -> dict:
    """Flag pairs whose singles counts are unbalanced beyond tolerance.

    Under an even split the count difference has standard deviation
    sqrt(n_a + n_b); a detuned-wavelength attack that blinds only one
    detector of a pair shows up here.
    """
    total = sum(result.singles_counts.values())
    if total < 100:
        raise ValueError("need >= 100 clicks for a balance check")
    out = {}
    for pair, (det_a, det_b) in PAIR_DETECTORS.items():
        n_a = result.singles_counts[det_a]
        n_b = result.singles_counts[det_b]
        n = n_a + n_b
        z = abs(n_a - n_b) / math.sqrt(n) if n else 0.0
        out[pair] = PairBalance(
            detector_counts=(n_a, n_b), z_score=z, flagged=z > tolerance_sigma
        )
    return out
