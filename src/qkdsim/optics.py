"""Optical chain stages: the band-pass filter, the one-slot-delay Mach-Zehnder
interferometer, and the wavelength-dependent output couplers, and the chain
they form in front of the detectors.

Each stage maps arrays over slots, and every source gives its mean,
phase parity and wavelength as one value per slot.  All light is carried
as a mean photon number per slot; Poisson statistics enter only at the
detectors.

`OpticalChain` is addressed by slot index, with no state carried from
slot to slot.  The source describes its light in closed form
(`pattern`): pieces over which a slot and its predecessor carry the same
light and the phase difference is constant, alternates, or is drawn per
slot, each tagged with the light it carries.  A run repeats a few lights
over many pieces (an attacked cycle is one phase program), so each piece
carries a light type, a row of the chain's `Lights`: the first piece of
a new tag is evaluated, at its first slot and its predecessor (slot 0's
is vacuum), as two levels per detector: the levels its even and its odd
offsets show, or, where the difference is drawn per slot, the levels at
difference 0 and pi.  `shown` tells which of the two a slot shows, so a
slot's incident mean is read from its piece's type, never recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# How the phase difference runs over a piece of slots: the piece's first
# difference throughout, alternating from it, or drawn per slot.
CONSTANT, ALTERNATING, PER_SLOT = 0, 1, 2


@dataclass(frozen=True)
class CouplerModel:
    """50:50 coupler with a linear wavelength dependence of its split ratio.

    The splitting ratio is r(lam) = clamp(0.5 + slope * (lam - center), 0, 1),
    exactly 0.5 on center.  The slope has no measured value; it exists so a
    detuned-wavelength attack on the couplers can be expressed at all.
    """

    center_wavelength_nm: float = 1551.0
    ratio_slope_per_nm: float = 0.0

    def ratio(self, wavelength_nm):
        if self.ratio_slope_per_nm == 0.0:
            return 0.5
        return np.clip(
            0.5 + self.ratio_slope_per_nm * (wavelength_nm - self.center_wavelength_nm),
            0.0,
            1.0,
        )

    def split(self, port, wavelength_nm):
        """Split one port's light between its detector pair.

        Returns (det_a, det_b) with det_a the ratio-r share.  Both are
        non-negative and det_a + det_b == port exactly in floating point.
        """
        det_b = port - self.ratio(wavelength_nm) * port
        return port - det_b, det_b


@dataclass(frozen=True)
class BandpassFilter:
    """Optical band-pass in front of the interferometer.

    In-band light (|lam - center| <= width/2) passes untouched; out-of-band
    light is attenuated by `out_of_band_suppression_dB`.  A disabled filter
    is the identity.
    """

    enabled: bool = False
    center_nm: float = 1551.0
    width_nm: float = 2.0
    out_of_band_suppression_dB: float = 40.0

    def __post_init__(self):
        if self.width_nm <= 0.0:
            raise ValueError("filter width_nm must be > 0")
        if self.out_of_band_suppression_dB < 0.0:
            raise ValueError("out_of_band_suppression_dB must be >= 0")

    def apply(self, mean, wavelength_nm):
        """Mean photons per slot behind the filter; `mean` itself when all
        of the light is in band or the filter is disabled."""
        if not self.enabled:
            return mean
        out_of_band = np.abs(wavelength_nm - self.center_nm) > self.width_nm / 2.0
        if not out_of_band.any():
            return mean
        return np.where(
            out_of_band, mean * 10.0 ** (-self.out_of_band_suppression_dB / 10.0), mean
        )


def mzi_ports(mean, cos_dphi, mean_prev):
    """Output-port intensities (port1, port2) of the lossless interferometer.

    Each pulse splits between the short and the delayed arm, so slot k
    combines the amplitude sqrt(m_k) e^{i phi_k} with its predecessor's
    sqrt(m_{k-1}) e^{i phi_{k-1}}, each port taking a quarter share:

        port1/2 = (m_k + m_{k-1} +/- 2 sqrt(m_k m_{k-1}) cos dphi_k) / 4

    `cos_dphi` is cos(phi_k - phi_{k-1}) and `mean_prev` the predecessor's
    mean m_{k-1} (0 before the run's first slot, which interferes with
    vacuum), both per slot.  dphi = 0 routes an equal-mean pair fully to
    port 1, dphi = pi fully to port 2.
    """
    cross = 2.0 * np.sqrt(mean) * np.sqrt(mean_prev) * cos_dphi
    base = mean + mean_prev
    return np.maximum((base + cross) * 0.25, 0.0), np.maximum((base - cross) * 0.25, 0.0)


class Pieces(NamedTuple):
    """A slot range split into pieces of constant light (see
    `OpticalChain.pieces`), each carrying a light type: a row of the
    chain's `Lights`.  `types` is left out by the chain; the engine adds
    what the detectors make of each light type (`engine.Types`)."""

    starts: np.ndarray  # first slot of each piece, the first at the range's start
    light: np.ndarray   # the light type (a row of `OpticalChain.lights`) of piece i
    types: object = None


class Lights:
    """The distinct lights of a run, one row per light type, added as
    `OpticalChain.pieces` meets them.  Row r holds the four detectors'
    incident means at the even and the odd offsets of a piece of type r,
    or, in a per-slot piece, at phase difference 0 and pi (`levels`,
    [d, r, 2]).  `row` maps the source's tags to rows, -1 where no piece
    has carried the tag yet."""

    def __init__(self, n_tags: int):
        self.row = np.full(n_tags, -1, dtype=np.intp)
        self.levels = np.empty((4, 0, 2))
        self.per_slot = np.empty(0, dtype=bool)


@dataclass(frozen=True)
class OpticalChain:
    """Bob's receiver, source (`protocol.AliceSource` or
    `attack.AttackPlan`) -> band-pass filter -> interferometer ->
    couplers, as the four detectors' incident means per type of light
    (`lights`).  `flip_rng` draws the phase flips."""

    source: object
    bandpass: BandpassFilter
    coupler: CouplerModel
    phase_flip_prob: float
    flip_rng: object
    lights: Lights = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lights", Lights(self.source.n_tags))

    def _fields(self, slots: np.ndarray):
        """(mean, mean_prev, dparity, wavelength) at `slots`: the filtered
        mean of each slot and of its predecessor, and their phase parity
        difference before phase flips.  Slot 0 interferes with vacuum: its
        predecessor is evaluated at slot 0 itself and its mean set to 0."""
        n = len(slots)
        mean, parity, lam = self.source.channel_fields(
            np.concatenate((slots, slots - 1 + (slots == 0))))
        mean = self.bandpass.apply(mean, lam)
        mean_prev = np.where(slots == 0, 0.0, mean[n:])
        return mean[:n], mean_prev, parity[:n] ^ parity[n:], lam[:n]

    def shown(self, pieces: Pieces, slots: np.ndarray, piece: np.ndarray) -> np.ndarray:
        """Which of its light's two levels each of `slots` (sorted, in the
        pieces `piece`) shows: its offset parity in a patterned piece, and
        in a per-slot piece its phase-difference bit, flips included, from
        the source's parities at the slot and its predecessor."""
        if self.lights.per_slot.all():
            return self._bits(slots)
        per_slot = self.lights.per_slot[pieces.light[piece]]
        shown = (slots - pieces.starts[piece]) & 1
        at = np.flatnonzero(per_slot)
        shown[at] = self._bits(slots[at])
        return shown

    def _bits(self, slots: np.ndarray) -> np.ndarray:
        """The phase-difference bit at `slots`, phase flips included."""
        parity = self.source.parity_at(np.concatenate((slots, slots - 1 + (slots == 0))))
        bit = parity[:len(slots)] ^ parity[len(slots):]
        if self.phase_flip_prob > 0.0:
            bit ^= self.flip_rng.uniform_at(slots) < self.phase_flip_prob
        return bit

    def pieces(self, lo: int, hi: int) -> Pieces:
        """Split [lo, hi) at the source's pattern boundaries, each piece
        with its light type.  The source splits wherever a slot's light or
        its predecessor's changes, and tags each piece so that pieces with
        one tag carry one light (`pattern`), so every slot of a piece shows
        one of its type's two levels per detector (`shown`): slot start + t
        of a constant or alternating piece its level t & 1, a slot of a
        per-slot piece its level at its phase-difference bit.  `lo` lies at
        a piece start or an even offset into its piece (`engine.chunks`).
        A tag met for the first time is evaluated at its first piece."""
        starts, kind, tag = self.source.pattern(lo, hi)
        light = self.lights.row[tag]
        new = np.flatnonzero(light < 0)
        if len(new):
            self._add(starts[new], kind[new], tag[new])
            light = self.lights.row[tag]
        return Pieces(starts, light)

    def _add(self, starts: np.ndarray, kind: np.ndarray, tag: np.ndarray):
        """Add a row to `lights` for each tag among `tag`, evaluated at the
        first of the pieces `starts` that carries it.  Phase flips make
        every piece per-slot."""
        order = np.argsort(tag, kind="stable")
        first = order[np.append(True, tag[order][1:] != tag[order][:-1])]
        if self.phase_flip_prob > 0.0:
            kind = np.full_like(kind, PER_SLOT)
        kind = kind[first, None]
        mean, mean_prev, dparity, lam = (v[:, None] for v in self._fields(starts[first]))
        # Offset t of a piece shows the difference it was evaluated at,
        # flipped by t if the piece alternates.  A per-slot piece holds the
        # levels at 0 and pi.
        t = np.array([0, 1], dtype=np.uint8)
        shown = np.where(kind == PER_SLOT, t, dparity ^ (t & (kind == ALTERNATING)))
        port1, port2 = mzi_ports(mean, 1.0 - 2.0 * shown, mean_prev)
        levels = np.stack((*self.coupler.split(port1, lam), *self.coupler.split(port2, lam)))
        lights = self.lights
        lights.row[tag[first]] = len(lights.per_slot) + np.arange(len(first))
        lights.levels = np.concatenate((lights.levels, levels), axis=1)
        lights.per_slot = np.concatenate((lights.per_slot, kind.ravel() == PER_SLOT))
