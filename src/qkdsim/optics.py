"""Optical chain stages: the band-pass filter, the one-slot-delay Mach-Zehnder
interferometer, and the wavelength-dependent output couplers, and the chain
they form in front of the detectors.

Each stage maps arrays over slots, and every source gives its mean,
phase parity and wavelength as one value per slot.  All light is carried
as a mean photon number per slot; Poisson statistics enter only at the
detectors.

`OpticalChain` is addressed by slot index: it evaluates the source once
at each distinct slot among the requested slots and their predecessors
(slot 0's is vacuum), and maps them to the four detectors' incident
means, with no state carried from slot to slot.  The source also
describes its light in closed form (`pattern`): pieces over which a slot
and its predecessor carry the same light and the phase difference is
constant, alternates, or is drawn per slot.  Every slot of a piece then
shows one of two levels per detector, one per phase difference, so
`pieces` gives the levels of a whole slot range from two evaluations,
and says which difference each slot of a patterned piece shows without
evaluating it.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    `OpticalChain.pieces`)."""

    starts: np.ndarray  # first slot of each piece, the first at the range's start
    levels: np.ndarray  # [d, i, dphi]: detector d+1's incident mean at difference 0, pi
    diff: np.ndarray    # phase difference (0 or 1) of each piece's first slot
    kind: np.ndarray    # CONSTANT, ALTERNATING or PER_SLOT


@dataclass(frozen=True)
class OpticalChain:
    """Bob's receiver as a map from slot indices to the four detectors'
    incident means: source (`protocol.AliceSource` or `attack.AttackPlan`)
    -> band-pass filter -> interferometer -> couplers.  `flip_rng` draws
    the phase flips."""

    source: object
    bandpass: BandpassFilter
    coupler: CouplerModel
    phase_flip_prob: float
    flip_rng: object

    def _fields(self, slots: np.ndarray):
        """(mean, mean_prev, dparity, wavelength) at sorted, distinct
        `slots`: the filtered mean of each slot and of its predecessor, and
        their phase parity difference before phase flips.  The source is
        evaluated once per distinct slot: at the slots, and at the
        predecessors that are not the slot before in `slots`; slot 0
        interferes with vacuum."""
        n = len(slots)
        # Positions whose predecessor is not the slot before in `slots`
        # (slot 0's is vacuum); only those predecessors are evaluated apart.
        apart = np.flatnonzero(slots[1:] - 1 != slots[:-1]) + 1
        if n and slots[0] != 0:
            apart = np.concatenate(([0], apart))
        mean, parity, lam = self.source.channel_fields(
            np.concatenate((slots, slots[apart] - 1)))
        mean = self.bandpass.apply(mean, lam)
        mean_prev, dparity = np.zeros(n), np.zeros(n, dtype=parity.dtype)
        mean_prev[1:], dparity[1:] = mean[:n - 1], parity[:n - 1]
        mean_prev[apart], dparity[apart] = mean[n:], parity[n:]
        dparity ^= parity[:n]
        return mean[:n], mean_prev, dparity, lam[:n]

    def _incidents(self, mean, mean_prev, dparity, lam):
        port1, port2 = mzi_ports(mean, 1.0 - 2.0 * dparity, mean_prev)
        return (*self.coupler.split(port1, lam), *self.coupler.split(port2, lam))

    def incidents_at(self, slots: np.ndarray):
        """The four detectors' incident means at sorted, distinct `slots`."""
        mean, mean_prev, dparity, lam = self._fields(slots)
        if self.phase_flip_prob > 0.0:
            dparity ^= self.flip_rng.uniform_at(slots) < self.phase_flip_prob
        return self._incidents(mean, mean_prev, dparity, lam)

    def pieces(self, lo: int, hi: int) -> Pieces:
        """Split [lo, hi) at the source's pattern boundaries.  The source
        splits wherever a slot's light or its predecessor's changes, so
        every slot of a piece shows one of the piece's two levels per
        detector; in a CONSTANT or ALTERNATING piece, slot start + t shows
        the phase difference diff ^ (t & 1 if alternating).  Phase flips
        make every piece PER_SLOT."""
        starts, kind = self.source.pattern(lo, hi)
        if self.phase_flip_prob > 0.0:
            kind = np.full_like(kind, PER_SLOT)
        mean, mean_prev, dparity, lam = (v[:, None] for v in self._fields(starts))
        levels = self._incidents(mean, mean_prev, np.array([[0, 1]], dtype=np.uint8), lam)
        return Pieces(starts, np.stack(levels), dparity[:, 0], kind)
