"""Optical chain stages: the band-pass filter, the one-slot-delay Mach-Zehnder
interferometer, and the wavelength-dependent output couplers, and the chain
they form in front of the detectors.

Each stage maps arrays over slots.  All light is carried as a mean photon
number per slot; Poisson statistics enter only at the detectors.  A mean or
wavelength argument is either one value per slot or a single value for
all of them, so uniform light never builds a per-slot array.

`OpticalChain` is addressed by slot index: it evaluates the source at the
requested slots and at their predecessors and maps them to the four
detectors' incident means, with no state carried from slot to slot.  Over
a segment of constant source light every slot sees one of two levels per
detector, one per phase difference, so `pieces` gives the levels of a
whole slot range from two evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _prev(values, n: int, missing: np.ndarray):
    """Each requested slot's predecessor value: the previous slot's where
    that is the predecessor, else the extra one evaluated for it."""
    if not np.ndim(values):
        return values
    out = np.empty(n, dtype=values.dtype)
    out[1:] = values[: n - 1]
    out[missing] = values[n:]
    return out


@dataclass(frozen=True)
class OpticalChain:
    """Bob's receiver as a map from slot indices to the four detectors'
    incident means: source (`protocol.AliceSource` or `attack.AttackPlan`)
    -> band-pass filter -> interferometer -> couplers.  The source's mean
    and wavelength are constant over segments of `segment_slots` slots
    from slot 0; `flip_rng` draws the phase flips."""

    source: object
    bandpass: BandpassFilter
    coupler: CouplerModel
    phase_flip_prob: float
    flip_rng: object
    segment_slots: int

    def _fields(self, slots: np.ndarray):
        """(mean, mean_prev, dparity, wavelength) at sorted `slots`: the
        filtered mean of each slot and of its predecessor, and their phase
        parity difference before phase flips.  The source is evaluated
        once, at the slots and at those predecessors not among them."""
        n = len(slots)
        missing = np.ones(n, dtype=bool)
        missing[1:] = slots[1:] - 1 != slots[:-1]
        at = np.concatenate((slots, np.maximum(slots[missing] - 1, 0)))
        mean, parity, lam = self.source.channel_fields(at)
        mean = self.bandpass.apply(mean, lam)
        mean_prev = _prev(mean, n, missing)
        parity_prev = _prev(parity, n, missing)
        if n and slots[0] == 0:  # slot 0 interferes with vacuum
            mean_prev = np.array(np.broadcast_to(mean_prev, n))
            mean_prev[0] = parity_prev[0] = 0
        mean, lam = (v[:n] if np.ndim(v) else v for v in (mean, lam))
        return mean, mean_prev, parity[:n] ^ parity_prev, lam

    def _incidents(self, mean, mean_prev, dparity, lam):
        port1, port2 = mzi_ports(mean, 1.0 - 2.0 * dparity, mean_prev)
        return (*self.coupler.split(port1, lam), *self.coupler.split(port2, lam))

    def incidents_at(self, slots: np.ndarray):
        """The four detectors' incident means at sorted `slots`."""
        mean, mean_prev, dparity, lam = self._fields(slots)
        if self.phase_flip_prob > 0.0:
            dparity ^= self.flip_rng.uniform_at(slots) < self.phase_flip_prob
        return self._incidents(mean, mean_prev, dparity, lam)

    def pieces(self, lo: int, hi: int):
        """Split [lo, hi) into pieces of constant light and list the levels
        each can show: (starts, levels), where levels[d, i] holds detector
        d+1's incident mean in piece i at a phase difference of 0 and of
        pi.  Inside a segment a slot and its predecessor carry the same
        light, so every slot shows one of those two levels; a segment's
        first slot follows the previous segment's light, so it is a piece
        of its own."""
        P = self.segment_slots
        seg = np.arange(-(-lo // P) * P, hi, P)
        starts = np.unique(np.concatenate(([lo], seg, seg + 1)))
        starts = starts[starts < hi]
        mean, mean_prev, _, lam = self._fields(np.repeat(starts, 2))
        dparity = np.tile(np.array([0, 1], dtype=np.uint8), len(starts))
        levels = self._incidents(mean, mean_prev, dparity, lam)
        return starts, np.reshape(levels, (4, len(starts), 2))
