"""Optical chain stages: the band-pass filter, the one-slot-delay Mach-Zehnder
interferometer, and the wavelength-dependent output couplers.

Each stage maps arrays over a chunk of consecutive slots.  All light is
carried as a mean photon number per slot; Poisson statistics enter only at
the detectors.  A wavelength argument is either one value per slot or a
single value for the whole chunk, so a chunk of uniform signal light never
builds a wavelength array.
"""

from __future__ import annotations

import math
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


def mzi_ports(mean: np.ndarray, cos_dphi: np.ndarray, prev_mean: float):
    """Output-port intensities (port1, port2) of the lossless interferometer.

    Each pulse splits between the short and the delayed arm, so slot k
    combines the amplitude sqrt(m_k) e^{i phi_k} with its predecessor's
    sqrt(m_{k-1}) e^{i phi_{k-1}}, each port taking a quarter share:

        port1/2 = (m_k + m_{k-1} +/- 2 sqrt(m_k m_{k-1}) cos dphi_k) / 4

    `cos_dphi[k]` is cos(phi_k - phi_{k-1}) and `prev_mean` the mean of the
    slot before the chunk (0 for the run's first slot, which interferes
    with vacuum).  dphi = 0 routes an equal-mean pair fully to port 1,
    dphi = pi fully to port 2.
    """
    amp = np.sqrt(mean)
    amp_shift = np.empty_like(amp)
    amp_shift[0] = math.sqrt(prev_mean)
    amp_shift[1:] = amp[:-1]
    mean_shift = np.empty_like(mean)
    mean_shift[0] = prev_mean
    mean_shift[1:] = mean[:-1]
    cross = 2.0 * amp * amp_shift * cos_dphi
    base = mean + mean_shift
    port1 = (base + cross) * 0.25
    port2 = (base - cross) * 0.25
    np.maximum(port1, 0.0, out=port1)
    np.maximum(port2, 0.0, out=port2)
    return port1, port2
