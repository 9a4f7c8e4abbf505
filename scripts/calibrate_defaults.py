#!/usr/bin/env python3
"""Derive (and optionally verify by simulation) the calibrated defaults.

Two knobs are fixed by design targets rather than measured hardware:

* the dark-count probability is back-solved so the honest coincidence
  estimate mu*T*eta/4 + d lands exactly on the 5.0e-5 operating point;
* the interferometer-imperfection knob (per-slot phase-flip probability)
  is solved from qber = (d + flip * p) / (p + 2d) with p the per-detector
  click probability, so the simulated QBER centers on 3.2%.

Prints the derived constants and checks them against the shipped defaults,
`DetectorParams()` and `ScenarioConfig()`, which every run without its
own values uses; with --verify also runs the stock scenario and reports
the simulated QBER.
"""

import argparse
import math
import sys

from qkdsim.detector import DetectorParams
from qkdsim.engine import ScenarioConfig, run_scenario

CCR_TARGET = 5.0e-5
QBER_TARGET = 0.032


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--verify", action="store_true",
                    help="simulate 1e8 slots and report the achieved QBER")
    ap.add_argument("--seed", type=int, default=20260808)
    args = ap.parse_args()

    link, det = ScenarioConfig(), DetectorParams()
    mu, T, eta = link.mu, link.transmission, det.efficiency
    dark = CCR_TARGET - 0.25 * mu * T * eta
    p_click = 1.0 - math.exp(-(mu * T / 2.0) * eta)
    flip = (QBER_TARGET * (p_click + 2.0 * dark) - dark) / p_click

    print(f"efficiency          = {eta}")
    print(f"dark_prob_per_slot  = {dark!r}")
    print(f"phase_flip_prob     = {flip!r}")
    print(f"coincidence est.    = {0.25 * mu * T * eta + dark!r}")
    print(f"dark-only QBER      = {dark / (p_click + 2 * dark):.4f}")

    drift = max(
        abs(dark - det.dark_prob_per_slot) / det.dark_prob_per_slot,
        abs(flip - link.phase_flip_prob) / link.phase_flip_prob,
    )
    if drift > 1e-9:
        print(f"WARNING: shipped defaults drift from derivation by {drift:.2e}")
        return 1

    if args.verify:
        cfg = ScenarioConfig(n_slots=100_000_000, seed=args.seed)
        _, m = run_scenario(cfg)
        print(f"simulated QBER      = {m.qber:.5f} over K_sift={m.K_sift}"
              f" (target {QBER_TARGET} +/- 0.004)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
