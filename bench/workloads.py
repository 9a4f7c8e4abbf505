"""The benchmark's workloads: each one a fully spelled-out scenario file.

Every physical parameter that a check relies on is written into the
scenario file explicitly, so the checks read the same numbers the program
was given and never depend on the package's defaults.  The values equal
the package's presets (`normal`, `partial-attack`) apart from the
overrides named in each workload.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

# Stock link calibration (see the `engine` module docstring).
STOCK_DETECTOR = {
    "efficiency": 0.06,
    "dark_prob_per_slot": 2.4532042261666024e-06,
    "dead_time_slots": 50,
    "blind_threshold_photons": 2.5e4,
    "recovery_slots": 8,
}

STOCK = {
    "clock_hz": 1e9,
    "mu": 0.2,
    "channel_loss_dB": 18.0,
    "phase_flip_prob": 0.007852123187681173,
    "signal_wavelength_nm": 1551.0,
    "filter": {"enabled": False},
    "coupler": {"center_wavelength_nm": 1551.0, "ratio_slope_per_nm": 0.0},
    "detectors": [dict(STOCK_DETECTOR) for _ in range(4)],
    "attack": {"enabled": False},
    "alice_mode": "random",
    "error_correction_f": 1.16,
    "alarm_fraction_threshold": 0.05,
}


@dataclass(frozen=True)
class Workload:
    name: str
    n_slots: int
    overrides: dict
    emit_clicks: bool

    def scenario(self, seed: int) -> dict:
        """The scenario file handed to `qkdsim run --config`."""
        cfg = copy.deepcopy(STOCK)
        for key, value in self.overrides.items():
            if key == "detectors.*":
                for det in cfg["detectors"]:
                    det.update(value)
            else:
                cfg[key] = copy.deepcopy(value)
        cfg["n_slots"] = self.n_slots
        cfg["seed"] = seed
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        # `normal` preset: honest link, random Alice, phase flips on.
        Workload("honest-link", 10_000_000, {}, emit_clicks=False),
        # `partial-attack` preset: half of the 10,000-slot cycles attacked.
        # 1e8 slots is 1e4 cycles, the scale at which the attacked-fraction
        # estimate is held to +/-0.05.
        Workload(
            "attack-partial",
            100_000_000,
            {
                "alice_mode": "static_0pi",
                "phase_flip_prob": 0.0,
                "attack": {
                    "enabled": True,
                    "mode": "emulation",
                    "blind_photons_per_slot": 5.0e4,
                    "blinding_slots": 9990,
                    "recovery_window_slots": 10,
                    "attacked_fraction": 0.5,
                    "blind_wavelength_nm": 1551.0,
                },
            },
            emit_clicks=True,
        ),
        # `normal` preset with no channel loss and efficient detectors:
        # about one click per 23 slots.
        Workload(
            "dense-clicks",
            5_000_000,
            {"channel_loss_dB": 0.0, "detectors.*": {"efficiency": 0.5}},
            emit_clicks=True,
        ),
    )
}


def scenario_seed(workload: str, seed: int, index: int) -> int:
    """Config seed of the `index`-th scenario of a run started with `seed`."""
    return random.Random(f"{workload}/{seed}/{index}").getrandbits(63)
