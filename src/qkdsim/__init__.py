"""Slot-clocked simulator of a differential-phase-shift QKD link, the
bright-light detector-control attack on its paired single-photon
detectors, and the coincidence-monitoring countermeasure."""

from .attack import AttackConfig
from .detector import DetectorParams
from .engine import (
    ConfigError,
    RunMetrics,
    ScenarioConfig,
    config_with,
    run_scenario,
    run_sweep,
)
from .optics import BandpassFilter, CouplerModel
from .protocol import ClickLog

__version__ = "0.1.0"
