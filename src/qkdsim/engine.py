"""Scenario runner: a pipeline of one call per physical stage.

The link is an index-addressed chain (`optics.OpticalChain`): source or
attack fields (`protocol.AliceSource`, `attack.AttackPlan`) -> band-pass
filter -> interferometer -> couplers, evaluated at any sorted, distinct
slots, each slot's predecessor evaluated with it rather than carried.
Each chunk of slots is split into pieces of constant light with known
incident levels, at the boundaries of the source's phase-difference
pattern.  Where that pattern is closed form (an attacked cycle, or
Alice's 0, pi alternation) and free of phase flips, a patterned piece's
bright slots are a run of step 1 or 2, read off its levels; only
per-slot pieces with a level at some blinding threshold (bright honest
light, or attacks with phase flips) are evaluated slot by slot.  Each
detector's runs are merged into latched spans
(`detector.latched_spans`), and the detector stage
(`detector.simulate_block`) thins the live dim slots between spans
against their pieces' escape bounds and evaluates the chain once, at the
survivors.  The merged click log is sifted once (`protocol.sift`) and
reduced to metrics.  Only the detectors' state carries from chunk to
chunk, and every random draw is counter-based (see `rng`), so the click
log and metrics are byte-identical for a given config regardless of
chunking or sweep parallelism.

`CHUNK_SLOTS` is the work budget of a chunk (`chunk_bounds`).  An honest
run is cut every 2^16 slots, which keeps each per-slot temporary at
512 kB, in a typical L2 cache.  Under an attack plan a chunk ends once
it holds 2^16 units of work: each slot that gets a per-slot array (a
live dim slot that a detector draws at, or a slot evaluated one by one)
is a unit, and so is each piece, which bounds the pieces of a chunk.
An attacked cycle without phase flips is latched but for its recovery
window and a few single slots, so it weighs about 17 units instead of
its 10,000 slots, and an all-attacked stretch runs in a few chunks
instead of paying fixed per-chunk overhead every 2^16 slots.

Default calibration
-------------------
The stock link is 0.2 photons per pulse through 18 dB of loss at a 1 GHz
clock.  Detector efficiency and dark rate are set so the honest
conditional-coincidence estimate mu*T*eta/4 + d lands exactly on 5.0e-5,
and the interferometer-imperfection knob (a per-slot phase-flip
probability on Bob's inferred phase difference) is tuned so the simulated
QBER centers on 3.2%:

    qber = (d + flip * p_click) / (p_click + 2 d),
    p_click = 1 - exp(-(mu T / 2) eta)

With eta = 0.06: d = 5.0e-5 - mu*T*eta/4 = 2.4532e-6 and flip = 7.852e-3.
(A 10% device efficiency with ~2 dB of receiver insertion loss gives the
same effective eta; only the product matters here.)
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .attack import AttackConfig, AttackPlan, eve_outcome, validate_against_detectors
from .detector import BlockState, DetectorParams, latched_spans, simulate_block, slot_ranges
from .optics import ALTERNATING, PER_SLOT, BandpassFilter, CouplerModel, OpticalChain, Pieces
from .protocol import (
    AliceSource,
    ClickLog,
    NoDataError,
    SiftResult,
    attack_fraction_estimate,
    ccr_estimate,
    ccr_measure,
    qber,
    secure_key_length,
    sift,
)
from .rng import RunStreams, child_seed

CHUNK_SLOTS = 1 << 16
_INT_LIMIT = 1 << 62

DEFAULT_MU = 0.2
DEFAULT_LOSS_DB = 18.0
DEFAULT_EFFICIENCY = 0.06
CCR_TARGET = 5.0e-5
DEFAULT_DARK_PROB = CCR_TARGET - 0.25 * DEFAULT_MU * 10.0 ** (
    -DEFAULT_LOSS_DB / 10.0
) * DEFAULT_EFFICIENCY
DEFAULT_PHASE_FLIP_PROB = 7.852123187681173e-3


def default_detector() -> DetectorParams:
    return DetectorParams(
        efficiency=DEFAULT_EFFICIENCY, dark_prob_per_slot=DEFAULT_DARK_PROB
    )


class ConfigError(ValueError):
    """Invalid scenario configuration; `path` names the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ScenarioConfig:
    clock_hz: float = 1e9
    n_slots: int = 10_000_000
    mu: float = DEFAULT_MU
    channel_loss_dB: float = DEFAULT_LOSS_DB
    phase_flip_prob: float = DEFAULT_PHASE_FLIP_PROB
    signal_wavelength_nm: float = 1551.0
    filter: BandpassFilter = field(default_factory=BandpassFilter)
    coupler: CouplerModel = field(default_factory=CouplerModel)
    detectors: tuple[DetectorParams, ...] = field(
        default_factory=lambda: tuple(default_detector() for _ in range(4))
    )
    attack: AttackConfig = field(default_factory=AttackConfig)
    alice_mode: typing.Literal["random", "static_0pi"] = "random"
    seed: int = 20260808
    error_correction_f: float = 1.16
    alarm_fraction_threshold: float = 0.05

    @property
    def transmission(self) -> float:
        return 10.0 ** (-self.channel_loss_dB / 10.0)

    @property
    def mean_efficiency(self) -> float:
        return sum(d.efficiency for d in self.detectors) / 4.0

    @property
    def ccr_est(self) -> float:
        """Honest conditional coincidence estimate mu*T*eta/4 + d at the
        detectors' mean efficiency and dark probability."""
        dark_mean = sum(d.dark_prob_per_slot for d in self.detectors) / 4.0
        return ccr_estimate(self.mu, self.transmission, self.mean_efficiency, dark_mean)

    def validate(self) -> None:
        # Types, finiteness and __post_init__s by the schema; a plain dict
        # or list where a config object or tuple belongs fails to round-trip.
        if config_from_dict(config_to_dict(self)) != self:
            raise ConfigError("<root>", "sub-configs must be config objects, detectors a tuple")
        if self.clock_hz <= 0.0:
            raise ConfigError("clock_hz", "must be > 0")
        if self.n_slots < 2:
            raise ConfigError("n_slots", "must be >= 2")
        if self.mu < 0.0:
            raise ConfigError("mu", "must be >= 0")
        if self.channel_loss_dB < 0.0:
            raise ConfigError("channel_loss_dB", "must be >= 0 (gain is not modeled)")
        if self.transmission == 0.0:
            raise ConfigError("channel_loss_dB", "transmission 10^(-loss/10) underflows to 0")
        if self.ccr_est >= 1.0:
            raise ConfigError(
                "mu", f"honest CCR estimate mu*T*eta/4 + d = {self.ccr_est:.4g} must be below 1"
            )
        if not 0.0 <= self.phase_flip_prob <= 1.0:
            raise ConfigError("phase_flip_prob", "must be in [0, 1]")
        if self.signal_wavelength_nm <= 0.0:
            raise ConfigError("signal_wavelength_nm", "must be > 0")
        if not 0.0 <= self.alarm_fraction_threshold <= 1.0:
            raise ConfigError("alarm_fraction_threshold", "must be in [0, 1]")
        if self.error_correction_f < 1.0:
            raise ConfigError("error_correction_f", "must be >= 1")
        if not -(2**63) <= self.seed < 2**64:
            raise ConfigError("seed", "must be a 64-bit integer")
        validate_against_detectors(
            self.attack, max(d.recovery_slots for d in self.detectors)
        )


# --- the config schema: scenario dict <-> ScenarioConfig ------------------


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _build(tp, data, path: str):
    """Build a value of config type `tp` from scenario-file `data` at `path`.

    Fail-closed, by the dataclasses' field annotations: an object becomes
    its dataclass (unknown keys are errors), a list of four becomes the
    detector tuple, a `Literal` field takes one of its strings, and a
    scalar must have its field's type (an int passes as a float, a bool
    never as a number; floats must be finite, ints in [-2^62, 2^62) but
    for the seed).  A ValueError from a `__post_init__` names the object's
    path.
    """
    if dataclasses.is_dataclass(tp):
        if not isinstance(data, dict):
            raise ConfigError(path or "<root>", "expected an object")
        hints, prefix = _field_types(tp), path + "." if path else ""
        unknown = [key for key in data if key not in hints]
        if unknown:
            raise ConfigError(prefix + unknown[0], "unknown key")
        kwargs = {key: _build(hints[key], v, prefix + key) for key, v in data.items()}
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ConfigError(path or "<root>", str(exc)) from exc
    if typing.get_origin(tp) is typing.Literal:
        if data not in typing.get_args(tp):
            choices = ", ".join(map(repr, typing.get_args(tp)))
            raise ConfigError(path, f"expected one of {choices}, got {data!r}")
        return data
    if typing.get_origin(tp) is tuple:
        if not isinstance(data, list) or len(data) != 4:
            raise ConfigError(path, "expected a list of four objects")
        return tuple(_build(typing.get_args(tp)[0], v, f"{path}.{i}") for i, v in enumerate(data))
    if not isinstance(data, (int, float) if tp is float else tp) or (
        isinstance(data, bool) and tp is not bool
    ):
        raise ConfigError(path, f"expected {tp.__name__}, got {data!r}")
    if tp is float and not abs(data) <= sys.float_info.max:  # NaN, inf, or an int beyond float
        raise ConfigError(path, "must be finite")
    # Slot arithmetic is int64, and a sum of two ints in this range stays
    # inside it.  The seed is hashed, not added; `validate` checks its range.
    if tp is int and path != "seed" and not -_INT_LIMIT <= data < _INT_LIMIT:
        raise ConfigError(path, "must be in [-2^62, 2^62)")
    return data


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a scenario-file dict (fail-closed)."""
    return _build(ScenarioConfig, data, "")


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Fully resolved config as a scenario-file dict (round-trips)."""
    return dataclasses.asdict(
        cfg, dict_factory=lambda kv: {k: list(v) if isinstance(v, tuple) else v for k, v in kv}
    )


@dataclass(frozen=True)
class RunMetrics:
    qber: float | None
    ccr_pair_A: float | None
    ccr_pair_B: float | None
    ccr_est: float
    count_rates_cps: tuple[float, float, float, float]
    singles: tuple[int, int, int, int]
    coincidences: tuple[int, int]
    K_sift: int
    K_sec: int
    attack_fraction_est: float
    abort: bool
    abort_reason: str

    def to_json_dict(self) -> dict:
        return {
            "qber": self.qber,
            "ccr_pair_A": self.ccr_pair_A,
            "ccr_pair_B": self.ccr_pair_B,
            "ccr_est": self.ccr_est,
            "count_rates_cps": list(self.count_rates_cps),
            "singles": list(self.singles),
            "coincidences": list(self.coincidences),
            "K_sift": self.K_sift,
            "K_sec": self.K_sec,
            "attack_fraction_est": self.attack_fraction_est,
            "abort": self.abort,
            "abort_reason": self.abort_reason,
        }

    def to_json(self) -> str:
        return (
            json.dumps(self.to_json_dict(), sort_keys=True, indent=2, allow_nan=False)
            + "\n"
        )


def _lit_offsets(pieces: Pieces, detectors):
    """(even, odd, hot): whether detector d shows a bright level at the
    even and at the odd offsets of patterned piece i ([d, i], False in
    per-slot pieces), and whether per-slot piece i has a bright level at
    some detector ([i]).  Even offsets of a patterned piece show its first
    difference; odd ones the other if it alternates, the same if not."""
    thresholds = np.array([d.blind_threshold_photons for d in detectors])
    lit = pieces.levels >= thresholds[:, None, None]  # [d, i, difference]
    if not lit.any():
        none = np.zeros(lit.shape[:2], dtype=bool)
        return none, none, none[0]
    patterned = pieces.kind != PER_SLOT
    i = np.arange(len(pieces.starts))
    even = lit[:, i, pieces.diff] & patterned
    odd = lit[:, i, pieces.diff ^ (pieces.kind == ALTERNATING)] & patterned
    return even, odd, ~patterned & lit.any(axis=(0, 2))


def bright_spans(chain: OpticalChain, pieces: Pieces, hi: int, detectors) -> list:
    """Each detector's latched spans (starts, ends) in [pieces.starts[0], hi).

    A patterned piece's bright slots for a detector are read off its two
    levels: slot start + t shows the difference diff ^ (t & 1) in an
    alternating piece and diff in a constant one, so they form one run of
    step 1 (both differences lit) or 2 (one lit), or none.  Per-slot
    pieces with a level at some threshold are evaluated slot by slot.
    """
    empty = np.empty(0, dtype=np.int64)
    even, odd, hot = _lit_offsets(pieces, detectors)
    if not (hot.any() or even.any() or odd.any()):
        return [(empty, empty)] * len(detectors)
    starts = pieces.starts
    ends = np.concatenate((starts[1:], [hi]))

    bright = [empty] * len(detectors)
    if hot.any():
        slots = slot_ranges(starts[hot], ends[hot])
        bright = [slots[inc >= d.blind_threshold_photons]
                  for inc, d in zip(chain.incidents_at(slots), detectors)]

    first = np.where(even, starts, starts + 1)
    step = np.where(even & odd, 1, 2)
    last = ends - 1 - (ends - 1 - first) % step
    runs = (even | odd) & (first < ends)

    spans = []
    for d, params in enumerate(detectors):
        f, l, st, b = first[d][runs[d]], last[d][runs[d]], step[d][runs[d]], bright[d]
        if len(b):  # merge the explicit bright slots in as runs of one slot
            at = np.searchsorted(b, f)
            f, l, st = np.insert(b, at, f), np.insert(b, at, l), np.insert(np.ones_like(b), at, st)
        spans.append(latched_spans(f, l, st, params.recovery_slots))
    return spans


def chunk_bounds(chain: OpticalChain, n_slots: int, detectors) -> list[int]:
    """The chunk boundaries 0 = b[0] < b[1] < ... = n_slots of a run.

    Without an attack plan, a fixed grid of CHUNK_SLOTS slots.  Under one,
    a chunk ends once it holds CHUNK_SLOTS units of work: one per slot of
    a piece that some detector may be live in (not latched throughout by
    the piece's bright runs) or that is evaluated slot by slot, and one
    per piece.  A heavy stretch is so cut inside a cycle, and a latched
    one costs its pieces only.  The pieces are scanned 2^10 cycles at a
    time.
    """
    budget = CHUNK_SLOTS
    if not isinstance(chain.source, AttackPlan):
        return [*range(0, n_slots, budget), n_slots]
    recovery = np.array([d.recovery_slots for d in detectors])[:, None]
    step = chain.source.cfg.cycle_slots << 10
    bounds, done = [0], 0  # done: work since the last boundary
    for a in range(0, n_slots, step):
        b = min(a + step, n_slots)
        pieces = chain.pieces(a, b)
        even, odd, hot = _lit_offsets(pieces, detectors)
        # Latched throughout: every detector's bright run has step 1, or
        # step 2 within its recovery.
        latched = ((even & odd) | ((even | odd) & (recovery >= 2))).all(axis=0)
        dense = np.where(hot | ~latched, np.diff(pieces.starts, append=b), 0)
        work = done + np.cumsum(dense + 1)
        due = np.arange(budget, work[-1] + 1, budget)
        i = np.searchsorted(work, due)
        # The due-th unit of work lies in piece i: the piece's own unit
        # comes first, then one per slot.
        into = due - (work[i] - dense[i])
        bounds += (pieces.starts[i] + np.clip(into, 0, dense[i])).tolist()
        done = int(work[-1]) % budget
    return sorted(set(bounds) | {n_slots})  # cuts at piece starts can coincide


def run_scenario(cfg: ScenarioConfig) -> tuple[ClickLog, RunMetrics]:
    """Run one scenario and compute its metrics.

    Identical configs (seed included) produce identical click logs and
    metrics.
    """
    cfg.validate()
    # glibc's malloc maps each block above its mmap threshold (128 kB at
    # first) afresh, so chunk temporaries would page-fault new memory.
    # Freeing a mapped block raises that threshold to its size (the trim
    # threshold to twice that): one untouched 4 MB block keeps them on heap.
    np.empty(1 << 19)
    streams = RunStreams(cfg.seed)
    alice = AliceSource(cfg.alice_mode, streams.alice, cfg.mu * cfg.transmission,
                        cfg.signal_wavelength_nm)
    source = alice
    if cfg.attack.enabled:
        eve = functools.partial(
            eve_outcome, mu=cfg.mu, rng=streams.eve, alice_parity_at=alice.parity_at
        )
        source = AttackPlan(cfg.attack, cfg.n_slots, alice, streams.cycles, eve)
    chain = OpticalChain(source, cfg.filter, cfg.coupler, cfg.phase_flip_prob, streams.flip)

    det_states = [BlockState() for _ in range(4)]
    logs = []
    lo, hi = 0, cfg.n_slots
    try:
        bounds = chunk_bounds(chain, cfg.n_slots, cfg.detectors)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pieces = chain.pieces(lo, hi)
            logs.append(simulate_block(
                lo, hi, bright_spans(chain, pieces, hi, cfg.detectors), pieces.starts,
                pieces.levels, chain.incidents_at, cfg.detectors, det_states, streams.detectors,
            ))
    except Exception as exc:
        raise RuntimeError(
            f"scenario failed while simulating slots [{lo}, {hi}): {exc}"
        ) from exc

    log = ClickLog.concat(logs)
    return log, compute_metrics(cfg, sift(log, alice.key_bits_at), log)


def compute_metrics(cfg: ScenarioConfig, sres: SiftResult, log: ClickLog) -> RunMetrics:
    """Post-process a sift result and click log into run metrics."""
    duration_s = cfg.n_slots / cfg.clock_hz
    counts = log.counts_per_detector()
    rates = tuple(c / duration_s for c in counts)

    e = qber(sres) if len(sres) else None  # undefined on an empty sifted key

    ccr_pairs = {}
    for pair in ("A", "B"):
        try:
            ccr_pairs[pair] = ccr_measure(sres, pair)
        except NoDataError:
            ccr_pairs[pair] = None

    est = cfg.ccr_est
    with_data = [v for v in ccr_pairs.values() if v is not None]
    ccr_exp = max(with_data) if with_data else None
    af = attack_fraction_estimate(ccr_exp, est) if ccr_exp is not None else 0.0

    K_sift = len(sres)
    K_sec, reason = secure_key_length(
        K_sift=K_sift, mu=cfg.mu, T=cfg.transmission, eta=cfg.mean_efficiency, e=e,
        f_e=cfg.error_correction_f, CCR_exp=ccr_exp if ccr_exp is not None else est, CCR_est=est,
    )
    alarm = af > cfg.alarm_fraction_threshold
    if alarm:
        reason = (
            f"attack fraction estimate {af:.4f} exceeds alarm threshold "
            f"{cfg.alarm_fraction_threshold:.4f}"
            + (f"; {reason}" if reason else "")
        )

    return RunMetrics(
        qber=e,
        ccr_pair_A=ccr_pairs["A"],
        ccr_pair_B=ccr_pairs["B"],
        ccr_est=est,
        count_rates_cps=rates,
        singles=tuple(sres.singles_counts[d] for d in (1, 2, 3, 4)),
        coincidences=(sres.coincidence_counts["A"], sres.coincidence_counts["B"]),
        K_sift=K_sift,
        K_sec=K_sec,
        attack_fraction_est=af,
        abort=alarm or K_sec == 0,
        abort_reason=reason,
    )


# --- config field paths (shared by sweeps and the CLI's --set) -----------


def _locate(data: dict, path: str) -> list:
    """The (container, key) pairs that the dotted `path` names in a
    scenario dict; `*` fans out over a list."""
    spots = [({"": data}, "")]
    for name in path.split("."):
        nodes, spots = [c[k] for c, k in spots], []
        for node in nodes:
            if isinstance(node, list) and name == "*":
                spots += [(node, i) for i in range(len(node))]
            elif isinstance(node, list) and name.isdigit() and int(name) < len(node):
                spots.append((node, int(name)))
            elif isinstance(node, dict) and name in node:
                spots.append((node, name))
            else:
                raise ConfigError(path, f"unknown field or index {name!r}")
    return spots


def config_with(cfg: ScenarioConfig, path: str, value) -> ScenarioConfig:
    """Return a copy of `cfg` with the dotted `path` set to `value`, given
    as in a scenario file, and rebuilt through the schema.

    `detectors.*.field` fans out over all four detectors.
    """
    data = config_to_dict(cfg)
    for container, key in _locate(data, path):
        container[key] = value
    return config_from_dict(data)


def run_sweep(base: ScenarioConfig, axis: str, values) -> list[RunMetrics]:
    """One independent run per value of `axis`; run k's seed derives from
    (base.seed, k), and results are ordered like `values` regardless of
    how many workers execute them."""
    values = list(values)
    if not values:
        raise ValueError("sweep values must be non-empty")
    container, key = _locate(config_to_dict(base), axis)[0]
    current = container[key]
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        raise ConfigError(axis, "sweep axis must name a numeric field")

    configs = [
        dataclasses.replace(
            config_with(base, axis, v), seed=child_seed(base.seed, i)
        )
        for i, v in enumerate(values)
    ]
    for c in configs:
        c.validate()

    max_workers = min(len(configs), os.cpu_count() or 1)
    env_cap = os.environ.get("QKDSIM_THREADS")
    if env_cap:
        try:
            max_workers = max(1, min(max_workers, int(env_cap)))
        except ValueError:
            raise ConfigError("QKDSIM_THREADS", f"expected an integer, got {env_cap!r}") from None

    if max_workers == 1:
        return [run_scenario(c)[1] for c in configs]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return [m for _, m in pool.map(lambda c: run_scenario(c), configs)]
