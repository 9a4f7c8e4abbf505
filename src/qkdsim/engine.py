"""Scenario runner: a pipeline of one call per physical stage.

The link is an index-addressed chain (`optics.OpticalChain`): source or
attack fields (`protocol.AliceSource`, `attack.AttackPlan`) -> band-pass
filter -> interferometer -> couplers, evaluated once per light type, at
the first piece that carries it, its predecessor evaluated with it rather
than carried.
Each chunk of slots is split into pieces of constant light, at the
boundaries of the source's phase-difference pattern, and each piece
carries a light type (`optics.Pieces`): a row of the chain's table of the
run's distinct lights, with the two incident levels per detector that
its slots show (`optics.Lights`).  An attacked run repeats one cycle
program, so its tens of thousands of pieces share some twenty types.
What the detectors make of a type (`Types`: candidate levels and
thinning bounds by `DetectorParams.level`, which levels are bright, the
expected work of a piece) is computed once per type (`_typed`), and
every stage reads it through the pieces' types.
Where the pattern is closed form (an attacked cycle, or Alice's 0, pi
alternation) and free of phase flips, a patterned piece's bright slots
are a run of step 1 or 2, read off its type; only per-slot pieces with
a level at some blinding threshold (bright honest light, or attacks with
phase flips) are looked at slot by slot.  Each detector's runs are
merged into latched spans (`detector.latched_spans`), and the detector
stage (`detector.simulate_block`), called once per chunk, draws each
detector's candidate clicks among the live dim slots between its spans,
in one walk per candidate level for all four detectors.  A slot's
incident mean is never recomputed: it is read from its piece's type, at
the index the chain says it shows (`OpticalChain.shown`: the offset
parity in a patterned piece, the phase difference bit, flips included,
in a per-slot piece); so are its candidate level and thinning bound at
each detector.  Slots never cross a chunk, so each chunk's four click
lists are merged into a click log (`protocol.ClickLog.merge`) and sifted
(`protocol.sift`) on their own, and appended in place to the run's log
and sift result (`protocol.grow`), so each click is held once; the sift
result is reduced to metrics.  Only the detectors' state carries from
chunk to chunk, and every random draw is counter-based (see `rng`), so
the click log and metrics are byte-identical for a given config
regardless of chunking.  A run imports no module beyond `import qkdsim`:
the first `np.unique` of a process imports `numpy.ma` (11-18 ms), more
than the whole simulation of a short honest run, so distinct values are
found by counts or adjacent differences instead.

`CHUNK_SLOTS` is the work budget of a chunk (`chunks`): a chunk ends
once it holds 2^18 units of expected work, honest or attacked.  Each
candidate and each sub-block searched for candidates is a unit (about
4 * 2 * 2^-13 per slot on the stock link, so an honest chunk spans some
2.6e8 slots), each slot looked at one by one weighs 4 (`_SLOT_UNITS`),
and each piece 8 (`_PIECE_UNITS`).  An attacked cycle without phase
flips is latched but for its recovery window and a few single slots, so
it costs its pieces and the rare candidates of its windows.  The pieces are
evaluated once and handed to the chunks that hold them.

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
same effective eta; only the product matters here.)  eta and d are
written once, as the defaults of `DetectorParams`; mu, the loss and flip
as those of `ScenarioConfig`.  `scripts/calibrate_defaults.py` checks
them against this derivation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .attack import AttackConfig, AttackPlan, eve_outcome, validate_against_detectors
from .detector import BlockState, DetectorParams, latched_spans, simulate_block, slot_ranges
from .optics import BandpassFilter, CouplerModel, OpticalChain, Pieces
from .protocol import (
    AliceSource,
    ClickLog,
    NoDataError,
    SiftResult,
    attack_fraction_estimate,
    ccr_estimate,
    ccr_measure,
    grow,
    qber,
    secure_key_length,
    sift,
)
from .rng import RunStreams, child_seed

CHUNK_SLOTS = 1 << 18
# A piece costs numpy calls in the span builder and the detector stage,
# but holds one light-type row, so it weighs a few units, and each chunk
# pays its own numpy call overhead.  Measured at 1e8 slots on
# partial-attack (the bench's attack-partial scenario, seed 1) and
# full-attack (preset seed), 5 fresh processes each on 2 shared vCPUs:
# chunks, engine time (median over processes of the median of 9 runs
# after the first) and VmHWM after the first run.
#   units   partial-attack            full-attack
#      64   10 chunks  41.2 ms  32.4 MB  13 chunks  20.9 ms  32.2 MB
#      32    6         32.5     32.5      7         15.8     32.4
#      16    3         28.0     32.9      4         12.9     33.2
#       8    2         25.0     33.7      2         11.1     34.1
#       4    2         25.3     34.6      2         11.8     35.6
#       2    2         25.6     35.2      1         10.1     35.8
# Below 8 units the time stops falling and the memory keeps rising.
# partial-attack with phase_flip_prob 0.01 at 2e7 slots is cut by its
# per-slot work: 151-153 chunks, 1.7-2.0 s and 43.5 MB at every weight.
_PIECE_UNITS = 8.0
# A slot looked at one by one (`bright_spans`) holds some 170 bytes across
# the chain's per-slot arrays, and gains nothing from a larger chunk, so
# it weighs CHUNK_SLOTS / 2^16 units: such a chunk holds 2^16 slots, as
# at a 2^16 budget.  Measured on partial-attack with phase_flip_prob 0.01
# at 2e7 slots (in process): peak RSS 81.2 MB at 1 unit and 45.5 MB at 4,
# against 43.4 MB at a 2^16 budget; run time 3.0-3.7 s in all three,
# within the machine's noise.
_SLOT_UNITS = 4.0
_CUT_BATCH = 1 << 16  # chunk cuts taken at once (`chunks`)
_INT_LIMIT = 1 << 62

class ConfigError(ValueError):
    """Invalid scenario configuration; `path` names the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ScenarioConfig:
    clock_hz: float = 1e9
    n_slots: int = 10_000_000
    mu: float = 0.2
    channel_loss_dB: float = 18.0
    phase_flip_prob: float = 7.852123187681173e-3
    signal_wavelength_nm: float = 1551.0
    filter: BandpassFilter = field(default_factory=BandpassFilter)
    coupler: CouplerModel = field(default_factory=CouplerModel)
    detectors: tuple[DetectorParams, ...] = (DetectorParams(),) * 4
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
        _check(ScenarioConfig, self, "")  # types and finiteness, by the schema
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


@functools.cache
def _kind(tp) -> str:
    """What config type `tp` is: "object" (a config dataclass), "tuple" (the
    detectors), "literal" (one of some strings) or "scalar"."""
    if dataclasses.is_dataclass(tp):
        return "object"
    return {tuple: "tuple", typing.Literal: "literal"}.get(typing.get_origin(tp), "scalar")


def _build(tp, data, path: str):
    """Build a value of config type `tp` from scenario-file `data` at `path`.

    Fail-closed, by the dataclasses' field annotations: an object becomes
    its dataclass (unknown keys are errors), a list of four becomes the
    detector tuple, and a leaf must pass `_leaf`.  A ValueError from a
    `__post_init__` names the object's path.
    """
    kind = _kind(tp)
    if kind == "object":
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
    if kind == "tuple":
        if not isinstance(data, list) or len(data) != 4:
            raise ConfigError(path, "expected a list of four objects")
        return tuple(_build(typing.get_args(tp)[0], v, f"{path}.{i}") for i, v in enumerate(data))
    _leaf(tp, kind, data, path)
    return data


def _check(tp, value, path: str) -> None:
    """Check a built config value against its config type `tp`, field by
    field, as `_build` checks scenario-file data: a config object must be
    of its field's class and the detectors a tuple of four, as `_build`
    makes them, and a leaf must pass `_leaf`.  The objects'
    `__post_init__`s ran when they were made."""
    kind = _kind(tp)
    if kind == "object" or kind == "tuple":
        if type(value) is not (tp if kind == "object" else tuple):
            raise ConfigError("<root>", "sub-configs must be config objects, detectors a tuple")
        if kind == "object":
            prefix = path + "." if path else ""
            for key, hint in _field_types(tp).items():
                _check(hint, getattr(value, key), prefix + key)
            return
        if len(value) != 4:
            raise ConfigError(path, "expected a list of four objects")
        for i, v in enumerate(value):
            _check(typing.get_args(tp)[0], v, f"{path}.{i}")
        return
    _leaf(tp, kind, value, path)


def _leaf(tp, kind: str, data, path: str) -> None:
    """Check a leaf value of config type `tp` at `path`: a `Literal` field
    takes one of its strings, and a scalar must have its field's type (an
    int passes as a float, a bool never as a number; floats must be
    finite, ints in [-2^62, 2^62) but for the seed)."""
    if kind == "literal":
        if data not in typing.get_args(tp):
            choices = ", ".join(map(repr, typing.get_args(tp)))
            raise ConfigError(path, f"expected one of {choices}, got {data!r}")
        return
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

    def to_json(self) -> str:
        """Every field, keys sorted, tuples as lists."""
        data = dataclasses.asdict(self)
        return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


class Types(NamedTuple):
    """What the detectors make of each light type of a run (a row of
    `OpticalChain.lights`), computed once per type (`_typed`)."""

    k: np.ndarray      # [d, r, 2] int8: the candidate level of each mean
                       # (`DetectorParams.level`), -1 where it cannot click
    bound: np.ndarray  # [d, r, 2]: its thinning bound p 2^k
    lit: np.ndarray    # [d, r, 2]: whether the mean is at the blinding threshold
    even: np.ndarray   # [d, r]: whether detector d shows a bright level at the even
    odd: np.ndarray    # and at the odd offsets of a patterned piece (False if per-slot)
    hot: np.ndarray    # [r]: a per-slot type with a bright level at some detector
    fixed: np.ndarray  # [r]: the expected work of a piece (`_work`), fixed
    rate: np.ndarray   # and per slot


def _typed(chain: OpticalChain, detectors, known: Types | None = None) -> Types:
    """`known` extended to every light type of the chain: the one place a
    run calls `DetectorParams.level`, once per light type and detector."""
    done = 0 if known is None else len(known.fixed)
    if done == len(chain.lights.per_slot):
        return known
    levels, per_slot = chain.lights.levels[:, done:], chain.lights.per_slot[done:]
    k, bound = (np.stack(f) for f in zip(*(d.level(lv) for d, lv in zip(detectors, levels))))
    thresholds = np.array([d.blind_threshold_photons for d in detectors])[:, None, None]
    lit = levels >= thresholds
    even, odd = lit[..., 0] & ~per_slot, lit[..., 1] & ~per_slot
    hot = per_slot & (lit[..., 0] | lit[..., 1]).any(axis=0)
    new = Types(k, bound, lit, even, odd, hot, *_work(k, even, odd, hot, detectors))
    if known is None:
        return new
    return Types(*(np.concatenate((a, b), axis=min(b.ndim - 1, 1)) for a, b in zip(known, new)))


def bright_spans(chain: OpticalChain, pieces: Pieces, hi: int, detectors) -> list:
    """Each detector's latched spans (starts, ends) in [pieces.starts[0], hi).

    A patterned piece's bright slots for a detector are read off its light
    type: slot start + t shows its level t & 1, so they form one run of
    step 1 (both lit) or 2 (one lit), or none.  In per-slot pieces with a
    level at some threshold, each slot's level is looked up (`shown`).
    """
    empty = np.empty(0, dtype=np.int64)
    types, light, starts = pieces.types, pieces.light, pieces.starts
    if not (types.hot.any() or types.even.any() or types.odd.any()):
        return [(empty, empty)] * len(detectors)
    ends = np.append(starts[1:], hi)

    bright = [empty] * len(detectors)
    hot = types.hot[light]
    if hot.any():
        slots = slot_ranges(starts[hot], ends[hot])
        piece = np.repeat(np.flatnonzero(hot), (ends - starts)[hot])
        at = 2 * light[piece] + chain.shown(pieces, slots, piece)
        bright = [slots[lit.ravel()[at]] for lit in types.lit]

    spans = []
    long = ends - starts > 1
    for d, params in enumerate(detectors):
        even, odd = types.even[d][light], types.odd[d][light]
        i = np.flatnonzero(even | (odd & long))
        f, e, both = starts[i], ends[i], even[i] & odd[i]
        f += ~even[i]
        l = e - 1 - ((e - 1 - f) & ~both)  # last of a run of step 1 (both lit) or 2
        st, b = 2 - both, bright[d]
        if len(b):  # merge the explicit bright slots in as runs of one slot
            pos = np.searchsorted(b, f)
            f, l = np.insert(b, pos, f), np.insert(b, pos, l)
            st = np.insert(np.ones_like(b), pos, st)
        spans.append(latched_spans(f, l, st, params.recovery_slots))
    return spans


def _work(k, even, odd, hot, detectors):
    """The expected work of a piece of each light type, as (fixed, rate):
    `fixed` units plus `rate` per slot.  A piece weighs _PIECE_UNITS, and
    each slot looked at one by one (`bright_spans`) _SLOT_UNITS.  For each
    detector that may be live in it (not latched throughout by its bright
    runs), each candidate level k of its dim levels costs its expected
    candidates and sub-blocks touched: a unit plus 2 * 2^-k per slot."""
    recovery = np.array([d.recovery_slots for d in detectors])[:, None]
    latched = (even & odd) | ((even | odd) & (recovery >= 2))
    k0, k1 = k[..., 0], k[..., 1]  # [d, r]
    live0 = (k0 >= 0) & ~latched
    live1 = (k1 >= 0) & (k1 != k0) & ~latched  # a level once
    fixed = _PIECE_UNITS + (np.count_nonzero(live0, axis=0) + np.count_nonzero(live1, axis=0))
    rate0 = np.where(live0, np.ldexp(2.0, -k0), 0.0)
    rate1 = np.where(live1, np.ldexp(2.0, -k1), 0.0)
    # Detector by detector, each one's two levels first: a float sum in
    # another order can round otherwise and move the chunk cuts.
    rate = _SLOT_UNITS * hot
    for d in range(len(detectors)):
        rate += rate0[d] + rate1[d]
    return fixed, rate


def _slice(pieces: Pieces, lo: int, hi: int) -> Pieces:
    """The pieces of [lo, hi) out of `pieces`, which cover it; a piece cut
    at an odd offset carries its type's odd-offset pair (`optics.Lights`)."""
    i = np.searchsorted(pieces.starts, lo, side="right") - 1
    j = np.searchsorted(pieces.starts, hi)
    starts, light = pieces.starts[i:j].copy(), pieces.light[i:j]
    if (lo - starts[0]) & 1:
        light = light.copy()
        light[0] ^= 1
    starts[0] = lo
    return pieces._replace(starts=starts, light=light)


def _joined(parts: list) -> Pieces:
    """Consecutive pieces as one; the last part's types cover all of them."""
    if len(parts) == 1:
        return parts[0]
    return Pieces(np.concatenate([p.starts for p in parts]),
                  np.concatenate([p.light for p in parts]), parts[-1].types)


def chunks(chain: OpticalChain, n_slots: int, detectors):
    """The run cut into chunks: (lo, hi, pieces) for consecutive slot ranges
    [lo, hi) from 0 to n_slots, each with its pieces of constant light.

    A chunk ends once it holds CHUNK_SLOTS units of expected work (`_work`),
    so every array it hands a stage is about that long whatever its slot
    count: an honest run is cut every few 10^7 slots at stock loss, a
    latched attacked stretch costs its pieces only, and a heavy piece is
    cut inside.  The pieces are evaluated once, in steps of 2^10 cycles
    under an attack plan and all at once without one, with the table of
    their light types (`_typed`), and handed to the chunks that hold them.
    """
    budget = CHUNK_SLOTS
    step = chain.source.cfg.cycle_slots << 10 if isinstance(chain.source, AttackPlan) else n_slots
    lo, done, held, types = 0, 0.0, [], None  # done: work since lo, held in pieces
    for a in range(0, n_slots, step):
        b = min(a + step, n_slots)
        pieces = chain.pieces(a, b)
        types = _typed(chain, detectors, types)
        pieces = pieces._replace(types=types)
        fixed, rate = types.fixed[pieces.light], types.rate[pieces.light]
        length = np.diff(pieces.starts, append=b)
        total = done + np.cumsum(fixed + rate * length)
        # The cuts are taken _CUT_BATCH at a time: an honest run's one step
        # may hold more chunks than memory holds cuts.
        first, batch = float(budget), float(budget * _CUT_BATCH)
        while first < total[-1]:
            # The due-th unit lies in piece i: its fixed units come first,
            # then its per-slot ones.
            due = np.arange(first, min(first + batch, total[-1]), budget)
            first += batch
            i = np.searchsorted(total, due)
            before = total[i] - fixed[i] - rate[i] * length[i]
            into = np.ceil((due - before - fixed[i]) / np.maximum(rate[i], 1e-300))
            cuts = pieces.starts[i] + np.clip(into, 0, length[i]).astype(np.int64)
            # The cuts are non-decreasing (`due` rises, and each cut lies in
            # its piece), so dropping repeats needs no sort.  Not np.unique:
            # its first call imports numpy.ma, which would take most of a
            # short run.
            cuts = cuts[cuts > lo]
            for cut in cuts[np.diff(cuts, prepend=lo) > 0].tolist():
                yield lo, cut, _joined([*held, _slice(pieces, max(lo, a), cut)])
                lo, held = cut, []
        if lo < b:
            held.append(_slice(pieces, max(lo, a), b))
        done = float(total[-1]) % budget
    if lo < n_slots:
        yield lo, n_slots, _joined(held)


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
    slots, dets, sres = np.empty(0, np.int64), np.empty(0, np.int8), SiftResult()
    lo, hi = 0, cfg.n_slots
    try:
        for lo, hi, pieces in chunks(chain, cfg.n_slots, cfg.detectors):
            spans = bright_spans(chain, pieces, hi, cfg.detectors)
            shown_at = functools.partial(chain.shown, pieces)
            # Slots never cross a chunk, so each chunk's clicks are merged
            # and sifted on their own, and appended to the run's.
            # A level's walk covers all four detectors, each with about
            # an eighth of the chunk's work in sub-blocks (`_work`): it
            # walks that many at a time, as one detector's walk would.
            part = simulate_block(lo, hi, spans, pieces.starts, pieces.light, pieces.types.k,
                                  pieces.types.bound, shown_at, cfg.detectors, det_states,
                                  streams.detectors, max(CHUNK_SLOTS >> 3, 1))
            sres.add(sift(part, alice.key_bits_at))
            grow(slots, part.slots)
            grow(dets, part.detector_ids)
            # `chunks` cuts the next chunk while the loop asks for it: a
            # failure there lies in the slots not yet simulated, and this
            # chunk's arrays are dropped first, so two are never held.
            lo, hi = hi, cfg.n_slots
            del pieces, spans, shown_at, part
    except Exception as exc:
        raise RuntimeError(
            f"scenario failed while simulating slots [{lo}, {hi}): {exc}"
        ) from exc

    log = ClickLog(slots, dets)
    return log, compute_metrics(cfg, sres, log)


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
    """One independent run per value of `axis`, in order; run k's seed
    derives from (base.seed, k)."""
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
    return [run_scenario(c)[1] for c in configs]
