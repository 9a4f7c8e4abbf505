"""Independent reference implementations used to check the package.

Everything here is deliberately written in a different style from the
production code (scalar loops, dicts, complex amplitudes, dense per-slot
arrays) so the two routes share no code.  The secure-fraction evaluator
predates the main implementation and its frozen outputs are asserted in
the acceptance tests.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from qkdsim.attack import PORT1, PORT2, AttackPlan, eve_outcome
from qkdsim.detector import LIGHT_SPEED_M_S, PLANCK_J_S, BlockState, DetectorParams
from qkdsim.engine import CHUNK_SLOTS, compute_metrics
from qkdsim.protocol import AliceSource, ClickLog, sift
from qkdsim.rng import RunStreams, SlotRng, derive_seed

_M64 = (1 << 64) - 1


def splitmix64_outputs(seed: int, n: int) -> list[int]:
    """First n outputs of the reference splitmix64 generator."""
    out = []
    state = seed & _M64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append((z ^ (z >> 31)) & _M64)
    return out


def mzi_ports_by_amplitude(phases, means=None, alpha: float = 1.0):
    """Per-slot output-port intensities of a one-slot-delay interferometer,
    evaluated directly on complex amplitudes.

    Slot k combines sqrt(m_k) e^{i phi_k} with its predecessor (vacuum for
    the first slot); each port takes |E_k +/- E_{k-1}|^2 / 4.
    """
    n = len(phases)
    if means is None:
        means = [alpha * alpha] * n
    port1, port2 = [], []
    prev = 0j
    for k in range(n):
        cur = math.sqrt(means[k]) * cmath.exp(1j * phases[k])
        port1.append(abs(cur + prev) ** 2 / 4.0)
        port2.append(abs(cur - prev) ** 2 / 4.0)
        prev = cur
    return port1, port2


def read_clicks_csv(path) -> ClickLog:
    """A click log read back from `ClickLog.write_csv`'s file."""
    with open(path, encoding="utf-8") as f:
        rows = [line.split(",") for line in f.read().splitlines()[1:] if line]
    if not rows:
        return ClickLog(np.empty(0, np.int64), np.empty(0, np.int8))
    data = np.asarray(rows, dtype=np.int64)
    return ClickLog(slots=data[:, 0], detector_ids=data[:, 1].astype(np.int8))


def brute_sift(alice_parity, clicks):
    """Reference sift over (slot, detector) click pairs.

    alice_parity: sequence of 0/1 phase parities per slot.
    Returns a dict of counters plus the per-slot kept bits.
    """
    by_slot = defaultdict(list)
    for slot, det in clicks:
        by_slot[slot].append(det)
    res = {
        "singles": {1: 0, 2: 0, 3: 0, 4: 0},
        "coinc": {"A": 0, "B": 0},
        "multiport_slots": 0,
        "multiport_clicks": 0,
        "slot0_clicks": 0,
        "kept": [],
        "alice_bits": [],
        "bob_bits": [],
    }
    for slot in sorted(by_slot):
        dets = by_slot[slot]
        if slot == 0:
            res["slot0_clicks"] += len(dets)
            continue
        if len(dets) == 1:
            det = dets[0]
            res["singles"][det] += 1
            res["kept"].append(slot)
            res["bob_bits"].append(0 if det in (1, 2) else 1)
            res["alice_bits"].append(alice_parity[slot] ^ alice_parity[slot - 1])
        else:
            has1 = any(d in (1, 2) for d in dets)
            has2 = any(d in (3, 4) for d in dets)
            if has1 and has2:
                res["multiport_slots"] += 1
                res["multiport_clicks"] += len(dets)
            elif has1:
                res["coinc"]["A"] += 1
            else:
                res["coinc"]["B"] += 1
    return res


def brute_qber(res) -> float:
    errors = sum(a != b for a, b in zip(res["alice_bits"], res["bob_bits"]))
    return errors / len(res["alice_bits"])


def binary_entropy(e: float) -> float:
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def secure_fraction_reference(
    mu: float, eta_T: float, e: float, f_e: float, delta_ccr: float
) -> float:
    """Term-by-term evaluation of the individual-attack secure fraction."""
    collision_arg = 1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0
    if collision_arg <= 0.0:
        raise ValueError("log argument <= 0")
    shrink = -math.log2(collision_arg)
    coeff = 1.0 - 2.0 * mu * (1.0 - eta_T)
    return coeff * shrink - f_e * binary_entropy(e) - delta_ccr


# Frozen evaluations of the reference (computed once, asserted in tests).
SECURE_FRACTION_E0 = 0.6006339999999999  # mu=0.2, eta_T=1.585e-3, e=0, dCCR=0
SECURE_FRACTION_E032 = 0.10663588252440864  # e=0.032, f=1.16, dCCR=9e-5


# --- Candidate clicks: the detectors' random-number contract -------------
#
# A Ready detector's dim slot with escape probability p > 0 has the level
# k with 2^-(k+1) < p <= 2^-k (at most 61).  It clicks if the detector's
# level-k process hits it and u * 2^-k < p, u the slot's uniform on the
# detector's stream.  The level-k process hits each slot with probability
# 2^-k: every slot at level 0; above, each aligned sub-block b of 2^k
# slots is walked by geometric gaps drawn on the stream
# derive_seed(detector seed, "candidates", k), draw j at counter
# b * (2^k + 1) + j.

MAX_LEVEL = 61


def candidate_level(p: float) -> int:
    mantissa, exponent = math.frexp(p)
    return min(-exponent + (mantissa == 0.5), MAX_LEVEL)


@functools.lru_cache(maxsize=1 << 14)
def sub_block_hits(seed: int, k: int, block: int) -> frozenset:
    """Offsets in sub-block `block` that the level-k process (k >= 1) of
    the detector stream seeded `seed` hits, one gap at a time."""
    stream = SlotRng(derive_seed(seed, "candidates", k))
    size, log_miss = 1 << k, math.log1p(-(2.0 ** -k))
    hits, pos = [], -1
    for j in range(size + 1):
        u = float(stream.uniform_at(block * (size + 1) + j))
        pos += 1 + math.floor(math.log1p(-u) / log_miss)
        if pos >= size:
            break
        hits.append(pos)
    return frozenset(hits)


def is_candidate(rng: SlotRng, k: int, slot: int) -> bool:
    return k == 0 or slot % (1 << k) in sub_block_hits(rng.seed, k, slot >> k)


def level_hits(rng: SlotRng, k: int, blocks: np.ndarray) -> np.ndarray:
    """Slots that the level-k process of detector stream `rng` hits in the
    sub-blocks `blocks`: the first m draws of every sub-block at once, m
    doubling until each walk has left its sub-block.  Positions are summed
    as integers, each capped at the sub-block's end: in float64 a gap
    above 2^53 would swallow the slot after it."""
    if k == 0:
        return blocks
    stream = SlotRng(derive_seed(rng.seed, "candidates", k))
    size, m = 1 << k, 4
    while True:
        counters = blocks[:, None] * (size + 1) + np.arange(m)
        u = stream.uniform_at(counters.ravel()).reshape(len(blocks), m)
        gap = np.minimum(np.floor(np.log1p(-u) / math.log1p(-(2.0 ** -k))), size)
        pos = np.full(len(blocks), -1, dtype=np.int64)
        columns = []
        for step in gap.astype(np.int64).T + 1:
            pos = np.minimum(pos + step, size)
            columns.append(pos)
        pos = np.column_stack(columns)
        if not len(blocks) or (pos[:, -1] >= size).all():
            break
        m *= 2
    inside = pos < size
    return (blocks[:, None] * size + pos)[inside]


# --- Slot-by-slot detector state machine ---------------------------------

_NEVER = -(1 << 62)


class Mode(Enum):
    READY = "ready"
    DEAD = "dead"
    BLINDED = "blinded"


@dataclass
class DetectorState:
    mode: Mode = Mode.READY
    until_slot: int = _NEVER        # first clickable slot while DEAD
    last_bright_slot: int = _NEVER  # latest above-threshold slot while BLINDED


@dataclass(frozen=True)
class ClickEvent:
    detector_id: int
    slot: int


class Detector:
    """One detector unit: parameters, live state, and its random stream,
    stepped one slot at a time; the reference for `simulate_block`.

    Must be stepped in strictly increasing slot order by a single caller.
    """

    def __init__(self, detector_id: int, params: DetectorParams, rng: SlotRng):
        if detector_id not in (1, 2, 3, 4):
            raise ValueError("detector_id must be 1..4")
        self.detector_id = detector_id
        self.params = params
        self.rng = rng
        self.state = DetectorState()
        self._last_stepped = _NEVER

    def step(self, incident_mean: float, slot: int) -> ClickEvent | None:
        """Advance one slot; return a ClickEvent if the detector fired."""
        if incident_mean < 0.0:
            raise ValueError("incident_mean must be >= 0")
        if slot <= self._last_stepped:
            raise ValueError(
                f"slots must be strictly increasing (got {slot} after {self._last_stepped})"
            )
        self._last_stepped = slot
        p = self.params
        st = self.state

        if incident_mean >= p.blind_threshold_photons:
            # Bright branch: latch high.  Rising edge only from Ready.
            clicked = st.mode is Mode.READY
            st.mode = Mode.BLINDED
            st.last_bright_slot = slot
            return ClickEvent(self.detector_id, slot) if clicked else None

        # Dim branch: leave Blinded/Dead first if due, then act as Ready.
        if st.mode is Mode.BLINDED:
            if slot - st.last_bright_slot >= p.recovery_slots:
                st.mode = Mode.READY
        elif st.mode is Mode.DEAD:
            if slot >= st.until_slot:
                st.mode = Mode.READY
        if st.mode is not Mode.READY:
            return None

        escape = 1.0 - (1.0 - p.dark_prob_per_slot) * math.exp(
            -incident_mean * p.efficiency
        )
        if escape <= 0.0:
            return None
        k = candidate_level(escape)
        if is_candidate(self.rng, k, slot) and float(self.rng.uniform_at(slot)) * 2.0**-k < escape:
            st.mode = Mode.DEAD
            st.until_slot = slot + p.dead_time_slots
            return ClickEvent(self.detector_id, slot)
        return None


# --- Dense chunk pipeline: the engine's reference -------------------------
#
# Every slot of a chunk is evaluated: the source fields are filled per slot,
# the interferometer carries the previous chunk's last mean and parity, and
# the detector draws a variate for every live dim slot.


def _blinding_parity(j, entry_parity):
    """Parity of blinding-slot offset j, entered with `entry_parity` on the
    preceding slot: the first slot flips (difference pi), then differences
    alternate 0, pi -- the {0,0,pi,pi} repetition."""
    return (entry_parity ^ ((j // 2 + 1) & 1)).astype(np.uint8)


def _attacked_cycle_parity(plan, j, p0, target):
    """Parity at within-cycle offsets j of an attacked cycle."""
    C = plan.cfg.cycle_slots
    W = plan.cfg.recovery_window_slots
    blind_len = C - W - 1
    if target == 0:
        return _blinding_parity(j, p0)
    parity = np.empty(len(j), dtype=np.uint8)
    in_blind = j < blind_len
    parity[in_blind] = _blinding_parity(j[in_blind], p0)
    in_window = (j >= blind_len) & (j < C - 1)
    if target == PORT2:
        parity[in_window] = p0 ^ 1
    else:
        i = j[in_window] - blind_len
        parity[in_window] = ((p0 ^ 1) ^ ((i + 1) & 1)).astype(np.uint8)
    edge = j == C - 1
    parity[edge] = p0 if target == PORT2 else (p0 ^ 1) ^ (W & 1)
    return parity


def entry_parity_reference(plan):
    """Each cycle's entry parity (that of the slot before it), cycle by
    cycle: the parity of the previous cycle's last slot, from the attacked
    cycle's per-slot parity above or from Alice."""
    C = plan.cfg.cycle_slots
    entry = np.zeros(plan.n_cycles, dtype=np.uint8)
    parity = 0
    for k in range(plan.n_cycles):
        entry[k] = parity
        last = min((k + 1) * C, plan.n_slots) - 1
        if plan.attacked[k]:
            j = np.array([last - k * C])
            parity = int(_attacked_cycle_parity(plan, j, parity, int(plan.targets[k]))[0])
        else:
            parity = int(plan.alice.parity_at(last))
    return entry


def channel_fields_dense(plan, lo: int, hi: int, entry=None):
    """(mean, parity, wavelength) arrays for every slot of [lo, hi), the
    cycles entered with parities `entry` (by default
    `entry_parity_reference(plan)`)."""
    if entry is None:
        entry = entry_parity_reference(plan)
    n = hi - lo
    mean = np.empty(n, dtype=np.float64)
    parity = np.empty(n, dtype=np.uint8)
    lam = np.empty(n, dtype=np.float64)
    C = plan.cfg.cycle_slots
    k = lo // C
    pos = lo
    while pos < hi:
        start = k * C
        end = min(start + C, hi)
        seg = slice(pos - lo, end - lo)
        if plan.attacked[k]:
            j = np.arange(pos - start, end - start, dtype=np.int64)
            mean[seg] = plan.cfg.blind_photons_per_slot
            lam[seg] = plan.cfg.blind_wavelength_nm
            parity[seg] = _attacked_cycle_parity(plan, j, int(entry[k]), int(plan.targets[k]))
        else:
            mean[seg] = plan.alice.mean
            lam[seg] = plan.alice.wavelength_nm
            parity[seg] = plan.alice.parity_at(np.arange(pos, end, dtype=np.int64))
        pos = end
        k += 1
    return mean, parity, lam


def mzi_ports_carried(mean, cos_dphi, prev_mean: float):
    """Interferometer ports of a chunk, the first slot interfering with the
    carried mean of the slot before the chunk."""
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


def simulate_block_dense(incident, base_slot, params, state, rng):
    """One detector over a block given its incident mean in every slot;
    evaluates the escape probability, the candidate test and a variate at
    every live dim slot."""
    n = len(incident)
    bright = np.flatnonzero(incident >= params.blind_threshold_photons)
    prev = np.empty(len(bright) + 1, dtype=np.int64)
    prev[0] = state.last_bright - base_slot
    prev[1:] = bright
    ends = np.append(bright, n)
    starts = np.maximum(prev + params.recovery_slots, 0)
    lengths = np.maximum(ends - starts, 0)
    offsets = np.cumsum(lengths) - lengths
    live = np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))
    escape = 1.0 - (1.0 - params.dark_prob_per_slot) * np.exp(
        -incident[live] * params.efficiency
    )
    mantissa, exponent = np.frexp(escape)
    level = np.minimum(np.where(mantissa == 0.5, 1, 0) - exponent, MAX_LEVEL)
    candidate = np.zeros(len(live), dtype=bool)
    for k in np.unique(level[escape > 0.0]).tolist():
        at = np.flatnonzero((level == k) & (escape > 0.0))
        slots = live[at] + base_slot
        candidate[at] = np.isin(slots, level_hits(rng, k, np.unique(slots >> k)))
    u = rng.uniform_at(live + base_slot)
    dim = live[candidate & (u < escape * np.ldexp(1.0, level))]
    edge = bright - prev[:-1] > params.recovery_slots

    cand = np.concatenate((dim, bright[edge]))
    order = np.argsort(cand, kind="stable")
    lbs = np.concatenate((prev[np.searchsorted(bright, dim)], prev[:-1][edge]))

    clicks = []
    dead_until = state.dead_until
    last_dim_click = state.last_dim_click
    for s, lb, at_bright in zip(
        (cand[order] + base_slot).tolist(),
        (lbs[order] + base_slot).tolist(),
        (order >= len(dim)).tolist(),
    ):
        if at_bright:
            blocked = s <= max(dead_until, last_dim_click + 1) and lb < last_dim_click
        else:
            blocked = s < dead_until and lb < last_dim_click
        if blocked:
            continue
        clicks.append(s)
        if not at_bright:
            last_dim_click = s
            dead_until = s + params.dead_time_slots

    state.last_bright = int(prev[-1]) + base_slot
    state.dead_until = dead_until
    state.last_dim_click = last_dim_click
    return np.asarray(clicks, dtype=np.int64)


def incidents_dense(cfg, plan, alice, streams, lo, hi, prev_mean, prev_parity):
    """The four detectors' incident means in every slot of [lo, hi), after
    a slot of mean `prev_mean` and parity `prev_parity`; also returns the
    last slot's mean and parity, to carry into the next chunk."""
    slots = np.arange(lo, hi, dtype=np.int64)
    if plan is not None:
        mean, parity, lam = channel_fields_dense(plan, lo, hi)
    else:
        mean = np.full(hi - lo, cfg.mu * cfg.transmission)
        parity, lam = alice.parity_at(slots), cfg.signal_wavelength_nm
    mean = cfg.filter.apply(mean, lam)
    dparity = np.empty_like(parity)
    dparity[0] = parity[0] ^ prev_parity
    dparity[1:] = parity[1:] ^ parity[:-1]
    if cfg.phase_flip_prob > 0.0:
        dparity ^= streams.flip.uniform_at(slots) < cfg.phase_flip_prob
    port1, port2 = mzi_ports_carried(mean, 1.0 - 2.0 * dparity, prev_mean)
    incidents = (*cfg.coupler.split(port1, lam), *cfg.coupler.split(port2, lam))
    return incidents, float(mean[-1]), parity[-1]


def plan_and_source(cfg, streams):
    """The run's attack plan (None without an attack) and Alice's source."""
    alice = AliceSource(cfg.alice_mode, streams.alice, cfg.mu * cfg.transmission,
                        cfg.signal_wavelength_nm)
    if not cfg.attack.enabled:
        return None, alice
    eve = functools.partial(
        eve_outcome, mu=cfg.mu, rng=streams.eve, alice_parity_at=alice.parity_at
    )
    return AttackPlan(cfg.attack, cfg.n_slots, alice, streams.cycles, eve), alice


def run_scenario_dense(cfg):
    """`engine.run_scenario` evaluated densely, chunk after chunk."""
    cfg.validate()
    streams = RunStreams(cfg.seed)
    plan, alice = plan_and_source(cfg, streams)
    states = [BlockState() for _ in range(4)]
    clicks = [[] for _ in range(4)]
    prev_mean, prev_parity = 0.0, np.uint8(0)
    for lo in range(0, cfg.n_slots, CHUNK_SLOTS):
        hi = min(lo + CHUNK_SLOTS, cfg.n_slots)
        incidents, prev_mean, prev_parity = incidents_dense(
            cfg, plan, alice, streams, lo, hi, prev_mean, prev_parity
        )
        for c, incident, params, state, rng in zip(
            clicks, incidents, cfg.detectors, states, streams.detectors
        ):
            c.append(simulate_block_dense(incident, lo, params, state, rng))
    log = ClickLog.merge([np.concatenate(c) for c in clicks])
    return log, compute_metrics(cfg, sift(log, alice.key_bits_at), log)


def photons_to_dBm(photons_per_slot: float, clock_hz: float, wavelength_nm: float) -> float:
    """Average optical power, in dBm, of a photon flux at the given clock:
    the inverse of `detector.dBm_to_photons`."""
    if photons_per_slot <= 0.0 or clock_hz <= 0.0 or wavelength_nm <= 0.0:
        raise ValueError("all arguments must be positive")
    energy_j = PLANCK_J_S * LIGHT_SPEED_M_S / (wavelength_nm * 1e-9)
    watts = photons_per_slot * clock_hz * energy_j
    return 10.0 * math.log10(watts / 1e-3)
