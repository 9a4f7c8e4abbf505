import dataclasses
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkdsim import engine
from qkdsim.attack import AttackConfig
from qkdsim.cli import PRESETS, config_from_dict
from qkdsim.engine import (
    ConfigError,
    ScenarioConfig,
    config_with,
    default_detector,
    run_scenario,
    run_sweep,
)
from qkdsim.detector import DetectorParams
from qkdsim.optics import BandpassFilter, CouplerModel, OpticalChain
from qkdsim.protocol import AliceSource, detector_statistics_check, sift
from qkdsim.rng import RunStreams, SlotRng

from oracles import (
    brute_qber,
    brute_sift,
    incidents_dense,
    plan_and_source,
    run_scenario_dense,
)


def small_cfg(**kw):
    base = dict(n_slots=200_000, seed=99)
    base.update(kw)
    return ScenarioConfig(**base)


def attack_cfg(q=1.0, **kw):
    return small_cfg(
        alice_mode="static_0pi",
        phase_flip_prob=0.0,
        attack=AttackConfig(enabled=True, mode="emulation", attacked_fraction=q),
        **kw,
    )


class TestReproducibility:
    def test_identical_runs_identical_outputs(self):
        cfg = small_cfg(n_slots=500_000)
        log1, m1 = run_scenario(cfg)
        log2, m2 = run_scenario(cfg)
        assert np.array_equal(log1.slots, log2.slots)
        assert np.array_equal(log1.detector_ids, log2.detector_ids)
        assert m1.to_json() == m2.to_json()

    def test_different_seed_different_log(self):
        _, m1 = run_scenario(small_cfg(seed=1))
        _, m2 = run_scenario(small_cfg(seed=2))
        assert m1.to_json() != m2.to_json()

    def test_sweep_thread_counts_agree(self):
        base = small_cfg(n_slots=100_000)
        os.environ["QKDSIM_THREADS"] = "1"
        try:
            serial = run_sweep(base, "mu", [0.1, 0.2, 0.3])
        finally:
            os.environ["QKDSIM_THREADS"] = "2"
        try:
            threaded = run_sweep(base, "mu", [0.1, 0.2, 0.3])
        finally:
            del os.environ["QKDSIM_THREADS"]
        assert [m.to_json() for m in serial] == [m.to_json() for m in threaded]


def _preset(name, **overrides):
    """A preset at 1.34e6 slots (seed 7).  At a 997-slot budget an honest
    run is cut every 997 slots, and an attacked one after every 997 units
    of work: inside pass-through cycles and recovery windows, and at piece
    starts where a piece's own work falls due."""
    data = dict(PRESETS[name], n_slots=1_340_000, seed=7)
    for key, value in overrides.items():
        data[key] = {**data.get(key, {}), **value} if isinstance(value, dict) else value
    return config_from_dict(data)


CHUNKING_CASES = {
    "normal": lambda: _preset("normal"),
    "dense": lambda: _preset(
        "normal", channel_loss_dB=0.0, detectors=[{"efficiency": 0.5}] * 4
    ),
    "full-attack": lambda: _preset("full-attack"),
    "partial-attack": lambda: _preset("partial-attack"),
    "intercept-resend": lambda: _preset(
        "full-attack", alice_mode="random", mu=2.0, attack={"mode": "intercept_resend"}
    ),
    "detuned-coupler": lambda: _preset(
        "full-attack",
        coupler={"ratio_slope_per_nm": 0.04},
        attack={"blind_wavelength_nm": 1561.0},
    ),
    # Phase flips under attack: every attacked slot is evaluated one by one.
    "flips-under-attack": lambda: _preset("full-attack", phase_flip_prob=0.3),
    # The blinding's bright slots are 2 apart, exactly the recovery.
    "recovery-2": lambda: _preset("full-attack", detectors=[{"recovery_slots": 2}] * 4),
    # A window shorter than the recovery: the attack fails.
    "short-window": lambda: _preset(
        "full-attack", attack={"blinding_slots": 9997, "recovery_window_slots": 3}
    ),
    # An odd window with port-1 targets: the window light alternates.
    "odd-window-intercept": lambda: _preset(
        "full-attack", alice_mode="random", mu=2.0,
        attack={"mode": "intercept_resend", "blinding_slots": 9989, "recovery_window_slots": 11},
    ),
    # Windows and pass-through cycles longer than the 997-unit budget: the
    # work rule cuts inside both.
    "long-window": lambda: _preset(
        "partial-attack", attack={"blinding_slots": 1990, "recovery_window_slots": 1500}
    ),
    # Bright honest light in closed form: the 0, pi alternation, no flips.
    "static-bright-honest": lambda: _preset(
        "normal", alice_mode="static_0pi", phase_flip_prob=0.0, channel_loss_dB=0.0,
        mu=2e5, detectors=[{"efficiency": 1e-5}] * 4,
    ),
}

# The recovery window of "short-window" is shorter than the detectors'
# recovery on purpose; its validation warns.
_short_window_warns = pytest.mark.filterwarnings("ignore:recovery window of 3 slots")


@_short_window_warns
@pytest.mark.parametrize("case", sorted(CHUNKING_CASES))
def test_chunk_size_does_not_change_the_run(case, monkeypatch):
    cfg = CHUNKING_CASES[case]()
    log_ref, m_ref = run_scenario(cfg)
    assert len(log_ref) > 0
    for chunk in (997, 1 << 20):
        monkeypatch.setattr(engine, "CHUNK_SLOTS", chunk)
        log, m = run_scenario(cfg)
        assert np.array_equal(log.slots, log_ref.slots)
        assert np.array_equal(log.detector_ids, log_ref.detector_ids)
        assert m == m_ref


def _spy_chunks(monkeypatch):
    """Record the attack plan and the chunk boundaries of the next run."""
    seen = {}
    chunk_bounds = engine.chunk_bounds

    def spy(chain, n_slots, detectors):
        seen["plan"], seen["bounds"] = chain.source, chunk_bounds(chain, n_slots, detectors)
        return seen["bounds"]

    monkeypatch.setattr(engine, "chunk_bounds", spy)
    return seen


def test_work_rule_cuts_inside_windows_and_pass_through_cycles(monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_SLOTS", 997)
    seen = _spy_chunks(monkeypatch)
    run_scenario(CHUNKING_CASES["long-window"]())
    plan, cuts = seen["plan"], np.array(seen["bounds"][1:-1])
    C, W = plan.cfg.cycle_slots, plan.cfg.recovery_window_slots
    k, offset = np.divmod(cuts, C)
    in_window = plan.attacked[k] & (offset > C - W) & (offset < C - 1)
    in_pass_through = ~plan.attacked[k] & (offset > 0)
    assert in_window.any() and in_pass_through.any()


@pytest.mark.parametrize("case", [
    "flips-under-attack", "detuned-coupler", "recovery-1", "recovery-2", "long-window",
    "partial-attack",
])
def test_per_slot_arrays_stay_within_the_budget(case, monkeypatch):
    """No chunk hands a stage more slots than the budget plus one cycle of
    work, whichever stage gets per-slot arrays: phase flips make every
    attacked slot per-slot, a detuned coupler leaves one detector of the
    lit pair live through the blinding, and a one-slot recovery every
    other blinding slot."""
    budget = 4096
    monkeypatch.setattr(engine, "CHUNK_SLOTS", budget)
    sizes = []
    raw_at, incidents_at = SlotRng.raw_at, OpticalChain.incidents_at

    def sized_raw_at(self, index, ends=None):
        raw = raw_at(self, index, ends)
        sizes.append(raw.size)
        return raw

    def sized_incidents_at(self, slots):
        sizes.append(len(slots))
        return incidents_at(self, slots)

    monkeypatch.setattr(SlotRng, "raw_at", sized_raw_at)
    monkeypatch.setattr(OpticalChain, "incidents_at", sized_incidents_at)
    cfg = {**CHUNKING_CASES, **ORACLE_CASES}[case]()
    run_scenario(cfg)
    assert max(sizes) <= budget + cfg.attack.cycle_slots


def test_full_attack_runs_in_a_handful_of_chunks(monkeypatch):
    seen = _spy_chunks(monkeypatch)
    _, m = run_scenario(_preset("full-attack", n_slots=100_000_000))
    assert len(seen["bounds"]) - 1 <= 8
    assert m.coincidences[1] == 10_000  # every cycle is served: one fake click each


def test_failure_names_the_chunk_that_failed(monkeypatch):
    calls = []
    simulate_block = engine.simulate_block

    def fail_second(lo, hi, *args):
        calls.append((lo, hi))
        if len(calls) == 2:
            raise ValueError("planted")
        return simulate_block(lo, hi, *args)

    monkeypatch.setattr(engine, "simulate_block", fail_second)
    with pytest.raises(RuntimeError) as err:
        run_scenario(_preset("partial-attack"))
    lo, hi = calls[1]
    assert hi - lo != engine.CHUNK_SLOTS  # a work-sized chunk
    assert str(err.value) == f"scenario failed while simulating slots [{lo}, {hi}): planted"


ORACLE_CASES = {
    # Alternate bright slots leave single live dim slots between them.
    "recovery-1": lambda: _preset("full-attack", detectors=[{"recovery_slots": 1}] * 4),
    # Honest light that blinds the lit pair of every slot.  The efficiency
    # keeps the CCR estimate mu*T*eta/4 + d below 1, where the metrics are
    # defined.
    "bright-honest": lambda: _preset(
        "normal", channel_loss_dB=0.0, mu=2e5, detectors=[{"efficiency": 1e-5}] * 4
    ),
    "filtered-1561nm": lambda: _preset(
        "partial-attack", filter={"enabled": True}, attack={"blind_wavelength_nm": 1561.0}
    ),
    "detuned-coupler": CHUNKING_CASES["detuned-coupler"],
    "intercept-resend": CHUNKING_CASES["intercept-resend"],
    # The thinning bound is near 1 and keeps almost every slot.
    "dark-0.9": lambda: _preset("normal", detectors=[{"dark_prob_per_slot": 0.9}] * 4),
    "mu-0": lambda: _preset("normal", mu=0.0),
    **{case: CHUNKING_CASES[case] for case in (
        "flips-under-attack", "recovery-2", "short-window", "odd-window-intercept",
        "static-bright-honest",
    )},
}


@_short_window_warns
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_engine_matches_dense_oracle(case):
    cfg = dataclasses.replace(ORACLE_CASES[case](), n_slots=300_000)
    log, m = run_scenario(cfg)
    log_ref, m_ref = run_scenario_dense(cfg)
    assert np.array_equal(log.slots, log_ref.slots)
    assert np.array_equal(log.detector_ids, log_ref.detector_ids)
    assert m == m_ref


@settings(deadline=None, max_examples=60)
@given(
    mu=st.floats(min_value=0.0, max_value=1e6),
    loss=st.floats(min_value=0.0, max_value=40.0),
    efficiency=st.floats(min_value=0.0, max_value=1.0),
    dark=st.floats(min_value=0.0, max_value=0.99),
    slope=st.floats(min_value=-0.1, max_value=0.1),
    filter_on=st.booleans(),
    blind=st.floats(min_value=1.0, max_value=1e6),
    blind_nm=st.sampled_from([1551.0, 1552.5, 1561.0]),
    flip=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32),
    chunk=st.integers(min_value=1, max_value=200),
)
def test_escape_bound_covers_every_slot(
    mu, loss, efficiency, dark, slope, filter_on, blind, blind_nm, flip, seed, chunk
):
    """Each piece's thinning bound is at least the exact escape probability
    of every dim slot in it, and only pieces with a level at the threshold
    hold bright slots.  The run covers slot 0 and the first slots of cycles
    after attacked and after pass-through ones."""
    cfg = ScenarioConfig(
        n_slots=1000,
        mu=mu,
        channel_loss_dB=loss,
        phase_flip_prob=flip,
        filter=BandpassFilter(enabled=filter_on),
        coupler=CouplerModel(ratio_slope_per_nm=slope),
        detectors=(DetectorParams(efficiency=efficiency, dark_prob_per_slot=dark),) * 4,
        attack=AttackConfig(
            enabled=True, blind_photons_per_slot=blind, blinding_slots=40,
            recovery_window_slots=10, attacked_fraction=0.5, blind_wavelength_nm=blind_nm,
        ),
        seed=seed,
    )
    streams = RunStreams(seed)
    plan, alice = plan_and_source(cfg, streams)
    assume((plan.attacked[:-1] & ~plan.attacked[1:]).any())
    assume((~plan.attacked[:-1] & plan.attacked[1:]).any())
    incidents, _, _ = incidents_dense(cfg, plan, alice, streams, 0, cfg.n_slots, 0.0, 0)
    chain = OpticalChain(plan, cfg.filter, cfg.coupler, flip, streams.flip)
    for lo in range(0, cfg.n_slots, chunk):
        hi = min(lo + chunk, cfg.n_slots)
        starts, levels, _, _ = chain.pieces(lo, hi)
        piece = np.searchsorted(starts, np.arange(lo, hi), side="right") - 1
        for d, params in enumerate(cfg.detectors):
            exact = incidents[d][lo:hi]
            dim = exact < params.blind_threshold_photons
            bound = params.escape_bound(levels[d])[piece]
            assert np.all(bound[dim] >= params.escape(exact[dim]))
            top = levels[d].max(axis=1)[piece]
            assert np.all(top[~dim] >= params.blind_threshold_photons)


def _spans_of(bright, recovery):
    """Latched spans of sorted bright slots, by a scan: a bright slot more
    than `recovery` after the previous one starts a new span."""
    starts, ends = [], []
    for slot in bright.tolist():
        if ends and slot - ends[-1] <= recovery:
            ends[-1] = slot
        else:
            starts.append(slot)
            ends.append(slot)
    return starts, ends


@settings(deadline=None, max_examples=80)
@given(
    blinding=st.integers(min_value=4, max_value=40),
    window=st.integers(min_value=1, max_value=12),
    recovery=st.lists(st.integers(min_value=1, max_value=12), min_size=4, max_size=4),
    mode=st.sampled_from(["emulation", "intercept_resend"]),
    alice_mode=st.sampled_from(["random", "static_0pi"]),
    mu=st.sampled_from([0.2, 2.0, 2e5]),
    q=st.sampled_from([0.0, 0.4, 1.0]),
    blind=st.sampled_from([3e4, 5e4, 1e6]),
    detuned=st.booleans(),
    flip=st.sampled_from([0.0, 0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32),
    chunk=st.integers(min_value=1, max_value=300),
)
def test_spans_from_the_cycle_plan_match_explicit_bright_slots(
    blinding, window, recovery, mode, alice_mode, mu, q, blind, detuned, flip, seed, chunk
):
    """At every chunk cut, the spans built from closed-form runs equal
    the spans of the bright slots that the dense reference finds.  Intercept
    mode on a random source gives port-1, port-2 and unserved cycles; the
    detuned coupler lights one detector of a pair only; mu = 2e5 without
    loss makes honest light bright."""
    cfg = ScenarioConfig(
        n_slots=1500,
        mu=mu,
        channel_loss_dB=0.0 if mu > 1e3 else 18.0,
        phase_flip_prob=flip,
        alice_mode=alice_mode,
        coupler=CouplerModel(ratio_slope_per_nm=0.04 if detuned else 0.0),
        detectors=tuple(DetectorParams(recovery_slots=r) for r in recovery),
        attack=AttackConfig(
            enabled=True, mode=mode, blind_photons_per_slot=blind, blinding_slots=blinding,
            recovery_window_slots=window, attacked_fraction=q,
            blind_wavelength_nm=1561.0 if detuned else 1551.0,
        ),
        seed=seed,
    )
    streams = RunStreams(seed)
    plan, alice = plan_and_source(cfg, streams)
    incidents, _, _ = incidents_dense(cfg, plan, alice, streams, 0, cfg.n_slots, 0.0, 0)
    chain = OpticalChain(plan, cfg.filter, cfg.coupler, flip, streams.flip)
    for lo in range(0, cfg.n_slots, chunk):
        hi = min(lo + chunk, cfg.n_slots)
        spans = engine.bright_spans(chain, chain.pieces(lo, hi), hi, cfg.detectors)
        for (starts, ends), incident, params in zip(spans, incidents, cfg.detectors):
            bright = lo + np.flatnonzero(incident[lo:hi] >= params.blind_threshold_photons)
            assert (starts.tolist(), ends.tolist()) == _spans_of(bright, params.recovery_slots)


@pytest.mark.filterwarnings("ignore:recovery window of")
@settings(deadline=None, max_examples=20)
@given(
    blinding=st.integers(min_value=4, max_value=40),
    window=st.integers(min_value=1, max_value=12),
    recovery=st.integers(min_value=1, max_value=12),
    mode=st.sampled_from(["emulation", "intercept_resend"]),
    q=st.sampled_from([0.4, 1.0]),
    detuned=st.booleans(),
    flip=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32),
    budget=st.integers(min_value=1, max_value=120),
)
def test_work_cuts_do_not_change_the_run(
    blinding, window, recovery, mode, q, detuned, flip, seed, budget
):
    """Any work budget, down to a single unit, cuts an attacked run into
    chunks that together give the one-chunk run."""
    cfg = ScenarioConfig(
        n_slots=400,
        mu=2.0,
        phase_flip_prob=flip,
        coupler=CouplerModel(ratio_slope_per_nm=0.04 if detuned else 0.0),
        detectors=(DetectorParams(recovery_slots=recovery, dark_prob_per_slot=0.01),) * 4,
        attack=AttackConfig(
            enabled=True, mode=mode, blinding_slots=blinding, recovery_window_slots=window,
            attacked_fraction=q, blind_wavelength_nm=1561.0 if detuned else 1551.0,
        ),
        seed=seed,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "CHUNK_SLOTS", 1 << 20)
        log_ref, m_ref = run_scenario(cfg)
        mp.setattr(engine, "CHUNK_SLOTS", budget)
        log, m = run_scenario(cfg)
    assert np.array_equal(log.slots, log_ref.slots)
    assert np.array_equal(log.detector_ids, log_ref.detector_ids)
    assert m == m_ref


class TestHonestOperation:
    def test_noise_free_run_has_zero_qber(self):
        cfg = small_cfg(
            n_slots=1_000_000,
            phase_flip_prob=0.0,
            detectors=tuple(
                dataclasses.replace(default_detector(), dark_prob_per_slot=0.0)
                for _ in range(4)
            ),
        )
        _, m = run_scenario(cfg)
        assert m.K_sift > 0
        assert m.qber == 0.0

    def test_low_source_power_has_no_coincidences(self):
        cfg = small_cfg(
            n_slots=1_000_000,
            mu=1e-4,
            phase_flip_prob=0.0,
            detectors=tuple(
                dataclasses.replace(default_detector(), dark_prob_per_slot=0.0)
                for _ in range(4)
            ),
        )
        _, m = run_scenario(cfg)
        assert m.coincidences == (0, 0)
        assert m.qber in (None, 0.0)  # None when no bit was sifted

    def test_vacuum_run(self):
        cfg = small_cfg(
            n_slots=2,
            mu=0.0,
            detectors=tuple(
                dataclasses.replace(default_detector(), dark_prob_per_slot=0.0)
                for _ in range(4)
            ),
        )
        log, m = run_scenario(cfg)
        assert len(log) == 0
        assert m.ccr_pair_A is None and m.ccr_pair_B is None
        assert m.K_sift == 0 and m.K_sec == 0
        assert m.abort  # no secure key

    def test_click_accounting_identity(self):
        cfg = small_cfg(n_slots=2_000_000)
        log, m = run_scenario(cfg)
        singles = sum(m.singles)
        coinc = sum(m.coincidences)
        # reconstruct multiport/slot0 clicks from the log
        total = len(log)
        assert singles + 2 * coinc <= total
        # exact identity via a fresh sift of the same log
        res = sift(log, _alice_for(cfg).key_bits_at)
        assert (
            sum(res.singles_counts.values())
            + 2 * sum(res.coincidence_counts.values())
            + res.discarded_multiport_clicks
            + res.slot0_clicks
            == total
        )

    def test_per_detector_slots_strictly_increase(self):
        cfg = small_cfg(n_slots=1_000_000)
        log, _ = run_scenario(cfg)
        for det in (1, 2, 3, 4):
            slots = log.slots[log.detector_ids == det]
            assert np.all(np.diff(slots) > 0)


def _alice_for(cfg: ScenarioConfig) -> AliceSource:
    """Alice's source as the engine builds it for `cfg`."""
    return AliceSource(cfg.alice_mode, RunStreams(cfg.seed).alice)


class TestEngineMatchesBruteSift:
    """run_scenario's metrics against the reference sift of its own log."""

    def _check(self, cfg):
        log, m = run_scenario(cfg)
        parity = _alice_for(cfg).parity_at(np.arange(cfg.n_slots))
        ref = brute_sift(parity, zip(log.slots.tolist(), log.detector_ids.tolist()))
        assert m.singles == tuple(ref["singles"][d] for d in (1, 2, 3, 4))
        assert m.coincidences == (ref["coinc"]["A"], ref["coinc"]["B"])
        assert m.K_sift == len(ref["kept"]) > 0
        assert m.qber == brute_qber(ref)
        return ref

    def test_dense_run_matches_brute_sift(self):
        # 0 dB and efficiency 0.5 give a click every few dozen slots; the
        # raised dark rate adds multi-port slots.
        det = dataclasses.replace(
            default_detector(), efficiency=0.5, dark_prob_per_slot=0.01
        )
        ref = self._check(small_cfg(channel_loss_dB=0.0, detectors=(det,) * 4))
        assert ref["coinc"]["A"] > 0 and ref["coinc"]["B"] > 0
        assert ref["multiport_slots"] > 0

    def test_attacked_run_matches_brute_sift(self):
        ref = self._check(attack_cfg(q=0.5, n_slots=300_000))
        assert ref["coinc"]["B"] > 0


class TestAttackScenarios:
    def test_full_attack_headline(self):
        cfg = attack_cfg(n_slots=1_000_000)
        log, m = run_scenario(cfg)
        assert m.K_sift == 0 and m.qber is None
        assert m.ccr_pair_B is not None and m.ccr_pair_B >= 0.99
        assert m.coincidences[1] == 100  # one per cycle
        assert m.abort
        assert m.attack_fraction_est > 0.99

    def test_attack_cycles_click_simultaneously_at_target_pair(self):
        cfg = attack_cfg(n_slots=1_000_000)
        log, _ = run_scenario(cfg)
        C = cfg.attack.cycle_slots
        steady = log.slots >= 1  # drop the onset transient at slot 0
        slots = log.slots[steady]
        dets = log.detector_ids[steady]
        assert np.all((slots + 1) % C == 0)  # all clicks at re-blinding edges
        for s in np.unique(slots):
            group = np.sort(dets[slots == s])
            assert list(group) == [3, 4]

    def test_blinding_segment_is_silent_after_onset(self):
        cfg = attack_cfg(n_slots=500_000)
        log, _ = run_scenario(cfg)
        onset = log.slots == 0
        assert int(onset.sum()) <= 4
        C = cfg.attack.cycle_slots
        mid_blinding = (log.slots % C > 10) & (log.slots % C < C - 20)
        assert not mid_blinding.any()

    def test_intercept_resend_reproduces_alice_bits(self):
        # Random source bits; Eve serves the cycles where she measured the
        # edge slot.  Every kept fake click must agree with Alice.
        cfg = small_cfg(
            n_slots=2_000_000,
            alice_mode="random",
            phase_flip_prob=0.0,
            mu=2.0,  # bright enough that most cycles are served
            attack=AttackConfig(
                enabled=True, mode="intercept_resend", attacked_fraction=1.0
            ),
        )
        log, m = run_scenario(cfg)
        assert m.coincidences[0] + m.coincidences[1] >= 150
        assert m.qber in (None, 0.0)  # any kept singles (rare darks) also agree

    def test_intercept_serves_both_ports(self):
        cfg = small_cfg(
            n_slots=2_000_000,
            alice_mode="random",
            phase_flip_prob=0.0,
            mu=2.0,
            attack=AttackConfig(
                enabled=True, mode="intercept_resend", attacked_fraction=1.0
            ),
        )
        _, m = run_scenario(cfg)
        assert m.coincidences[0] > 0 and m.coincidences[1] > 0

    def test_partial_attack_fraction_estimate(self):
        cfg = attack_cfg(q=0.5, n_slots=20_000_000)
        _, m = run_scenario(cfg)
        assert m.attack_fraction_est == pytest.approx(0.5, abs=0.05)

    def test_zero_fraction_equals_no_attack_run(self):
        with_plan = attack_cfg(q=0.0, n_slots=500_000)
        without = dataclasses.replace(with_plan, attack=AttackConfig(enabled=False))
        log_a, m_a = run_scenario(with_plan)
        log_b, m_b = run_scenario(without)
        assert np.array_equal(log_a.slots, log_b.slots)
        assert np.array_equal(log_a.detector_ids, log_b.detector_ids)
        assert m_a.to_json() == m_b.to_json()

    def test_short_recovery_window_warns_and_attack_fails(self):
        att = AttackConfig(
            enabled=True, mode="emulation", recovery_window_slots=3,
            blinding_slots=9997,
        )
        cfg = small_cfg(alice_mode="static_0pi", phase_flip_prob=0.0, attack=att)
        with pytest.warns(UserWarning):
            cfg.validate()
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            log, m = run_scenario(cfg)
        # detectors never recover: only the onset transient remains
        assert len(log) <= 4


class TestWavelengthAttackAndDefenses:
    def _detuned_cfg(self, filter_on: bool):
        return small_cfg(
            n_slots=600_000,
            alice_mode="static_0pi",
            phase_flip_prob=0.0,
            coupler=CouplerModel(center_wavelength_nm=1551.0, ratio_slope_per_nm=0.04),
            filter=BandpassFilter(
                enabled=filter_on,
                center_nm=1551.0,
                width_nm=2.0,
                out_of_band_suppression_dB=40.0,
            ),
            attack=AttackConfig(
                enabled=True, mode="emulation", blind_wavelength_nm=1561.0
            ),
        )

    def test_detuned_blinding_unbalances_the_pair(self):
        # At 1561 nm the coupler sends 90% of a port's light to one
        # detector: its partner stays below threshold and fires away.
        cfg = self._detuned_cfg(filter_on=False)
        log, m = run_scenario(cfg)
        res = sift(log, _alice_for(cfg).key_bits_at)
        checks = detector_statistics_check(res, 5.0)
        assert checks["A"].flagged or checks["B"].flagged

    def test_bandpass_filter_defeats_detuned_blinding(self):
        # 40 dB suppression turns 5e4 photons into 5: nothing blinds and
        # the detectors just see a dim out-of-band glow.
        log, m = run_scenario(self._detuned_cfg(filter_on=True))
        C = AttackConfig().cycle_slots
        edge_clicks = (log.slots + 1) % C == 0
        # no deterministic simultaneous fake clicks at the cycle edges
        assert m.ccr_pair_A is None or m.ccr_pair_A < 0.5
        assert m.ccr_pair_B is None or m.ccr_pair_B < 0.5


class TestSweeps:
    def test_ccr_estimate_linear_in_mu(self):
        base = small_cfg(n_slots=10_000)
        res = run_sweep(base, "mu", [0.1, 0.2])
        diff = res[1].ccr_est - res[0].ccr_est
        assert diff == pytest.approx(0.25 * 0.1 * base.transmission * 0.06, rel=1e-9)

    def test_results_ordered_like_values(self):
        base = small_cfg(n_slots=10_000)
        res = run_sweep(base, "channel_loss_dB", [30.0, 10.0, 20.0])
        ests = [m.ccr_est for m in res]
        assert ests[0] < ests[2] < ests[1]

    def test_bad_thread_cap_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("QKDSIM_THREADS", "abc")
        with pytest.raises(ConfigError, match="QKDSIM_THREADS"):
            run_sweep(small_cfg(n_slots=10_000), "mu", [0.1, 0.2])

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(small_cfg(), "mu", [])

    def test_unknown_axis_rejected_before_running(self):
        with pytest.raises(ConfigError):
            run_sweep(small_cfg(), "attack.warp_speed", [1.0])

    def test_non_numeric_axis_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(small_cfg(), "alice_mode", ["random"])

    def test_nested_axis(self):
        base = small_cfg(n_slots=10_000)
        res = run_sweep(base, "attack.attacked_fraction", [0.0])
        assert len(res) == 1


class TestConfigPaths:
    def test_simple_field(self):
        cfg = config_with(small_cfg(), "mu", 0.3)
        assert cfg.mu == 0.3

    def test_nested_field(self):
        cfg = config_with(small_cfg(), "attack.blind_photons_per_slot", 1e5)
        assert cfg.attack.blind_photons_per_slot == 1e5

    def test_detector_wildcard(self):
        cfg = config_with(small_cfg(), "detectors.*.dark_prob_per_slot", 0.0)
        assert all(d.dark_prob_per_slot == 0.0 for d in cfg.detectors)

    def test_detector_index(self):
        cfg = config_with(small_cfg(), "detectors.2.efficiency", 0.5)
        assert cfg.detectors[2].efficiency == 0.5
        assert cfg.detectors[0].efficiency == 0.06

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError) as err:
            config_with(small_cfg(), "attack.nope", 1)
        assert "attack.nope" in str(err.value)

    def test_ints_must_fit_the_slot_arithmetic(self):
        # Checked when the config is built; nothing is run at the bound.
        assert config_with(small_cfg(), "n_slots", 2**62 - 1).n_slots == 2**62 - 1
        for value in (2**62, -(2**62) - 1):
            with pytest.raises(ConfigError, match="detectors.0.recovery_slots"):
                config_with(small_cfg(), "detectors.*.recovery_slots", value)
        assert config_with(small_cfg(), "seed", 2**64 - 1).seed == 2**64 - 1

    def test_bad_value_propagates_path(self):
        with pytest.raises(ConfigError):
            config_with(small_cfg(), "detectors.*.efficiency", 7.0)


class TestValidation:
    def test_n_slots(self):
        with pytest.raises(ConfigError):
            small_cfg(n_slots=1).validate()

    def test_detector_count(self):
        with pytest.raises(ConfigError):
            small_cfg(detectors=(default_detector(),) * 3).validate()

    def test_alice_mode(self):
        with pytest.raises(ConfigError):
            small_cfg(alice_mode="qpsk").validate()

    def test_negative_loss(self):
        with pytest.raises(ConfigError):
            small_cfg(channel_loss_dB=-1.0).validate()
