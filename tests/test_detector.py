import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.detector import (
    BlockState,
    DetectorParams,
    count_rate_sweep,
    dBm_to_photons,
    latched_spans,
    photons_to_dBm,
    simulate_block,
)
from qkdsim.rng import SlotRng

from oracles import Detector, Mode


def params(**kw):
    defaults = dict(
        efficiency=0.06,
        dark_prob_per_slot=0.0,
        dead_time_slots=50,
        blind_threshold_photons=2.5e4,
        recovery_slots=8,
    )
    defaults.update(kw)
    return DetectorParams(**defaults)


def make_det(det_id=1, seed=1, **kw):
    return Detector(det_id, params(**kw), SlotRng(seed))


def dense_block(incident, base, par, state, rng):
    """`simulate_block` for one detector over the slots [base, base +
    len(incident)), given the incident mean of every slot: the latched
    spans of its bright slots, and one piece whose levels are all the
    means present (plus 0, so an empty block still has one)."""
    incident = np.asarray(incident, dtype=np.float64)
    bright = base + np.flatnonzero(incident >= par.blind_threshold_photons)
    spans = latched_spans(bright, bright, np.ones_like(bright), par.recovery_slots)
    levels = np.unique(np.append(incident, 0.0))[None, :]
    log = simulate_block(
        base, base + len(incident), [spans], np.array([base]), [levels],
        lambda slots: [incident[slots - base]], [par], [state], [rng],
    )
    return log.slots


class TestParamsValidation:
    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            params(efficiency=1.5)

    def test_dark_range(self):
        with pytest.raises(ValueError):
            params(dark_prob_per_slot=1.0)

    def test_threshold_must_be_bright(self):
        with pytest.raises(ValueError):
            params(blind_threshold_photons=10.0)

    def test_recovery_at_least_one(self):
        with pytest.raises(ValueError):
            params(recovery_slots=0)


class TestStateMachine:
    def test_bright_from_ready_clicks_and_blinds(self):
        det = make_det()
        click = det.step(2.5e4, 0)
        assert click is not None and click.slot == 0
        assert det.state.mode is Mode.BLINDED

    def test_bright_while_blinded_stays_silent(self):
        det = make_det()
        det.step(2.5e4, 0)
        for slot in range(1, 20):
            assert det.step(5e4, slot) is None
        assert det.state.mode is Mode.BLINDED

    def test_recovery_after_eight_dark_slots(self):
        det = make_det(recovery_slots=8)
        det.step(5e4, 10)  # blinded, last bright at 10
        for slot in range(11, 19):
            det.step(0.0, slot)
        assert det.step(0.0, 19) is None  # vacuum, darks off: no click
        assert det.state.mode is Mode.READY

    def test_vacuum_without_darks_never_clicks(self):
        det = make_det(dark_prob_per_slot=0.0)
        assert all(det.step(0.0, s) is None for s in range(100))
        assert det.state.mode is Mode.READY

    def test_bright_resets_recovery_countdown(self):
        det = make_det(recovery_slots=8)
        det.step(5e4, 0)
        for slot in range(1, 6):
            det.step(0.0, slot)
        det.step(5e4, 6)  # refresh
        for slot in range(7, 14):
            det.step(0.0, slot)
        assert det.state.mode is Mode.BLINDED  # only 7 dark slots since refresh
        det.step(0.0, 14)
        assert det.state.mode is Mode.READY

    def test_continuous_bright_emits_single_click(self):
        det = make_det()
        clicks = [det.step(1e5, s) for s in range(500)]
        assert sum(c is not None for c in clicks) == 1

    def test_bright_during_dead_blinds_without_click(self):
        det = make_det(efficiency=1.0, dead_time_slots=50)
        click = det.step(100.0, 0)  # saturating dim light: certain click
        assert click is not None
        assert det.state.mode is Mode.DEAD
        assert det.step(5e4, 3) is None
        assert det.state.mode is Mode.BLINDED

    def test_click_starts_dead_time(self):
        det = make_det(efficiency=1.0, dead_time_slots=10)
        assert det.step(100.0, 0) is not None
        for slot in range(1, 10):
            assert det.step(100.0, slot) is None  # held dead
        assert det.step(100.0, 10) is not None  # clickable again at expiry

    def test_alternating_bright_never_recovers(self):
        # Every other slot bright, recovery >= 2: blindness is sustained.
        det = make_det(recovery_slots=2)
        det.step(5e4, 0)
        for slot in range(1, 2001):
            incident = 5e4 if slot % 2 == 0 else 0.0
            assert det.step(incident, slot) is None

    def test_nonmonotone_slot_rejected(self):
        det = make_det()
        det.step(0.0, 5)
        with pytest.raises(ValueError):
            det.step(0.0, 5)

    def test_negative_incident_rejected(self):
        det = make_det()
        with pytest.raises(ValueError):
            det.step(-1.0, 0)


def test_dim_click_statistics_match_poisson_escape():
    # At lambda*eta = 1e-3 with darks and dead time off, clicks are Bernoulli
    # per slot with p = 1 - e^{-1e-3}.
    p = params(efficiency=0.06, dead_time_slots=0)
    incident = np.full(1_000_000, 0.001 / 0.06)
    clicks = dense_block(incident, 0, p, BlockState(), SlotRng(321))
    expect = 1_000_000 * (1.0 - math.exp(-0.001))
    sigma = math.sqrt(expect)
    assert abs(len(clicks) - expect) < 3.0 * sigma


def test_determinism_same_seed_same_clicks():
    incident = np.full(50_000, 0.02)
    p = params()
    a = dense_block(incident, 0, p, BlockState(), SlotRng(5))
    b = dense_block(incident, 0, p, BlockState(), SlotRng(5))
    assert np.array_equal(a, b)
    c = dense_block(incident, 0, p, BlockState(), SlotRng(6))
    assert not np.array_equal(a, c)


def _run_step_reference(incident, par, seed):
    det = Detector(1, par, SlotRng(seed))
    out = []
    for slot, inc in enumerate(incident):
        if det.step(float(inc), slot) is not None:
            out.append(slot)
    return out


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.sampled_from([0.0, 0.5, 5.0, 120.0, 2.5e4, 6e4]),
        min_size=1,
        max_size=300,
    ),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=6),
)
def test_block_simulation_equals_step_reference(seq, seed, dead, recovery):
    par = params(
        efficiency=0.3,
        dark_prob_per_slot=0.01,
        dead_time_slots=dead,
        blind_threshold_photons=2.4e4,
        recovery_slots=recovery,
    )
    incident = np.asarray(seq)
    ref = _run_step_reference(incident, par, seed)
    got = dense_block(incident, 0, par, BlockState(), SlotRng(seed))
    assert list(got) == ref


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.sampled_from([0.0, 0.5, 120.0, 3e4]), min_size=20, max_size=200
    ),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=40),
)
def test_block_simulation_chunking_invariant(seq, seed, split):
    par = params(efficiency=0.2, dark_prob_per_slot=0.005)
    incident = np.asarray(seq)
    whole = dense_block(incident, 0, par, BlockState(), SlotRng(seed))
    state = BlockState()
    parts = []
    cut = min(split, len(seq))
    parts.extend(dense_block(incident[:cut], 0, par, state, SlotRng(seed)))
    parts.extend(dense_block(incident[cut:], cut, par, state, SlotRng(seed)))
    assert list(whole) == parts


@st.composite
def _bright_runs(draw):
    """Bright runs separated by dim gaps, most of R - 1, R or R + 1 slots:
    a gap of R dim slots is the shortest after which a bright slot is a
    rising edge."""
    recovery = draw(st.integers(min_value=1, max_value=6))
    dim = st.sampled_from([0.0, 0.5, 5.0, 120.0])
    seq = draw(st.lists(dim, max_size=12))
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        seq += [draw(st.sampled_from([2.5e4, 6e4]))] * draw(st.integers(1, 4))
        gap = draw(st.sampled_from([recovery, recovery + 1, recovery - 1, 20]))
        seq += draw(st.lists(dim, min_size=gap, max_size=gap))
    return recovery, seq


@settings(deadline=None, max_examples=80)
@given(
    _bright_runs(),
    st.integers(min_value=0, max_value=2**40),
    st.lists(st.integers(min_value=0, max_value=400), min_size=3, max_size=5),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([0, 0, 1, 7]),
)
def test_block_state_carries_across_cuts_at_any_base(runs, base, cuts, seed, dead):
    recovery, seq = runs
    par = params(
        efficiency=0.3,
        dark_prob_per_slot=0.01,
        dead_time_slots=dead,
        blind_threshold_photons=2.4e4,
        recovery_slots=recovery,
    )
    incident = np.asarray(seq)
    det = Detector(1, par, SlotRng(seed))
    state = BlockState()
    ref, got = [], []
    last_dim_click = BlockState().last_dim_click
    bounds = sorted({min(c, len(seq)) for c in cuts} | {0, len(seq)})
    for lo, hi in zip(bounds, bounds[1:]):
        for i in range(lo, hi):
            if det.step(float(incident[i]), base + i) is not None:
                ref.append(base + i)
                if incident[i] < par.blind_threshold_photons:
                    last_dim_click = base + i
        got += dense_block(incident[lo:hi], base + lo, par, state, SlotRng(seed)).tolist()
        assert got == ref
        assert state.last_bright == det.state.last_bright_slot
        assert state.dead_until == det.state.until_slot
        assert state.last_dim_click == last_dim_click


class TestCountRateSweep:
    def test_dark_and_light_off_gives_zero(self):
        res = count_rate_sweep(params(), [0.0], 10_000, SlotRng(1))
        assert res[0][1] == 0.0

    def test_blinding_power_collapses_rate(self):
        res = count_rate_sweep(params(), [2.5e4, 1e5], 50_000, SlotRng(1))
        for _, rate in res:
            assert rate <= 1e9 * 2 / 50_000  # at most the rising-edge click

    def test_saturated_rate_near_dead_time_limit(self):
        # lambda*eta = 1: a click-then-dead cycle of ~51 slots.
        p = params(efficiency=0.1, dead_time_slots=50)
        res = count_rate_sweep(p, [10.0], 100_000, SlotRng(3))
        assert res[0][1] == pytest.approx(1e9 / 51.0, rel=0.05)

    def test_unsorted_powers_rejected(self):
        with pytest.raises(ValueError):
            count_rate_sweep(params(), [1.0, 0.5], 10_000, SlotRng(1))

    def test_too_few_slots_rejected(self):
        with pytest.raises(ValueError):
            count_rate_sweep(params(), [1.0], 100, SlotRng(1))


class TestPhotonsToDbm:
    def test_blinding_power_equivalence(self):
        assert photons_to_dBm(2.5e4, 1e9, 1551.0) == pytest.approx(-24.9, abs=0.2)

    def test_doubling_adds_3db(self):
        d = photons_to_dBm(2.0, 1e9, 1551.0) - photons_to_dBm(1.0, 1e9, 1551.0)
        assert d == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)

    def test_single_photon_per_slot(self):
        assert photons_to_dBm(1.0, 1e9, 1551.0) == pytest.approx(-68.9, abs=0.2)

    def test_roundtrip(self):
        dbm = photons_to_dBm(123.0, 1e9, 1551.0)
        assert dBm_to_photons(dbm, 1e9, 1551.0) == pytest.approx(123.0, rel=1e-12)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            photons_to_dBm(0.0, 1e9, 1551.0)
