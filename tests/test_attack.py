import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.attack import AttackConfig, AttackPlan, PORT1, PORT2, eve_outcome
from qkdsim.detector import DetectorParams
from qkdsim.engine import ConfigError, ScenarioConfig, config_with
from qkdsim.optics import ALTERNATING, CONSTANT, PER_SLOT, CouplerModel, mzi_ports
from qkdsim.protocol import AliceSource
from qkdsim.rng import SlotRng

from oracles import channel_fields_dense, entry_parity_reference, even_cuts, photons_to_dBm

SIGNAL = 0.2 * 10.0**-1.8


def make_plan(cfg, n, alice=None, cycle_rng=None, eve_outcome_at=None):
    alice = alice or AliceSource("static_0pi", SlotRng(1), SIGNAL)
    return AttackPlan(cfg, n, alice, cycle_rng or SlotRng(0), eve_outcome_at)


def fields(plan, lo, hi):
    """A plan's (mean, parity, wavelength) at every slot of [lo, hi)."""
    return plan.channel_fields(np.arange(lo, hi))


def plan_ports(plan, mean_prev=0.0):
    """Trace a plan's fields for the whole run through the interferometer
    (no phase flips; the slot before the run has parity 0 and mean
    `mean_prev`)."""
    mean, parity, _ = fields(plan, 0, plan.n_slots)
    dparity = parity ^ np.concatenate(([0], parity[:-1])).astype(np.uint8)
    prev = np.concatenate(([mean_prev], mean[:-1]))
    return mzi_ports(mean, 1.0 - 2.0 * dparity, prev)


class TestEveMeasure:
    def test_saturated_source_clicks_every_slot(self):
        alice = AliceSource("random", SlotRng(1))
        out = eve_outcome(np.arange(1000), 100.0, SlotRng(2), alice.parity_at)
        assert np.all(out[1:] != 0)

    def test_outcomes_follow_phase_difference(self):
        static = AliceSource("static_0pi", SlotRng(1))
        out = eve_outcome(np.arange(8), 100.0, SlotRng(2), static.parity_at)
        assert np.all(out[1:] == PORT2)  # static pattern: always pi
        flat = eve_outcome(np.arange(8), 100.0, SlotRng(2), np.zeros_like)
        assert np.all(flat[1:] == PORT1)  # all differences zero

    def test_click_rate_is_poissonian(self):
        n = 1_000_000
        alice = AliceSource("random", SlotRng(5))
        out = eve_outcome(np.arange(n), 0.2, SlotRng(6), alice.parity_at)
        expect = (n - 1) * (1.0 - math.exp(-0.2))
        sigma = math.sqrt(expect)
        assert abs(np.count_nonzero(out) - expect) < 4.0 * sigma

    def test_slot0_never_measured(self):
        alice = AliceSource("random", SlotRng(1))
        assert eve_outcome(np.arange(10), 100.0, SlotRng(2), alice.parity_at)[0] == 0


class TestBlindingSegment:
    def test_textbook_pattern(self):
        # Entered after parity 0, the first slot flips, then {pi,pi,0,0} repeats.
        _, parity, _ = fields(make_plan(AttackConfig(enabled=True), 100), 0, 8)
        assert list(parity) == [1, 1, 0, 0, 1, 1, 0, 0]

    def test_alternates_ports_downstream(self):
        cfg = AttackConfig(enabled=True)
        P = cfg.blind_photons_per_slot
        p1, p2 = plan_ports(make_plan(cfg, 64), mean_prev=P)
        for k in range(64):
            assert (p1[k], p2[k]) in {(P, 0.0), (0.0, P)}
            assert (p1[k] > p2[k]) == (k % 2 == 1)  # first slot flips to port 2

    def test_each_detector_sees_threshold_after_coupler(self):
        cfg = AttackConfig(enabled=True)  # 5e4 at the interferometer input
        p1, p2 = plan_ports(make_plan(cfg, 16))
        lit = np.maximum(p1, p2)
        assert np.all(lit[1:] == 5e4)
        det_a, det_b = CouplerModel().split(lit[1:], cfg.blind_wavelength_nm)
        threshold = DetectorParams().blind_threshold_photons
        assert np.all(det_a >= threshold) and np.all(det_b >= threshold)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            AttackConfig(blinding_slots=3)


class TestRecoveryWindow:
    def _window(self, cfg):
        C = cfg.cycle_slots
        return slice(C - 1 - cfg.recovery_window_slots, C - 1)

    def test_port2_window_is_constant_phase_and_dark(self):
        cfg = AttackConfig(enabled=True, mode="emulation")
        plan = make_plan(cfg, cfg.cycle_slots)
        _, parity, _ = fields(plan, 0, cfg.cycle_slots)
        window = self._window(cfg)
        assert len(set(parity[window])) == 1
        p1, p2 = plan_ports(plan)
        assert np.all(p2[window] == 0.0)
        assert p2[-1] == cfg.blind_photons_per_slot  # re-blinding edge

    def test_port1_window_alternates_and_darkens_port1(self):
        cfg = AttackConfig(enabled=True, mode="intercept_resend")
        plan = make_plan(
            cfg, cfg.cycle_slots, eve_outcome_at=lambda s: np.full(len(s), PORT1)
        )
        _, parity, _ = fields(plan, 0, cfg.cycle_slots)
        window = self._window(cfg)
        assert np.all(np.diff(parity[window].astype(int)) != 0)
        p1, _ = plan_ports(plan)
        assert np.all(p1[window] == 0.0)
        assert p1[-1] == cfg.blind_photons_per_slot  # re-blinding edge

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(recovery_window_slots=0)


class TestAssembleProgram:
    def test_emulation_cycle_structure(self):
        cfg = AttackConfig(enabled=True, mode="emulation")
        n = 2 * cfg.cycle_slots
        plan = make_plan(cfg, n)
        mean, _, _ = fields(plan, 0, n)
        assert np.all(mean == cfg.blind_photons_per_slot)
        p1, p2 = plan_ports(plan)
        C = cfg.cycle_slots
        for k in (0, 1):
            window = slice(k * C + C - 1 - cfg.recovery_window_slots, k * C + C - 1)
            assert np.all(p2[window] == 0.0)  # port 2 dark through the window
            assert p2[k * C + C - 1] == cfg.blind_photons_per_slot  # re-blinding edge

    def test_pass_through_cycles_carry_attenuated_signal(self):
        cfg = AttackConfig(enabled=True, mode="emulation", attacked_fraction=0.5)
        n = 20 * cfg.cycle_slots
        alice = AliceSource("static_0pi", SlotRng(1), SIGNAL)
        mean, parity, _ = fields(make_plan(cfg, n, alice, SlotRng(77)), 0, n)
        assert set(np.unique(mean)) == {SIGNAL, cfg.blind_photons_per_slot}
        # pass-through slots carry Alice's phases
        passthrough = mean == SIGNAL
        alice_parity = alice.parity_at(np.arange(n))
        assert np.array_equal(parity[passthrough], alice_parity[passthrough])

    def test_zero_fraction_is_pure_passthrough(self):
        cfg = AttackConfig(enabled=True, mode="emulation", attacked_fraction=0.0)
        n = 3 * cfg.cycle_slots
        alice = AliceSource("random", SlotRng(4), SIGNAL)
        mean, parity, lam = fields(make_plan(cfg, n, alice), 0, n)
        assert np.all(mean == SIGNAL) and np.all(lam == 1551.0)
        assert np.array_equal(parity, alice.parity_at(np.arange(n)))

    def test_intercept_needs_measurements(self):
        cfg = AttackConfig(enabled=True, mode="intercept_resend")
        with pytest.raises(ValueError):
            make_plan(cfg, 100)

    def test_intercept_targets_follow_eve(self):
        cfg = AttackConfig(
            enabled=True, mode="intercept_resend", blinding_slots=90,
            recovery_window_slots=10,
        )
        n = 10 * cfg.cycle_slots
        alice = AliceSource("random", SlotRng(9))
        # bright: Eve always clicks
        eve = functools.partial(
            eve_outcome, mu=50.0, rng=SlotRng(10), alice_parity_at=alice.parity_at
        )
        plan = make_plan(cfg, n, alice, eve_outcome_at=eve)
        C = cfg.cycle_slots
        edges = (np.arange(plan.n_cycles) + 1) * C - 1
        assert np.array_equal(plan.targets, eve(edges))
        assert np.all(plan.targets != 0)


def test_duty_weighted_port_power_matches_reported_average():
    # During blinding the stream alternates ports, so a port sees the full
    # stream every other slot: its duty-weighted mean is half the program
    # level.  That average must sit within 1 dB of -25.85 dBm.
    cfg = AttackConfig()
    port_mean = cfg.blind_photons_per_slot / 2.0
    dbm = photons_to_dBm(port_mean, 1e9, cfg.blind_wavelength_nm)
    assert abs(dbm - (-25.85)) < 1.0


def test_plan_truncated_final_cycle_blinds_throughout():
    cfg = AttackConfig(enabled=True, mode="emulation")
    C = cfg.cycle_slots
    n = C + C // 2  # second cycle truncated
    plan = make_plan(cfg, n)
    assert list(plan.targets) == [PORT2, 0]
    p1, p2 = plan_ports(plan)
    assert len(p1) == n
    # truncated cycle has no recovery window: both ports keep alternating
    tail1 = p1[C + 1:]
    tail2 = p2[C + 1:]
    assert np.all((tail1 == 0.0) | (tail2 == 0.0))
    assert np.all(np.maximum(tail1, tail2) == cfg.blind_photons_per_slot)


def test_config_validation():
    with pytest.raises(ConfigError, match="^attack.mode: "):
        config_with(ScenarioConfig(), "attack.mode", "loud")
    with pytest.raises(ValueError):
        AttackConfig(attacked_fraction=1.5)
    with pytest.raises(ValueError):
        AttackConfig(recovery_window_slots=0)


@settings(deadline=None, max_examples=60)
@given(
    blinding=st.integers(min_value=4, max_value=30),
    window=st.integers(min_value=1, max_value=9),
    q=st.sampled_from([0.3, 1.0]),
    alice_mode=st.sampled_from(["random", "static_0pi"]),
    intercept=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
    cuts=st.lists(st.integers(min_value=1, max_value=399), max_size=6),
)
def test_pattern_describes_every_slot(blinding, window, q, alice_mode, intercept, seed, cuts):
    """Over each piece of `AttackPlan.pattern`, with [0, n) cut where
    `engine.chunks` cuts (at a piece start or an even offset into a
    piece), every slot and its predecessor carry the light of the
    piece's first slot and its predecessor, and the phase difference (as
    the dense reference fills it) is constant or alternates as the
    piece's kind says.  Pieces with
    one tag have one kind, one light and predecessor light, and, unless
    per-slot, one first phase difference."""
    cfg = AttackConfig(
        enabled=True, mode="intercept_resend" if intercept else "emulation",
        blinding_slots=blinding, recovery_window_slots=window, attacked_fraction=q,
    )
    n = 400
    alice = AliceSource(alice_mode, SlotRng(seed))
    eve = functools.partial(eve_outcome, mu=1.0, rng=SlotRng(seed + 1),
                            alice_parity_at=alice.parity_at)
    plan = make_plan(cfg, n, alice, SlotRng(seed + 2), eve)
    mean, parity, lam = channel_fields_dense(plan, 0, n)
    light = np.column_stack((mean, lam))
    prev_light = np.vstack(([[0.0, 0.0]], light[:-1]))
    diff = parity ^ np.concatenate(([0], parity[:-1])).astype(np.uint8)
    bounds = even_cuts(plan.pattern(0, n)[0].tolist(), cuts, n)
    seen = {}
    for lo, hi in zip(bounds, bounds[1:]):
        starts, kinds, tags = plan.pattern(lo, hi)
        assert starts[0] == lo and np.all(np.diff(starts) > 0) and starts[-1] < hi
        assert np.all((tags >= 0) & (tags < plan.n_tags))
        for a, b, kind, tag in zip(starts.tolist(), starts[1:].tolist() + [hi], kinds.tolist(),
                                   tags.tolist()):
            assert np.all(light[a:b] == light[a]) and np.all(prev_light[a:b] == prev_light[a])
            t = np.arange(b - a)
            if kind == CONSTANT:
                assert np.all(diff[a:b] == diff[a])
            elif kind == ALTERNATING:
                assert np.all(diff[a:b] == diff[a] ^ (t & 1))
            # Slot 0's difference is to vacuum, so any.
            first_diff = -1 if kind == PER_SLOT or a == 0 else diff[a]
            described = (kind, *light[a], *prev_light[a], first_diff)
            assert seen.setdefault(tag, described) == described


@settings(deadline=None, max_examples=80)
@given(
    blinding=st.integers(min_value=4, max_value=30),
    window=st.integers(min_value=1, max_value=9),
    q=st.sampled_from([0.0, 0.3, 1.0]),
    alice_mode=st.sampled_from(["random", "static_0pi"]),
    intercept=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
    cycles=st.integers(min_value=1, max_value=30),
    extra=st.integers(min_value=1, max_value=40),
)
def test_entry_parity_matches_the_cycle_by_cycle_reference(
    blinding, window, q, alice_mode, intercept, seed, cycles, extra
):
    """The plan's entry parities, and the parities it gives every slot,
    equal a cycle-by-cycle walk: an attacked cycle's last parity from the
    dense reference, a pass-through cycle's from Alice.  The run ends
    inside a cycle."""
    cfg = AttackConfig(
        enabled=True, mode="intercept_resend" if intercept else "emulation",
        blinding_slots=blinding, recovery_window_slots=window, attacked_fraction=q,
    )
    n = cycles * cfg.cycle_slots + 1 + extra % (cfg.cycle_slots - 1)
    alice = AliceSource(alice_mode, SlotRng(seed))
    eve = functools.partial(eve_outcome, mu=1.0, rng=SlotRng(seed + 1),
                            alice_parity_at=alice.parity_at)
    plan = make_plan(cfg, n, alice, SlotRng(seed + 2), eve)
    entry = entry_parity_reference(plan)
    assert np.array_equal(plan.entry_parity, entry)
    _, parity, _ = plan.channel_fields(np.arange(n))
    assert np.array_equal(parity, channel_fields_dense(plan, 0, n, entry)[1])
