import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdsim.engine import ConfigError, ScenarioConfig
from qkdsim.optics import BandpassFilter, CouplerModel, mzi_ports

from oracles import mzi_ports_by_amplitude


def transmission(loss_dB):
    return ScenarioConfig(channel_loss_dB=loss_dB).transmission


def ports_for_phases(phases, means, prev_mean=0.0, prev_phase=0.0):
    """mzi_ports on arbitrary phases: cos_dphi[k] = cos(phi_k - phi_{k-1}),
    and each slot's predecessor mean gathered from `means`."""
    phases = np.asarray(phases, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    cos_dphi = np.cos(phases - np.concatenate(([prev_phase], phases[:-1])))
    return mzi_ports(means, cos_dphi, np.concatenate(([prev_mean], means[:-1])))


def interfere(current_phase, previous_phase, mean):
    """One slot interfering with an equal-mean predecessor."""
    p1, p2 = ports_for_phases([current_phase], [mean], mean, previous_phase)
    return float(p1[0]), float(p2[0])


class TestAttenuate:
    def test_zero_loss_identity(self):
        assert 0.2 * transmission(0.0) == 0.2

    def test_18db(self):
        assert transmission(18.0) == pytest.approx(0.015849, abs=1e-6)

    def test_source_through_channel(self):
        assert 0.2 * transmission(18.0) == pytest.approx(0.0031698, abs=1e-7)

    def test_gain_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(channel_loss_dB=-0.1).validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(channel_loss_dB=math.inf).validate()

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=60.0),
    )
    def test_losses_compose_multiplicatively(self, mean, a, b):
        two_step = mean * transmission(a) * transmission(b)
        one_step = mean * transmission(a + b)
        assert two_step == pytest.approx(one_step, rel=1e-12, abs=1e-300)


class TestBandpass:
    def test_in_band_identity(self):
        filt = BandpassFilter(enabled=True, center_nm=1551.0, width_nm=2.0)
        mean = np.array([0.5, 0.5])
        assert filt.apply(mean, np.array([1551.0, 1551.9])) is mean
        assert filt.apply(mean, 1551.0) is mean

    def test_out_of_band_suppressed(self):
        filt = BandpassFilter(
            enabled=True, center_nm=1551.0, width_nm=2.0, out_of_band_suppression_dB=40.0
        )
        out = filt.apply(np.array([1e5, 1e5]), np.array([1560.0, 1551.0]))
        assert out[0] == pytest.approx(10.0) and out[1] == 1e5
        assert np.all(filt.apply(np.array([1e5, 1e5]), 1560.0) == pytest.approx(10.0))

    def test_disabled_identity(self):
        filt = BandpassFilter(enabled=False)
        mean = np.array([1e5])
        assert filt.apply(mean, np.array([1700.0])) is mean

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            BandpassFilter(enabled=True, width_nm=0.0)


class TestMziInterfere:
    def test_constructive_routes_to_port1(self):
        p1, p2 = interfere(0.0, 0.0, 1.0)
        assert p1 == pytest.approx(1.0, abs=1e-12)
        assert p2 == pytest.approx(0.0, abs=1e-12)

    def test_destructive_routes_to_port2(self):
        p1, p2 = interfere(math.pi, 0.0, 1.0)
        assert p1 == pytest.approx(0.0, abs=1e-12)
        assert p2 == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_splits_equally(self):
        p1, p2 = interfere(math.pi / 2.0, 0.0, 2.5e4)
        assert p1 == pytest.approx(1.25e4)
        assert p2 == pytest.approx(1.25e4)

    def test_two_pi_routes_like_zero(self):
        _, p2 = interfere(2.0 * math.pi, 0.0, 1.0)
        assert p2 == pytest.approx(0.0, abs=1e-12)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=1e8),
    )
    def test_energy_conserved(self, cur, prev, mean):
        p1, p2 = interfere(cur, prev, mean)
        assert p1 + p2 == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert p1 >= 0.0 and p2 >= 0.0


class TestMziAmplitudeOracle:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=2.0 * math.pi), min_size=1, max_size=16),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_matches_complex_amplitude_evaluation(self, phases, alpha):
        ref1, ref2 = mzi_ports_by_amplitude(phases, alpha=alpha)
        p1, p2 = ports_for_phases(phases, [alpha * alpha] * len(phases))
        assert list(p1) == pytest.approx(ref1, rel=1e-10, abs=1e-10)
        assert list(p2) == pytest.approx(ref2, rel=1e-10, abs=1e-10)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0 * math.pi),
                st.floats(min_value=0.0, max_value=1e4),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_unequal_means_match_oracle(self, slots):
        phases = [p for p, _ in slots]
        means = [m for _, m in slots]
        ref1, ref2 = mzi_ports_by_amplitude(phases, means=means)
        p1, p2 = ports_for_phases(phases, means)
        assert list(p1) == pytest.approx(ref1, rel=1e-10, abs=1e-10)
        assert list(p2) == pytest.approx(ref2, rel=1e-10, abs=1e-10)

    def test_first_slot_interferes_with_vacuum(self):
        p1, p2 = mzi_ports(np.array([8.0]), np.array([-1.0]), 0.0)
        assert p1[0] == 2.0 and p2[0] == 2.0

    def test_equal_means_reduce_to_contract_form(self):
        # mean*(1 +/- cos dphi)/2 for equal adjacent means
        p1, p2 = interfere(1.1, 0.3, 3.0)
        c = math.cos(1.1 - 0.3)
        assert p1 == pytest.approx(3.0 * (1.0 + c) / 2.0, rel=1e-12)
        assert p2 == pytest.approx(3.0 * (1.0 - c) / 2.0, rel=1e-12)


def test_alternating_pattern_alternates_ports():
    # Repeating phases 0, 0, pi, pi give differences pi, 0, pi, 0, ...
    phases = [0.0, 0.0, math.pi, math.pi] * 4
    p1, p2 = ports_for_phases(phases, [1.0] * len(phases))
    lit_ports = [1 if p1[k] > 0.5 else 2 for k in range(1, len(phases))]
    assert lit_ports == [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1]


class TestCoupler:
    def test_on_center_even_split(self):
        c = CouplerModel(center_wavelength_nm=1551.0, ratio_slope_per_nm=0.04)
        a, b = c.split(1.0, 1551.0)
        assert a == 0.5 and b == 0.5
        a, b = CouplerModel().split(np.array([1.0, 3.0]), np.array([1551.0, 1600.0]))
        assert list(a) == [0.5, 1.5] and list(b) == [0.5, 1.5]

    def test_zero_input(self):
        c = CouplerModel()
        assert c.split(0.0, 1600.0) == (0.0, 0.0)

    def test_detuned_split(self):
        c = CouplerModel(center_wavelength_nm=1551.0, ratio_slope_per_nm=0.04)
        a, b = c.split(1.0, 1561.0)
        assert a == pytest.approx(0.9) and b == pytest.approx(0.1)
        a, b = c.split(np.array([1.0, 1.0]), np.array([1561.0, 1541.0]))
        assert list(a) == pytest.approx([0.9, 0.1]) and list(b) == pytest.approx([0.1, 0.9])

    def test_ratio_clamped(self):
        c = CouplerModel(center_wavelength_nm=1551.0, ratio_slope_per_nm=0.04)
        assert c.ratio(1600.0) == 1.0
        assert c.ratio(1500.0) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1500.0, max_value=1600.0),
        st.floats(min_value=-0.1, max_value=0.1),
    )
    def test_outputs_sum_exactly(self, mean, lam, slope):
        c = CouplerModel(center_wavelength_nm=1551.0, ratio_slope_per_nm=slope)
        a, b = c.split(mean, lam)
        assert a + b == mean
        assert a >= 0.0 and b >= 0.0
