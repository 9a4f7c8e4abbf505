import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import protocol
from qkdsim.protocol import (
    AliceSource,
    ClickLog,
    KeyRateInputs,
    NoDataError,
    SiftResult,
    attack_fraction_estimate,
    ccr_estimate,
    ccr_measure,
    detector_statistics_check,
    qber,
    secure_fraction,
    secure_key_length,
    sift,
)
from qkdsim.rng import SlotRng

from oracles import (
    SECURE_FRACTION_E0,
    SECURE_FRACTION_E032,
    brute_qber,
    brute_sift,
    read_clicks_csv,
    secure_fraction_reference,
)


def record(parities):
    """Alice's key bits for a fixed per-slot parity sequence."""
    p = np.asarray(parities, dtype=np.uint8)
    return lambda slots: p[slots] ^ p[slots - 1]


def log_of(*clicks):
    return ClickLog.merge(
        [np.asarray([s for s, d in clicks if d == det], dtype=np.int64) for det in (1, 2, 3, 4)]
    )


class TestAliceEmit:
    def test_static_alternates(self):
        alice = AliceSource("static_0pi", SlotRng(0))
        assert list(alice.parity_at(np.arange(4))) == [0, 1, 0, 1]
        assert list(alice.key_bits_at(np.arange(1, 4))) == [1, 1, 1]

    def test_random_is_balanced(self):
        n = 1_000_000
        bits = AliceSource("random", SlotRng(11)).parity_at(np.arange(n))
        frac_pi = np.count_nonzero(bits) / n
        sigma = math.sqrt(0.25 / n)
        assert abs(frac_pi - 0.5) < 4.0 * sigma

    def test_same_seed_reproduces(self):
        a = AliceSource("random", SlotRng(3)).parity_at(np.arange(1000))
        b = AliceSource("random", SlotRng(3)).parity_at(np.arange(1000))
        assert np.array_equal(a, b)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            AliceSource("sideways", SlotRng(0))


class TestSift:
    def test_single_click_agreement(self):
        rec = record([0, 0, 0, 0])  # every difference is 0
        res = sift(log_of((2, 1)), rec)
        assert list(res.alice_bits) == [0] and list(res.bob_bits) == [0]
        assert qber(res) == 0.0

    def test_pair_coincidence_excluded(self):
        rec = record([0, 0, 0, 0])
        res = sift(log_of((2, 3), (2, 4)), rec)
        assert len(res) == 0
        assert res.coincidence_counts == {"A": 0, "B": 1}

    def test_wrong_port_click_is_an_error(self):
        rec = record([0, 0, 0, 0])
        res = sift(log_of((2, 2)), rec)
        # detector 2 is on port 1 -> Bob bit 0; Alice bit 0: agreement
        assert qber(res) == 0.0
        res = sift(log_of((2, 3)), rec)  # port 2 -> Bob bit 1 vs Alice 0
        assert qber(res) == 1.0

    def test_slot0_click_excluded_and_counted(self):
        rec = record([0, 1, 0, 1])
        res = sift(log_of((0, 1), (0, 3)), rec)
        assert len(res) == 0
        assert res.slot0_clicks == 2

    def test_multiport_discarded(self):
        rec = record([0, 1, 0, 1])
        res = sift(log_of((2, 1), (2, 4)), rec)
        assert len(res) == 0
        assert res.discarded_multiport == 1
        assert res.discarded_multiport_clicks == 2

    def test_static_pattern_bits_are_ones(self):
        rec = record([0, 1, 0, 1, 0, 1])
        res = sift(log_of((1, 3), (4, 4)), rec)
        assert list(res.alice_bits) == [1, 1]
        assert list(res.bob_bits) == [1, 1]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_sift_matches_brute_force(data):
    n_slots = data.draw(st.integers(min_value=2, max_value=200))
    parities = data.draw(
        st.lists(st.integers(0, 1), min_size=n_slots, max_size=n_slots)
    )
    clicks = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_slots - 1),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=60,
            unique=True,
        )
    )
    res = sift(log_of(*clicks), record(parities))
    ref = brute_sift(parities, clicks)
    assert res.singles_counts == ref["singles"]
    assert res.coincidence_counts == ref["coinc"]
    assert res.discarded_multiport == ref["multiport_slots"]
    assert res.discarded_multiport_clicks == ref["multiport_clicks"]
    assert res.slot0_clicks == ref["slot0_clicks"]
    assert list(res.kept_slots) == ref["kept"]
    assert list(res.alice_bits) == ref["alice_bits"]
    assert list(res.bob_bits) == ref["bob_bits"]
    if ref["kept"]:
        assert qber(res) == brute_qber(ref)


class TestQber:
    def test_empty_is_no_data(self):
        rec = record([0, 0])
        with pytest.raises(NoDataError):
            qber(sift(log_of(), rec))


class TestCcrEstimate:
    def test_zero_source(self):
        assert ccr_estimate(0.0, 0.5, 0.5, 0.0) == 0.0

    def test_formula_is_exact(self):
        mu, T, eta, d = 0.2, 10.0**-1.8, 0.06, 2.4532042261666024e-06
        assert ccr_estimate(mu, T, eta, d) == 0.25 * mu * T * eta + d
        assert ccr_estimate(mu, T, eta, d) == pytest.approx(5.0e-5, rel=1e-9)

    def test_linear_in_mu(self):
        lo = ccr_estimate(0.1, 0.01, 0.1, 1e-5)
        hi = ccr_estimate(0.2, 0.01, 0.1, 1e-5)
        assert hi - lo == pytest.approx(0.25 * 0.1 * 0.01 * 0.1, rel=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            ccr_estimate(0.2, 0.0, 0.1, 0.0)


class TestCcrMeasure:
    def test_all_coincident_is_one(self):
        rec = record([0] * 10)
        res = sift(log_of((3, 3), (3, 4), (5, 3), (5, 4)), rec)
        assert ccr_measure(res, "B") == 1.0

    def test_textbook_arithmetic(self):
        res = sift(log_of(), record([0] * 4))
        res.singles_counts[1] = 100
        res.singles_counts[2] = 100
        res.coincidence_counts["A"] = 10
        assert ccr_measure(res, "A") == pytest.approx(2 * 10 / 220.0)
        assert ccr_measure(res, "A") == pytest.approx(0.0909, abs=1e-4)

    def test_uncoincident_is_zero(self):
        res = sift(log_of((2, 3), (5, 4)), record([0] * 10))
        assert ccr_measure(res, "B") == 0.0

    def test_no_clicks_is_no_data(self):
        res = sift(log_of((2, 3)), record([0] * 10))
        with pytest.raises(NoDataError):
            ccr_measure(res, "A")


class TestSecureKeyLength:
    def test_fraction_at_zero_error(self):
        inputs = KeyRateInputs(
            K_sift=1000, mu=0.2, T=1.585e-2, eta=0.1, e=0.0, f_e=1.16
        )
        s = secure_fraction(inputs)
        assert s == pytest.approx(SECURE_FRACTION_E0, abs=1e-12)
        assert s == pytest.approx(0.6006, abs=1e-4)

    def test_fraction_at_operating_error(self):
        inputs = KeyRateInputs(
            K_sift=1000,
            mu=0.2,
            T=1.585e-2,
            eta=0.1,
            e=0.032,
            f_e=1.16,
            CCR_exp=1.4e-4,
            CCR_est=5.0e-5,
        )
        s = secure_fraction(inputs)
        assert s == pytest.approx(SECURE_FRACTION_E032, abs=1e-12)
        assert s == pytest.approx(0.107, abs=2e-3)

    def test_matches_reference_on_grid(self):
        for e in (0.0, 0.01, 0.05, 0.1, 0.15):
            for dccr in (0.0, 1e-4, 0.01):
                inputs = KeyRateInputs(
                    K_sift=1, mu=0.2, T=1.585e-2, eta=0.1, e=e, CCR_exp=dccr
                )
                assert secure_fraction(inputs) == pytest.approx(
                    secure_fraction_reference(0.2, 1.585e-3, e, 1.16, dccr),
                    abs=1e-12,
                )

    def test_full_attack_gives_zero_key(self):
        inputs = KeyRateInputs(
            K_sift=10_000, mu=0.2, T=1.585e-2, eta=0.1, e=0.0,
            CCR_exp=1.0, CCR_est=5e-5,
        )
        assert secure_key_length(**vars(inputs)) == (0, "secure fraction is not positive")

    def test_domain_violation_gives_zero_key(self):
        inputs = KeyRateInputs(K_sift=1000, mu=0.2, T=1.585e-2, eta=0.1, e=0.2)
        with pytest.raises(ValueError):
            secure_fraction(inputs)
        length, reason = secure_key_length(**vars(inputs))
        assert length == 0 and reason.startswith("secure-key bound undefined: ")

    def test_monotone_in_error_rate(self):
        prev = math.inf
        for e in np.linspace(0.0, 0.16, 30):
            s = secure_fraction(
                KeyRateInputs(K_sift=1, mu=0.2, T=1.585e-2, eta=0.1, e=float(e))
            )
            assert s <= prev + 1e-12
            prev = s

    def test_monotone_in_coincidence_excess(self):
        prev = math.inf
        for dccr in np.linspace(0.0, 1.0, 20):
            s = secure_fraction(
                KeyRateInputs(
                    K_sift=1, mu=0.2, T=1.585e-2, eta=0.1, e=0.03,
                    CCR_exp=float(dccr), CCR_est=0.0,
                )
            )
            assert s <= prev + 1e-12
            prev = s

    def test_linear_in_sifted_length(self):
        base = KeyRateInputs(K_sift=1000, mu=0.2, T=1.585e-2, eta=0.1, e=0.03)
        doubled = KeyRateInputs(K_sift=2000, mu=0.2, T=1.585e-2, eta=0.1, e=0.03)
        (k2, _), (k1, _) = secure_key_length(**vars(doubled)), secure_key_length(**vars(base))
        assert abs(k2 - 2 * k1) <= 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            KeyRateInputs(K_sift=-1, mu=0.2, T=0.5, eta=0.1, e=0.0)
        with pytest.raises(ValueError):
            KeyRateInputs(K_sift=1, mu=0.2, T=0.5, eta=0.1, e=0.6)


class TestAttackFraction:
    def test_no_excess_no_attack(self):
        assert attack_fraction_estimate(5e-5, 5e-5) == 0.0

    def test_full_coincidence_full_attack(self):
        assert attack_fraction_estimate(1.0, 5e-5) == 1.0

    def test_half(self):
        v = attack_fraction_estimate(0.5, 5e-5)
        assert v == pytest.approx((0.5 - 5e-5) / (1 - 5e-5), rel=1e-12)
        assert v == pytest.approx(0.49998, abs=1e-5)

    def test_negative_excess_clamped(self):
        assert attack_fraction_estimate(0.0, 5e-5) == 0.0

    def test_degenerate_estimate_rejected(self):
        with pytest.raises(ValueError):
            attack_fraction_estimate(0.5, 1.0)


class TestDetectorStatistics:
    def _result_with_singles(self, n1, n2, n3, n4):
        res = sift(log_of(), record([0] * 4))
        res.singles_counts = {1: n1, 2: n2, 3: n3, 4: n4}
        return res

    def test_balanced(self):
        res = self._result_with_singles(1000, 1000, 900, 900)
        checks = detector_statistics_check(res, 3.0)
        assert not checks["A"].flagged and not checks["B"].flagged

    def test_total_blackout_flagged(self):
        res = self._result_with_singles(2000, 0, 100, 100)
        checks = detector_statistics_check(res, 44.0)
        assert checks["A"].flagged
        assert checks["A"].z_score == pytest.approx(math.sqrt(2000), rel=1e-12)

    def test_mild_imbalance_tolerated(self):
        res = self._result_with_singles(1030, 970, 0, 100)
        checks = detector_statistics_check(res, 3.0)
        assert not checks["A"].flagged
        assert checks["A"].z_score == pytest.approx(1.34, abs=0.01)

    def test_needs_clicks(self):
        res = self._result_with_singles(10, 10, 10, 10)
        with pytest.raises(ValueError):
            detector_statistics_check(res, 3.0)


def test_click_log_csv_roundtrip(tmp_path):
    log = log_of((3, 1), (3, 2), (7, 4), (100, 1))
    path = tmp_path / "clicks.csv"
    log.write_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "slot,detector_id"
    back = read_clicks_csv(path)
    assert np.array_equal(back.slots, log.slots)
    assert np.array_equal(back.detector_ids, log.detector_ids)


def test_click_log_csv_is_the_same_in_any_block_size(tmp_path, monkeypatch):
    log = log_of((3, 1), (3, 2), (7, 4), (100, 1), (101, 3))
    texts = set()
    for rows in (1, 2, 5, 1 << 16):
        monkeypatch.setattr(protocol, "_CSV_ROWS", rows)
        log.write_csv(tmp_path / "clicks.csv")
        texts.add((tmp_path / "clicks.csv").read_text())
    assert texts == {"slot,detector_id\n3,1\n3,2\n7,4\n100,1\n101,3\n"}


@pytest.mark.parametrize("slots", [
    [],
    [0],
    [0, 9, 10, 99, 100, 101],
    [2**62 - 1],
    [5, 5, 5, 5, 2**62 - 2],
    list(range(0, 10 * (2**16 + 3), 10)),
], ids=["empty", "slot-0", "digit-boundaries", "near-2^62", "all-ids", "over-2^16-rows"])
def test_click_log_csv_matches_printf_formatting(tmp_path, slots):
    """`write_csv` builds its digits in numpy; its bytes equal `%d,%d`
    rows, including where a block's rows differ in width."""
    dets = (np.arange(len(slots)) % 4 + 1).astype(np.int8)
    log = ClickLog(np.array(slots, dtype=np.int64), dets)
    log.write_csv(tmp_path / "clicks.csv")
    rows = "".join("%d,%d\n" % (s, d) for s, d in zip(slots, dets.tolist()))
    assert (tmp_path / "clicks.csv").read_bytes() == ("slot,detector_id\n" + rows).encode()


def test_sift_results_of_disjoint_ranges_join_to_the_whole():
    """Sifting a log in pieces cut between slots and joining the results
    gives the sift of the whole log, counts and kept bits alike."""
    rng = np.random.default_rng(5)
    parities = rng.integers(0, 2, 400)
    clicks = {(int(s), int(d)) for s, d in zip(rng.integers(0, 400, 300), rng.integers(1, 5, 300))}
    log = log_of(*clicks)
    whole = sift(log, record(parities))
    parts = []
    for lo, hi in ((0, 1), (1, 97), (97, 98), (98, 400)):
        part = (log.slots >= lo) & (log.slots < hi)
        parts.append(sift(ClickLog(log.slots[part], log.detector_ids[part]), record(parities)))
    joined = SiftResult()
    for part in parts:
        joined.add(part)
    assert whole.coincidence_counts["A"] and whole.discarded_multiport and whole.slot0_clicks
    for name, value in vars(whole).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(joined, name), value)
            assert getattr(joined, name).dtype == value.dtype
        else:
            assert getattr(joined, name) == value


def test_click_log_ordering():
    log = log_of((7, 4), (3, 2), (3, 1), (100, 1))
    assert list(log.slots) == [3, 3, 7, 100]
    assert list(log.detector_ids) == [1, 2, 4, 1]
