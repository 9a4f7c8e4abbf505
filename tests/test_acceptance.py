"""Scenario-level acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with
`pytest tests/test_acceptance.py -v -s`).  The honest-operation statistics
run a few times 1e8 slots, so the whole module takes a few minutes.
"""

import dataclasses
import math

import numpy as np
import pytest

from qkdsim.cli import PRESETS, config_from_dict
from qkdsim.detector import DetectorParams, count_rate_sweep
from qkdsim.engine import config_with, run_scenario, run_sweep
from qkdsim.optics import mzi_ports
from qkdsim.protocol import KeyRateInputs, secure_fraction, secure_key_length
from qkdsim.rng import SlotRng, child_seed

from oracles import (
    SECURE_FRACTION_E0,
    SECURE_FRACTION_E032,
    Detector,
    mzi_ports_by_amplitude,
    photons_to_dBm,
    secure_fraction_reference,
)

SEED = 20260808


def report(n: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {description}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {n}: {description} {detail}"


def preset_config(name: str, **overrides):
    cfg = config_from_dict(PRESETS[name])
    return dataclasses.replace(cfg, seed=SEED, **overrides)


def test_criterion_1_full_attack_emulation():
    cfg = preset_config("full-attack", n_slots=10_000_000)
    log, m = run_scenario(cfg)

    qber_ok = m.K_sift == 0 and m.qber is None
    ccr_ok = m.ccr_pair_B is not None and m.ccr_pair_B >= 0.99

    # Steady state: drop the onset transient (at most 4 clicks, all in the
    # first cycle's sub-threshold leading slot).
    onset = log.slots == 0
    steady_duration = (cfg.n_slots - 1) / cfg.clock_hz
    rates = []
    for det in (1, 2, 3, 4):
        n_clicks = int(np.count_nonzero((log.detector_ids == det) & ~onset))
        rates.append(n_clicks / steady_duration)
    targets = (0.0, 0.0, 1.0e5, 1.0e5)
    rates_ok = all(abs(r - t) <= 0.01 * 1.0e5 for r, t in zip(rates, targets))
    transient_ok = int(np.count_nonzero(onset)) <= 4

    ok = qber_ok and ccr_ok and rates_ok and transient_ok and m.abort
    report(
        1,
        "full-attack emulation: no sifted key (QBER null), pair CCR >= 0.99, rates (0,0,1e5,1e5), abort",
        ok,
        f"qber={m.qber} ccr_B={m.ccr_pair_B} rates={[round(r, 1) for r in rates]} abort={m.abort}",
    )


def test_criterion_2_normal_operation():
    cfg = preset_config("normal", n_slots=100_000_000)
    log, m = run_scenario(cfg)

    qber_ok = abs(m.qber - 0.032) <= 0.004
    est_ok = m.ccr_est == pytest.approx(5.0e-5, rel=1e-6)

    # Stock-rate check: each pair's observed coincidences against the
    # estimate's prediction, within 3 sigma of Poisson counting error
    # (few events by construction at these rates).
    pair_ok = True
    pair_detail = []
    for pair, (da, db) in (("A", (0, 1)), ("B", (2, 3))):
        n_coinc = m.coincidences[0 if pair == "A" else 1]
        pair_clicks = m.singles[da] + m.singles[db] + 2 * n_coinc
        predicted = m.ccr_est * pair_clicks / 2.0
        tol = 3.0 * math.sqrt(max(n_coinc, 1))
        pair_ok &= abs(n_coinc - predicted) <= tol
        pair_detail.append(f"{pair}: obs={n_coinc} pred={predicted:.2f}")

    # Binding numerical check: inflate the dark rate to 1e-3 so coincidences
    # are plentiful, and require the measured rate to match the estimate
    # within 10% relative (pairs pooled for statistics).
    cfg2 = config_with(
        dataclasses.replace(cfg, n_slots=300_000_000),
        "detectors.*.dark_prob_per_slot",
        1e-3,
    )
    _, m2 = run_scenario(cfg2)
    n_coinc2 = m2.coincidences[0] + m2.coincidences[1]
    pair_clicks2 = sum(m2.singles) + 2 * n_coinc2
    measured2 = 2.0 * n_coinc2 / pair_clicks2
    rel_err = measured2 / m2.ccr_est - 1.0
    inflated_ok = abs(rel_err) <= 0.10

    ok = qber_ok and est_ok and pair_ok and inflated_ok
    report(
        2,
        "normal operation: QBER 3.2% +/- 0.4%, coincidences consistent with the "
        "5.0e-5 estimate, inflated-dark run within 10%",
        ok,
        f"qber={m.qber:.5f} {'; '.join(pair_detail)}; inflated rel_err={rel_err:+.3f}",
    )


def test_criterion_3_partial_attack_detection():
    base = preset_config("partial-attack", n_slots=100_000_000)  # 1e4 cycles/point
    fractions = [0.0, 0.25, 0.5, 1.0]
    results = run_sweep(base, "attack.attacked_fraction", fractions)
    errors = [m.attack_fraction_est - q for m, q in zip(results, fractions)]
    ok = all(abs(e) <= 0.05 for e in errors)
    report(
        3,
        "attacked-fraction estimate within +/-0.05 at 1e4 cycles per point",
        ok,
        "errors=" + ", ".join(f"{q}:{e:+.4f}" for q, e in zip(fractions, errors)),
    )


def test_criterion_4_blinding_threshold_curve():
    params = preset_config("normal").detectors[0]
    clock = 1e9
    rise_powers = [0.05, 0.2, 1.0, 5.0, 20.0]
    saturated_powers = [200.0, 2000.0, 2.0e4]
    blinding_powers = [2.5e4, 5.0e4, 1.0e5]
    powers = rise_powers + saturated_powers + blinding_powers
    slots_per_point = 200_000
    res = count_rate_sweep(params, powers, slots_per_point, SlotRng(SEED), clock_hz=clock)
    rates = [r for _, r in res]

    n_rise = len(rise_powers)
    rise_ok = all(rates[i] < rates[i + 1] for i in range(n_rise - 1))
    saturation = clock / params.dead_time_slots
    sat_rates = rates[n_rise : n_rise + len(saturated_powers)]
    sat_ok = all(abs(r - saturation) <= 0.10 * saturation for r in sat_rates)
    collapse_rates = rates[n_rise + len(saturated_powers) :]
    collapse_ok = all(r <= clock * 2 / slots_per_point for r in collapse_rates)

    dbm = photons_to_dBm(params.blind_threshold_photons, clock, 1551.0)
    dbm_ok = abs(dbm - (-25.0)) <= 0.2

    ok = rise_ok and sat_ok and collapse_ok and dbm_ok
    report(
        4,
        "count-rate curve rises, saturates near 1/dead_time, collapses at the "
        "2.5e4-photon threshold (-25 dBm within 0.2 dB)",
        ok,
        f"rise={[round(r) for r in rates[:n_rise]]} sat={[round(r) for r in sat_rates]} "
        f"collapsed={[round(r) for r in collapse_rates]} threshold={dbm:.2f} dBm",
    )


def test_criterion_5_key_length_arithmetic():
    at_zero = secure_fraction(
        KeyRateInputs(K_sift=1, mu=0.2, T=1.585e-2, eta=0.1, e=0.0, f_e=1.16)
    )
    zero_ok = (
        abs(at_zero - 0.6006) <= 1e-4
        and at_zero == pytest.approx(SECURE_FRACTION_E0, abs=1e-12)
        and at_zero == pytest.approx(
            secure_fraction_reference(0.2, 1.585e-3, 0.0, 1.16, 0.0), abs=1e-12
        )
    )

    at_op = secure_fraction(
        KeyRateInputs(
            K_sift=1, mu=0.2, T=1.585e-2, eta=0.1, e=0.032, f_e=1.16,
            CCR_exp=1.4e-4, CCR_est=5.0e-5,
        )
    )
    op_ok = (
        abs(at_op - 0.107) <= 0.002
        and at_op == pytest.approx(SECURE_FRACTION_E032, abs=1e-12)
        and at_op == pytest.approx(
            secure_fraction_reference(0.2, 1.585e-3, 0.032, 1.16, 9e-5), abs=1e-12
        )
    )

    full_attack_key, _ = secure_key_length(
        K_sift=10_000, mu=0.2, T=1.585e-2, eta=0.1, e=0.0,
        CCR_exp=1.0, CCR_est=5.0e-5,
    )
    attack_ok = full_attack_key == 0

    ok = zero_ok and op_ok and attack_ok
    report(
        5,
        "secure fraction 0.6006 at e=0 and 0.107 at e=0.032; zero key under full attack",
        ok,
        f"s(0)={at_zero:.6f} s(0.032)={at_op:.6f} K_full_attack={full_attack_key}",
    )


def _mzi_oracle_check(n_cases: int) -> int:
    """Run the engine's interferometer on arbitrary phases: each slot's
    cos_dphi is cos(phi_k - phi_{k-1}) and the first slot follows vacuum."""
    rng = np.random.default_rng(SEED)
    failures = 0
    for _ in range(n_cases):
        n = int(rng.integers(1, 17))
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
        alpha = float(rng.uniform(0.1, 300.0))
        ref1, ref2 = mzi_ports_by_amplitude(list(phases), alpha=alpha)
        cos_dphi = np.cos(phases - np.concatenate(([0.0], phases[:-1])))
        means = np.full(n, alpha * alpha)
        port1, port2 = mzi_ports(means, cos_dphi, np.concatenate(([0.0], means[:-1])))
        scale = max(1.0, alpha * alpha)
        for k in range(n):
            if (
                abs(port1[k] - ref1[k]) > 1e-10 * scale
                or abs(port2[k] - ref2[k]) > 1e-10 * scale
                or abs((port1[k] + port2[k]) - (ref1[k] + ref2[k])) > 1e-10 * scale
            ):
                failures += 1
    return failures


def _detector_invariant_check(n_sequences: int) -> int:
    """Drive random sequences and verify observable state-machine laws."""
    rng = np.random.default_rng(SEED + 1)
    levels = np.array([0.0, 0.0, 0.5, 30.0, 2.6e4, 7e4])
    violations = 0
    for _ in range(n_sequences):
        n = int(rng.integers(5, 60))
        seq = levels[rng.integers(0, len(levels), n)]
        dead = int(rng.integers(0, 10))
        recovery = int(rng.integers(1, 7))
        par = DetectorParams(
            efficiency=0.5,
            dark_prob_per_slot=0.05,
            dead_time_slots=dead,
            blind_threshold_photons=2.5e4,
            recovery_slots=recovery,
        )
        det = Detector(1, par, SlotRng(int(rng.integers(0, 2**62))))
        last_bright = None
        last_dim_click = None
        bright_run_clicked = False
        in_bright_run = False
        for slot, inc in enumerate(seq):
            click = det.step(float(inc), slot) is not None
            bright = inc >= par.blind_threshold_photons
            if bright:
                if in_bright_run and click:
                    violations += 1  # rising edge must be unique per run
                if click and last_bright is not None and slot - last_bright < recovery + 1:
                    violations += 1  # clicked while it had to be blinded
                in_bright_run = True
                bright_run_clicked = bright_run_clicked or click
                last_bright = slot
            else:
                in_bright_run = False
                if click:
                    if last_bright is not None and slot - last_bright < recovery:
                        violations += 1  # blinded silence
                    if (
                        last_dim_click is not None
                        and slot < last_dim_click + dead
                        and (last_bright is None or last_bright < last_dim_click)
                    ):
                        violations += 1  # dead silence
                    last_dim_click = slot
    return violations


def test_criterion_6_property_suites():
    mzi_failures = _mzi_oracle_check(10_000)

    det_violations = _detector_invariant_check(100_000)

    # Byte-identical reproducibility of a full run, twice, and of each sweep
    # run against the same config run alone at its derived seed.
    cfg = preset_config("partial-attack", n_slots=1_000_000)
    log_a, m_a = run_scenario(cfg)
    log_b, m_b = run_scenario(cfg)
    rerun_ok = (
        m_a.to_json() == m_b.to_json()
        and np.array_equal(log_a.slots, log_b.slots)
        and np.array_equal(log_a.detector_ids, log_b.detector_ids)
    )
    sweep_cfg = preset_config("partial-attack", n_slots=200_000)
    axis, fractions = "attack.attacked_fraction", [0.25, 0.75]
    sweep = run_sweep(sweep_cfg, axis, fractions)
    alone = [
        run_scenario(dataclasses.replace(
            config_with(sweep_cfg, axis, q), seed=child_seed(sweep_cfg.seed, k)
        ))[1]
        for k, q in enumerate(fractions)
    ]
    sweep_ok = [m.to_json() for m in sweep] == [m.to_json() for m in alone]

    ok = mzi_failures == 0 and det_violations == 0 and rerun_ok and sweep_ok
    report(
        6,
        "property suites: amplitude-oracle equivalence (1e4 cases), detector "
        "state-machine invariants (1e5 sequences), byte-identical reruns",
        ok,
        f"mzi_failures={mzi_failures} detector_violations={det_violations} "
        f"rerun={rerun_ok} sweep_seeds={sweep_ok}",
    )
