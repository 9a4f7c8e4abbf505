"""Output checks for one scenario, written apart from the package.

Nothing here imports `qkdsim`.  Each check either recomputes a figure from
the scenario file and the run's own outputs (the re-sift of `clicks.csv`)
or tests a property the model must have within counting error (the
renewal count rate, the closed-form QBER, the attack statistics).  No
check compares against a stored copy of earlier output, so a change of
the random-number scheme that keeps the statistics passes.

Every check takes (cfg, metrics, clicks): the scenario file as a dict,
`metrics.json` as a dict, and the parsed `clicks.csv` as an (n, 2) int64
array of (slot, detector_id) rows, or None when the run wrote none.  It
returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Statistical checks allow this many standard deviations.  At 6 sigma a
# correct run fails about once in 5e8 checks.
Z_MAX = 6.0
# Exact figures are compared to this relative precision, which allows only
# floating-point rounding.
REL_EXACT = 1e-12


def load_metrics(text: str) -> dict:
    """Parse metrics.json as strict JSON: NaN and Infinity are rejected."""

    def reject(token):
        raise ValueError(f"metrics.json holds {token}, which is not JSON")

    return json.loads(text, parse_constant=reject)


def load_clicks(text: str, n_slots: int) -> np.ndarray:
    """Parse clicks.csv into (slot, detector_id) rows and check its form."""
    header, _, body = text.partition("\n")
    if header != "slot,detector_id":
        raise ValueError(f"clicks.csv header is {header!r}")
    rows = np.array(body.replace(",", " ").split(), dtype=np.int64).reshape(-1, 2)
    slots, dets = rows[:, 0], rows[:, 1]
    if len(rows) and not (dets.min() >= 1 and dets.max() <= 4):
        raise ValueError("clicks.csv holds a detector id outside 1..4")
    if len(rows) and not (slots.min() >= 0 and slots.max() < n_slots):
        raise ValueError("clicks.csv holds a slot outside the run")
    key = slots * 8 + dets
    if np.any(np.diff(key) <= 0):
        raise ValueError("clicks.csv rows are not strictly ordered by (slot, detector)")
    return rows


def _link(cfg: dict, det: dict) -> tuple[float, float]:
    """(p, d): a lit detector's photon click probability and its dark rate.

    With a random source the interferometer sends the whole pulse mean
    mu*T to one port, chosen afresh each slot, and the coupler halves it.
    """
    T = 10.0 ** (-cfg["channel_loss_dB"] / 10.0)
    p = 1.0 - math.exp(-(cfg["mu"] * T / 2.0) * det["efficiency"])
    return p, det["dark_prob_per_slot"]


def check_count_rates(cfg, metrics, clicks) -> list[str]:
    """Each detector's count against the renewal prediction.

    A click is followed by D-1 dead slots, then each slot clicks with
    probability q, the escape probability averaged over a lit and a dark
    port.  The mean time between clicks is (D-1) + 1/q slots, and the
    count over n slots has variance n * ((1-q)/q^2) / mu^3.
    """
    n = cfg["n_slots"]
    duration = n / cfg["clock_hz"]
    failures = []
    for i, (det, rate) in enumerate(zip(cfg["detectors"], metrics["count_rates_cps"])):
        p, d = _link(cfg, det)
        q_lit = 1.0 - (1.0 - d) * (1.0 - p)
        q = 0.5 * (q_lit + d)
        mean_gap = det["dead_time_slots"] - 1 + 1.0 / q
        expected = n / mean_gap
        sd = math.sqrt(n * (1.0 - q) / q**2 / mean_gap**3)
        observed = rate * duration
        z = (observed - expected) / sd
        if abs(z) > Z_MAX:
            failures.append(
                f"detector {i + 1}: {observed:.0f} clicks, renewal predicts "
                f"{expected:.1f} +/- {sd:.1f} (z={z:+.1f})"
            )
    return failures


def qber_closed_form(cfg) -> float:
    """(d + flip*p) / (p + 2d): wrong-port clicks are the two dark-port
    detectors' darks plus the lit pair's clicks on flipped slots.  When
    p >> d this is the phase flip probability itself."""
    dets = cfg["detectors"]
    p = sum(_link(cfg, det)[0] for det in dets) / len(dets)
    d = sum(det["dark_prob_per_slot"] for det in dets) / len(dets)
    return (d + cfg["phase_flip_prob"] * p) / (p + 2.0 * d)


def check_qber_closed_form(cfg, metrics, clicks) -> list[str]:
    """QBER against `qber_closed_form`, within binomial error."""
    expected = qber_closed_form(cfg)
    k = metrics["K_sift"]
    if not k:
        return ["empty sifted key"]
    sd = math.sqrt(expected * (1.0 - expected) / k)
    z = (metrics["qber"] - expected) / sd
    if abs(z) > Z_MAX:
        return [f"qber {metrics['qber']:.6f}, closed form {expected:.6f} +/- {sd:.6f} (z={z:+.1f})"]
    return []


def resift(clicks: np.ndarray, n_slots: int, clock_hz: float) -> dict:
    """Sift a click log: a slot with one click is a key bit; a slot whose
    clicks all sit on one pair is that pair's coincidence; slots with
    clicks on both pairs, and slot 0, carry nothing."""
    slots, dets = clicks[:, 0], clicks[:, 1]
    starts = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]]) if len(slots) else np.empty(0, int)
    sizes = np.diff(np.r_[starts, len(slots)])
    on_b = dets >= 3
    n_b = np.add.reduceat(on_b, starts) if len(slots) else np.empty(0, int)
    valid = slots[starts] != 0
    single = valid & (sizes == 1)
    multi = valid & (sizes > 1)
    first_det = dets[starts]
    singles = [int(np.count_nonzero(single & (first_det == d))) for d in (1, 2, 3, 4)]
    duration = n_slots / clock_hz
    return {
        "singles": singles,
        "coincidences": [
            int(np.count_nonzero(multi & (n_b == 0))),
            int(np.count_nonzero(multi & (n_b == sizes))),
        ],
        "K_sift": sum(singles),
        "count_rates_cps": [
            int(np.count_nonzero(dets == d)) / duration for d in (1, 2, 3, 4)
        ],
    }


def check_resift(cfg, metrics, clicks) -> list[str]:
    """The click log re-sifted here must reproduce metrics.json exactly.

    With the static 0-pi source every key bit is 1, so a click on pair A
    is an error and the re-sift also reproduces the QBER.
    """
    mine = resift(clicks, cfg["n_slots"], cfg["clock_hz"])
    failures = []
    for key in ("singles", "coincidences", "K_sift"):
        if mine[key] != metrics[key]:
            failures.append(f"{key}: clicks.csv gives {mine[key]}, metrics.json {metrics[key]}")
    for i, (a, b) in enumerate(zip(mine["count_rates_cps"], metrics["count_rates_cps"])):
        if not math.isclose(a, b, rel_tol=REL_EXACT):
            failures.append(f"count rate of detector {i + 1}: clicks.csv gives {a}, metrics.json {b}")
    if cfg["alice_mode"] == "static_0pi" and mine["K_sift"]:
        q = (mine["singles"][0] + mine["singles"][1]) / mine["K_sift"]
        if not math.isclose(q, metrics["qber"], rel_tol=REL_EXACT):
            failures.append(f"qber: clicks.csv gives {q}, metrics.json {metrics['qber']}")
    return failures


def check_attack(cfg, metrics, clicks) -> list[str]:
    """A partial emulation attack must be caught and its size measured.

    Each attacked complete cycle ends in one forced pair-B coincidence, and
    a cycle is attacked with probability f, so pair-B coincidences are
    binomial over the complete cycles.
    """
    attack = cfg["attack"]
    f = attack["attacked_fraction"]
    failures = []
    if metrics["abort"] is not True:
        failures.append("abort is not raised under attack")
    if abs(metrics["attack_fraction_est"] - f) > 0.05:
        failures.append(f"attack_fraction_est {metrics['attack_fraction_est']:.4f} is not {f} +/- 0.05")
    cycles = cfg["n_slots"] // (attack["blinding_slots"] + attack["recovery_window_slots"])
    expected = cycles * f
    sd = math.sqrt(cycles * f * (1.0 - f))
    z = (metrics["coincidences"][1] - expected) / sd
    if abs(z) > Z_MAX:
        failures.append(
            f"pair-B coincidences {metrics['coincidences'][1]}, expected "
            f"{expected:.0f} +/- {sd:.1f} (z={z:+.1f})"
        )
    return failures


CHECKS = {
    "honest-link": (check_count_rates, check_qber_closed_form),
    "attack-partial": (check_resift, check_attack),
    "dense-clicks": (check_count_rates, check_qber_closed_form, check_resift),
}


def check_run(workload: str, cfg: dict, out_dir) -> list[str]:
    """Run every check of `workload` on the outputs in `out_dir`."""
    try:
        metrics = load_metrics((out_dir / "metrics.json").read_text(encoding="utf-8"))
        if not (out_dir / "report.txt").is_file():
            return ["report.txt was not written"]
        clicks = None
        if (out_dir / "clicks.csv").exists():
            clicks = load_clicks((out_dir / "clicks.csv").read_text(encoding="utf-8"), cfg["n_slots"])
        failures = []
        for check in CHECKS[workload]:
            failures += check(cfg, metrics, clicks)
        return failures
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
