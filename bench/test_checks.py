"""The output checks accept genuine runs and reject corrupted ones.

    python3 -m pytest bench/test_checks.py

Each workload is run once through `qkdsim run` at a reduced slot count and
a fixed seed; each test then corrupts one output figure and requires the
check that watches it to fail.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math

import numpy as np
import pytest

import checks
import run
from workloads import WORKLOADS

SLOTS = {"honest-link": 2_000_000, "attack-partial": 20_000_000, "dense-clicks": 1_000_000}
SEED = 7


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(cfg, metrics, clicks, out_dir) of one genuine run per workload."""
    result = {}
    for name, n_slots in SLOTS.items():
        workload = dataclasses.replace(WORKLOADS[name], n_slots=n_slots)
        cfg = workload.scenario(SEED)
        scratch = tmp_path_factory.mktemp(name)
        record = run.run_scenario(workload, cfg, scratch, trace=False, timeout=120.0)
        assert record["failures"] == [], record["failures"]
        out = scratch / "out"
        metrics = checks.load_metrics((out / "metrics.json").read_text())
        clicks = None
        if workload.emit_clicks:
            clicks = checks.load_clicks((out / "clicks.csv").read_text(), n_slots)
        result[name] = (cfg, metrics, clicks, out)
    return result


def corrupted(outputs, name, **changes):
    cfg, metrics, clicks, _ = outputs[name]
    metrics = copy.deepcopy(metrics)
    metrics.update(changes)
    return cfg, metrics, None if clicks is None else clicks.copy()


@pytest.mark.parametrize("name", sorted(SLOTS))
def test_genuine_run_passes_every_check(outputs, name):
    cfg, metrics, clicks, _ = outputs[name]
    for check in checks.CHECKS[name]:
        assert check(cfg, metrics, clicks) == [], check.__name__


@pytest.mark.parametrize("name", ["attack-partial", "dense-clicks"])
def test_resift_rejects_one_changed_detector_id(outputs, name):
    cfg, metrics, clicks = corrupted(outputs, name)
    slots = clicks[:, 0]
    lone = np.flatnonzero((np.diff(slots, prepend=-1) != 0) & (np.diff(slots, append=-1) != 0) & (slots > 0))
    row = lone[len(lone) // 2]
    clicks[row, 1] = 1 if clicks[row, 1] != 1 else 3
    assert checks.check_resift(cfg, metrics, clicks)


def test_changed_detector_id_in_the_file_is_rejected(outputs, tmp_path):
    cfg, _, _, out = outputs["dense-clicks"]
    lines = (out / "clicks.csv").read_text().splitlines()
    slot, det = lines[1000].split(",")
    lines[1000] = f"{slot},{1 if det != '1' else 3}"
    for f in ("metrics.json", "report.txt"):
        (tmp_path / f).write_text((out / f).read_text())
    (tmp_path / "clicks.csv").write_text("\n".join(lines) + "\n")
    assert checks.check_run("dense-clicks", cfg, tmp_path)


@pytest.mark.parametrize("name", ["honest-link", "dense-clicks"])
def test_qber_moved_by_eight_sigma_is_rejected(outputs, name):
    cfg, metrics, _, _ = outputs[name]
    e, k = checks.qber_closed_form(cfg), metrics["K_sift"]
    for sign in (1, -1):
        moved = corrupted(outputs, name, qber=e + sign * 8.0 * math.sqrt(e * (1 - e) / k))
        assert checks.check_qber_closed_form(*moved)


def test_attack_qber_is_reproduced_exactly(outputs):
    cfg, metrics, _, _ = outputs["attack-partial"]
    moved = corrupted(outputs, "attack-partial", qber=metrics["qber"] + 1.0 / metrics["K_sift"])
    assert checks.check_resift(*moved)


@pytest.mark.parametrize("name,detector,scale", [
    ("dense-clicks", 0, 1.05), ("dense-clicks", 3, 0.95), ("honest-link", 2, 2.0),
])
def test_scaled_count_rate_is_rejected(outputs, name, detector, scale):
    _, metrics, _, _ = outputs[name]
    rates = list(metrics["count_rates_cps"])
    rates[detector] *= scale
    moved = corrupted(outputs, name, count_rates_cps=rates)
    assert checks.check_count_rates(*moved)
    if moved[2] is not None:
        assert checks.check_resift(*moved)


def test_resift_rejects_changed_counts(outputs):
    cfg, metrics, _, _ = outputs["dense-clicks"]
    singles = list(metrics["singles"])
    singles[1] += 1
    assert checks.check_resift(*corrupted(outputs, "dense-clicks", singles=singles))
    assert checks.check_resift(*corrupted(outputs, "dense-clicks", K_sift=metrics["K_sift"] - 1))
    coinc = [metrics["coincidences"][0], metrics["coincidences"][1] + 1]
    assert checks.check_resift(*corrupted(outputs, "dense-clicks", coincidences=coinc))


def test_attack_check_rejects_each_wrong_figure(outputs):
    cfg, metrics, _, _ = outputs["attack-partial"]
    assert checks.check_attack(*corrupted(outputs, "attack-partial", abort=False))
    for af in (0.56, 0.44):
        assert checks.check_attack(*corrupted(outputs, "attack-partial", attack_fraction_est=af))
    cycles = cfg["n_slots"] // 10_000
    shift = math.ceil(7.0 * math.sqrt(cycles / 4))
    coinc = [metrics["coincidences"][0], cycles // 2 + shift]
    assert checks.check_attack(*corrupted(outputs, "attack-partial", coincidences=coinc))


def test_nan_in_metrics_is_rejected():
    with pytest.raises(ValueError):
        checks.load_metrics('{"ccr_est": NaN}')


@pytest.mark.parametrize("body", [
    "5,1\n5,1\n",      # the same click twice
    "7,2\n5,1\n",      # out of order
    "5,5\n",           # no such detector
    "5,1,0\n",         # a third column
    "100,1\n",         # past the end of the run
])
def test_malformed_click_log_is_rejected(body):
    with pytest.raises(ValueError):
        checks.load_clicks("slot,detector_id\n" + body, n_slots=100)


def test_malformed_click_log_fails_the_run(outputs, tmp_path):
    cfg, _, _, out = outputs["attack-partial"]
    for f in ("metrics.json", "report.txt"):
        (tmp_path / f).write_text((out / f).read_text())
    (tmp_path / "clicks.csv").write_text("slot,detector\n")
    assert checks.check_run("attack-partial", cfg, tmp_path)
    (tmp_path / "metrics.json").write_text(json.dumps({"qber": float("nan")}))
    assert checks.check_run("attack-partial", cfg, tmp_path)
