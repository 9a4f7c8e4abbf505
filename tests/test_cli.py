import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkdsim.cli import (
    PRESETS, build_parser, config_from_dict, config_to_dict, main, resolve_config,
)
from qkdsim.engine import ConfigError, ScenarioConfig


def run_cli(*argv):
    return main(list(argv))


def resolved(*argv):
    return resolve_config(build_parser().parse_args(["explain", *argv]))


# SHA-256 of (metrics.json, clicks.csv) for each preset at seed 7 and 2e6
# slots.  They pin the random-number contract: a change that alters them
# changes the output of every seed, and must say so.
GOLDEN_DIGESTS = {
    "normal": (
        "7b23ee4bcc68aa94860ad4fe0a20657137d847550d1ba8df6be89664e6727dad",
        "db4995ee03bc363ae3aa6c20f5475c1120cf1964f999d2c427e9159e434b6a4a",
    ),
    "full-attack": (
        "6fc4dac65cb5146f6b67957f0930d3a611d4b840f9527eb39f4152057d2d37ae",
        "0a5a3dcf55a18928c5acc1c9e67d43ef326941024d434f95d2e9cfe9bcbe77bc",
    ),
    "partial-attack": (
        "2b164e0ed262dab1703b3a766a96c051ca724ab558e9234777a99e17d14d8a4c",
        "8bb2f48ba57003a3ba92d628bb79b86a5d494edbc537ebf77848865fbf19ee3c",
    ),
}


class TestConfigSchema:
    def test_empty_config_is_all_defaults(self):
        cfg = config_from_dict({})
        assert cfg == ScenarioConfig()

    def test_unknown_key_rejected_with_path(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"attack": {"laser_power": 9000}})
        assert "attack.laser_power" in str(err.value)
        with pytest.raises(ConfigError, match="^attack.laser_power: "):
            resolved("--set", 'attack={"laser_power": 9000}')
        # An object value in --set is read exactly as in a scenario file.
        scen = tmp_path / "scenario.json"
        scen.write_text('{"attack": {"enabled": true}}')
        assert resolved("--set", 'attack={"enabled": true}') == resolved("--config", str(scen))

    @pytest.mark.parametrize("item", ["attack.mode=bogus", "alice_mode=qpsk"])
    def test_unknown_enumerated_string_names_its_field(self, tmp_path, capsys, item):
        code = run_cli("run", "--preset", "normal", "--slots", "20000", "--set", item,
                       "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {item.split('=')[0]}: expected one of ")
        assert err.count("\n") == 1

    def test_round_trip(self, tmp_path, capsys):
        cfg = ScenarioConfig()
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg
        # `explain` output is a scenario file that resolves to the same config.
        for preset in sorted(PRESETS):
            assert run_cli("explain", "--preset", preset, "--slots", "12345") == 0
            scen = tmp_path / f"{preset}.json"
            scen.write_text(capsys.readouterr().out)
            assert resolved("--config", str(scen)) == resolved(
                "--preset", preset, "--slots", "12345"
            )

    def test_detectors_must_be_four(self):
        with pytest.raises(ConfigError):
            config_from_dict({"detectors": [{}]})
        with pytest.raises(ConfigError, match="^detectors: "):
            resolved("--set", "detectors=[{},{},{}]")
        four = resolved("--set", "detectors=[{},{},{},{}]")
        assert four == config_from_dict({"detectors": [{}, {}, {}, {}]})


class TestRunCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        code = run_cli(
            "run", "--preset", "full-attack", "--slots", "200000",
            "--out", str(tmp_path), "--emit-clicks",
        )
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) == {
            "qber", "ccr_pair_A", "ccr_pair_B", "ccr_est", "count_rates_cps",
            "singles", "coincidences", "K_sift", "K_sec",
            "attack_fraction_est", "abort", "abort_reason",
        }
        assert metrics["K_sift"] == 0 and metrics["qber"] is None
        assert metrics["ccr_pair_B"] >= 0.99
        assert metrics["abort"] is True
        clicks = (tmp_path / "clicks.csv").read_text().splitlines()
        assert clicks[0] == "slot,detector_id"
        assert len(clicks) > 1
        report = (tmp_path / "report.txt").read_text()
        assert "abort" in report
        out = capsys.readouterr().out
        assert "QBER" in out

    def test_fail_on_abort_exit_code(self, tmp_path):
        code = run_cli(
            "run", "--preset", "full-attack", "--slots", "100000",
            "--out", str(tmp_path), "--fail-on-abort",
        )
        assert code == 2
        code = run_cli(
            "run", "--preset", "full-attack", "--slots", "100000",
            "--out", str(tmp_path),
        )
        assert code == 0

    @pytest.mark.parametrize("out", ["f", "f/sub"], ids=["a-file", "under-a-file"])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, out):
        (tmp_path / "f").touch()
        code = run_cli("run", "--preset", "normal", "--slots", "1000",
                       "--out", str(tmp_path / out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / out}: ")
        assert err.count("\n") == 1

    def test_undecodable_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")  # {} in UTF-16 with a byte-order mark
        code = run_cli("explain", "--config", str(bad))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: cannot read scenario file: ")
        assert err.count("\n") == 1

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"coupler": {"bend_radius": 3}}')
        code = run_cli("run", "--config", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert "coupler.bend_radius" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "mu=NaN",
            "channel_loss_dB=Infinity",
            "clock_hz=-Infinity",
            "attack.blind_photons_per_slot=NaN",
            "coupler.ratio_slope_per_nm=NaN",
            "filter.width_nm=NaN",
            "filter.out_of_band_suppression_dB=Infinity",
            "detectors.*.blind_threshold_photons=NaN",
            "mu=" + "9" * 400,  # an integer beyond the float range
        ],
    )
    def test_non_finite_value_exits_1(self, tmp_path, capsys, override):
        code = run_cli(
            "run", "--preset", "normal", "--slots", "10000",
            "--set", override, "--out", str(tmp_path),
        )
        assert code == 1
        path = override.split("=")[0].replace("*", "0")
        assert capsys.readouterr().err == f"error: {path}: must be finite\n"
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize(
        "override, path",
        [
            ("mu=abc", "mu"),
            ("detectors=5", "detectors"),
            ("detectors.*.dead_time_slots=2.5", "detectors.0.dead_time_slots"),
            ("seed=true", "seed"),
            ("n_slots=1e6", "n_slots"),
            # Scenario files, nested: the walker names the field.
            ('{"filter": {"width_nm": "x"}}', "filter.width_nm"),
            ('{"detectors": [{"efficiency": "x"}, {}, {}, {}]}', "detectors.0.efficiency"),
            # Honest CCR estimate undefined: above 1, or T underflowing to 0.
            ("channel_loss_dB=0 mu=2e5", "mu"),
            ("channel_loss_dB=4000", "channel_loss_dB"),
        ],
    )
    def test_wrongly_typed_value_exits_1(self, tmp_path, capsys, override, path):
        args = ["run", "--preset", "normal", "--out", str(tmp_path)]
        if override.startswith("{"):
            (tmp_path / "scenario.json").write_text(override)
            args += ["--config", str(tmp_path / "scenario.json")]
        else:
            for item in override.split():
                args += ["--set", item]
        code = run_cli(*args)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize(
        "argv, path",
        [
            ("--set attack.enabled=true --set attack.blinding_slots=" + "1" + "0" * 20,
             "attack.blinding_slots"),
            ("--set detectors.*.recovery_slots=" + "1" + "0" * 20, "detectors.0.recovery_slots"),
            ("--set detectors.*.dead_time_slots=" + "1" + "0" * 20, "detectors.0.dead_time_slots"),
            ("--slots " + "1" + "0" * 20, "n_slots"),
            (f"--set detectors.*.dead_time_slots={-(2**62) - 1}", "detectors.0.dead_time_slots"),
        ],
    )
    def test_int_beyond_the_slot_arithmetic_exits_1(self, tmp_path, capsys, argv, path):
        code = run_cli("run", "--preset", "normal", *argv.split(), "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: must be in [-2^62, 2^62)\n"
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "--preset normal --slots 1000",  # a positive fraction floors to 0 bits
            "--slots 10000 --set mu=0 --set detectors.*.dark_prob_per_slot=0",
            "--slots 100000 --set detectors.*.efficiency=0 --set detectors.*.dark_prob_per_slot=0.01",
            "--slots 100000 --set phase_flip_prob=0.1",
            "--preset full-attack --slots 200000",
        ],
    )
    def test_every_abort_says_why(self, tmp_path, argv):
        assert run_cli("run", *argv.split(), "--out", str(tmp_path)) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["abort"] is True and metrics["abort_reason"]

    def test_set_overrides_and_vacuum(self, tmp_path):
        code = run_cli(
            "run", "--out", str(tmp_path), "--slots", "10000",
            "--set", "mu=0",
            "--set", "detectors.*.dark_prob_per_slot=0",
        )
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["K_sift"] == 0
        assert metrics["ccr_pair_A"] is None

    def test_metrics_bytes_reproducible(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "run", "--preset", "partial-attack", "--slots", "300000",
                "--out", str(out), "--seed", "7",
            ) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

    @pytest.mark.parametrize("preset", sorted(GOLDEN_DIGESTS))
    def test_golden_output_digests(self, tmp_path, preset):
        assert run_cli(
            "run", "--preset", preset, "--slots", "2000000", "--seed", "7",
            "--out", str(tmp_path), "--emit-clicks",
        ) in (0, 2)
        digests = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("metrics.json", "clicks.csv")
        )
        assert digests == GOLDEN_DIGESTS[preset]

    def test_config_file_plus_preset(self, tmp_path):
        scen = tmp_path / "scenario.json"
        scen.write_text('{"n_slots": 50000, "seed": 11}')
        code = run_cli(
            "run", "--preset", "normal", "--config", str(scen), "--out", str(tmp_path)
        )
        assert code == 0


class TestSweepPower:
    def test_csv_shape_and_collapse(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = run_cli(
            "sweep-power", "--out-csv", str(out),
            "--min-dbm", "-80", "--max-dbm", "-20", "--points", "13",
            "--slots-per-point", "20000",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "power_dBm,detector_id,count_rate_cps"
        assert len(lines) == 1 + 13 * 4
        rows = [line.split(",") for line in lines[1:]]
        data = [(float(p), int(d), float(r)) for p, d, r in rows]
        # at and above the blinding threshold the rate collapses
        for p, _, r in data:
            if p >= -24.9:
                assert r <= 1e9 * 2 / 20000

    def test_lowest_power_darks_off_is_zero(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = run_cli(
            "sweep-power", "--out-csv", str(out),
            "--min-dbm", "-120", "--max-dbm", "-110", "--points", "3",
            "--slots-per-point", "10000",
            "--set", "detectors.*.dark_prob_per_slot=0",
            "--set", "detectors.*.efficiency=0.0",
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)

    def test_bad_range_rejected(self, tmp_path):
        code = run_cli(
            "sweep-power", "--out-csv", str(tmp_path / "x.csv"),
            "--min-dbm", "-20", "--max-dbm", "-30",
        )
        assert code == 1

    @pytest.mark.parametrize("args", [
        ("--slots-per-point", "100"),
        ("--min-dbm", "0", "--max-dbm", "1e400"),
        ("--min-dbm=-1e308", "--max-dbm", "1e308"),
        ("--min-dbm", "0", "--max-dbm", "5000"),
        ("--slots-per-point", "10000001"),
        ("--slots-per-point", str(1 << 62)),
        ("--slots-per-point", str(1 << 63)),
        ("--points", "10001"),
    ], ids=["few-slots", "inf-max", "inf-step", "photons-overflow", "many-slots",
            "slots-2^62", "slots-2^63", "many-points"])
    def test_bad_arguments_exit_1_without_csv(self, tmp_path, capsys, monkeypatch, args):
        def simulated(*args, **kwargs):
            raise AssertionError("a bad argument started a simulation")

        monkeypatch.setattr("qkdsim.cli.count_rate_sweep", simulated)
        out = tmp_path / "x.csv"
        assert run_cli("sweep-power", "--preset", "normal", "--points", "3",
                       "--out-csv", str(out), *args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --") and err.count("\n") == 1
        assert not out.exists()


class TestExplain:
    def test_prints_estimate_and_round_trips(self, capsys):
        assert run_cli("explain") == 0
        captured = capsys.readouterr()
        resolved = json.loads(captured.out)
        assert config_from_dict(resolved) == ScenarioConfig()
        assert "ccr_est = 5e-05" in captured.err

    def test_secure_fraction_at_zero_error(self, capsys):
        assert run_cli("explain", "--qber", "0") == 0
        err = capsys.readouterr().err
        assert "secure_fraction at qber=0.0 = 0.60038" in err

    def test_preset_changes_resolution(self, capsys):
        assert run_cli("explain", "--preset", "full-attack") == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["attack"]["enabled"] is True
        assert resolved["alice_mode"] == "static_0pi"


def test_presets_cover_the_three_scenarios():
    assert set(PRESETS) == {"normal", "full-attack", "partial-attack"}


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# Runs in a fresh interpreter: earlier tests of this process may have
# imported anything.  The first `explain` builds the argument parser, whose
# gettext imports `locale`; what is imported after it is the runs' own.
_IMPORTS_OF_A_RUN = """
import contextlib, io, json, sys
from qkdsim import cli

out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(["explain", "--preset", "normal"])
    loaded = set(sys.modules)
    runs = [["--preset", p] for p in ("normal", "full-attack", "partial-attack")]
    runs.append(["--preset", "partial-attack", "--set", "phase_flip_prob=0.01"])
    for i, run in enumerate(runs):
        assert cli.main(["run", *run, "--slots", "300000", "--emit-clicks",
                         "--out", f"{out}/{i}"]) == 0
    assert cli.main(["sweep-power", "--preset", "normal", "--points", "3",
                     "--out-csv", f"{out}/sweep.csv"]) == 0
print(json.dumps(sorted(set(sys.modules) - loaded)))
print(json.dumps("numpy.ma" in sys.modules))
"""


def test_a_run_imports_no_module(tmp_path):
    """`qkdsim run` on every preset, per-slot pieces included, and
    `sweep-power` import nothing beyond `import qkdsim` and the argument
    parser: a lazy import (numpy.ma, which np.unique pulls in) costs more
    than a short run's simulation."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_OF_A_RUN, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported, numpy_ma = map(json.loads, proc.stdout.splitlines())
    assert imported == []
    assert numpy_ma is False
