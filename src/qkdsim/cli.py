"""Command-line front end: scenario files in, metrics/CSV out.

Subcommands
-----------
run          simulate a scenario; writes metrics.json, an optional
             clicks.csv, and a human-readable report.txt
sweep-power  count rate versus input power for each detector, as CSV
explain      print the fully resolved config (stdout, re-parseable JSON)
             plus the coincidence estimate and secure fraction it implies
             (stderr), without running a simulation

Scenario files are JSON mirroring ScenarioConfig field-for-field; every
field is optional and unknown keys are errors.  `--preset` applies a named
configuration first, then the file, then repeated `--set key=value`
overrides (dotted paths; `detectors.*.x` fans out).  A `--set` value is
JSON in the scenario-file format (a bare word is taken as a string), so
`--set 'attack={"enabled": true}'` replaces the whole attack object; it
is checked by the same schema (`engine.config_from_dict`) as a file.

Exit codes: 0 success, 1 bad config/arguments, 2 abort-triggering scenario
when --fail-on-abort is given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .detector import count_rate_sweep, dBm_to_photons
from .engine import (
    ConfigError,
    RunMetrics,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    config_with,
    run_scenario,
)
from .protocol import KeyRateInputs, secure_fraction
from .rng import SlotRng, derive_seed

PRESETS: dict[str, dict] = {
    # Honest link at stock parameters.
    "normal": {
        "alice_mode": "random",
        "attack": {"enabled": False},
    },
    # Detector-control emulation: static 0-pi source modulation, every
    # cycle attacked, fake clicks aimed at the port-2 pair.  The phase-flip
    # knob is zeroed: an all-or-nothing flip misroutes the bright stream
    # and destroys the deterministic fake-click timing, which real
    # interferometer leakage (far below the blinding threshold) does not.
    "full-attack": {
        "alice_mode": "static_0pi",
        "phase_flip_prob": 0.0,
        "attack": {"enabled": True, "mode": "emulation", "attacked_fraction": 1.0},
    },
    "partial-attack": {
        "alice_mode": "static_0pi",
        "phase_flip_prob": 0.0,
        "attack": {"enabled": True, "mode": "emulation", "attacked_fraction": 0.5},
    },
}

def _merge_dict(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge_dict(out[k], v)
        else:
            out[k] = v
    return out


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings (e.g. alice_mode=random)


def resolve_config(args) -> ScenarioConfig:
    """Compose preset < scenario file < --set < convenience flags."""
    data: dict = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError("--preset", f"unknown preset {args.preset!r}")
        data = _merge_dict(data, PRESETS[args.preset])
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(args.config, f"cannot read scenario file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(args.config, f"invalid JSON: {exc}") from exc
        config_from_dict(loaded)  # validate keys against the schema early
        data = _merge_dict(data, loaded)
    cfg = config_from_dict(data)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(item, "--set expects key=value")
        key, raw = item.split("=", 1)
        cfg = config_with(cfg, key, _parse_set_value(raw))
    if getattr(args, "seed", None) is not None:
        cfg = config_with(cfg, "seed", args.seed)
    if getattr(args, "slots", None) is not None:
        cfg = config_with(cfg, "n_slots", args.slots)
    cfg.validate()
    return cfg


def _write_report(path: Path, cfg: ScenarioConfig, metrics: RunMetrics) -> None:
    m = metrics
    dur_ms = cfg.n_slots / cfg.clock_hz * 1e3

    def fmt(v, spec):
        return format(v, spec) if v is not None else "no data"

    lines = [
        f"slots simulated      {cfg.n_slots} ({dur_ms:.3f} ms at {cfg.clock_hz:.3g} Hz)",
        f"QBER                 {fmt(m.qber, '.4f')}",
        f"CCR pair A (Det1/2)  {fmt(m.ccr_pair_A, '.6g')}",
        f"CCR pair B (Det3/4)  {fmt(m.ccr_pair_B, '.6g')}",
        f"CCR estimate         {m.ccr_est:.6g}",
        "count rates (cps)    " + "  ".join(f"Det{i+1}={r:.4g}" for i, r in enumerate(m.count_rates_cps)),
        f"singles              {list(m.singles)}",
        f"coincidences         A={m.coincidences[0]} B={m.coincidences[1]}",
        f"sifted key length    {m.K_sift}",
        f"secure key length    {m.K_sec}",
        f"attack fraction est. {m.attack_fraction_est:.4f}",
        f"abort                {'YES -- ' + m.abort_reason if m.abort else 'no'}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_run(args) -> int:
    cfg = resolve_config(args)
    out_dir = Path(args.out)
    try:  # the simulation does no I/O, so an OSError is the output's
        out_dir.mkdir(parents=True, exist_ok=True)
        log, metrics = run_scenario(cfg)
        (out_dir / "metrics.json").write_text(metrics.to_json(), encoding="utf-8")
        if args.emit_clicks:
            log.write_csv(out_dir / "clicks.csv")
        _write_report(out_dir / "report.txt", cfg, metrics)
        sys.stdout.write((out_dir / "report.txt").read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return 1
    if metrics.abort and args.fail_on_abort:
        return 2
    return 0


def cmd_sweep_power(args) -> int:
    cfg = resolve_config(args)
    if not args.min_dBm < args.max_dBm:
        raise ConfigError("--min-dbm/--max-dbm", "min must be below max")
    if args.points < 3:
        raise ConfigError("--points", "need at least 3 points")
    if args.slots_per_point < 10**4:
        raise ConfigError("--slots-per-point", "must be >= 1e4")
    step = (args.max_dBm - args.min_dBm) / (args.points - 1)
    dbms = [args.min_dBm + i * step for i in range(args.points)]
    try:
        powers = [dBm_to_photons(p, cfg.clock_hz, cfg.signal_wavelength_nm) for p in dbms]
    except OverflowError:
        powers = [math.inf]
    if not all(map(math.isfinite, dbms + powers)):
        raise ConfigError("--min-dbm/--max-dbm", "powers must be finite, in dBm and in photons")
    rows = []
    for det_id in (1, 2, 3, 4):
        rng = SlotRng(derive_seed(cfg.seed, "power-sweep", det_id))
        rates = count_rate_sweep(
            cfg.detectors[det_id - 1],
            powers,
            args.slots_per_point,
            rng,
            clock_hz=cfg.clock_hz,
        )
        rows.extend(
            (dbm, det_id, rate) for dbm, (_, rate) in zip(dbms, rates)
        )
    out = Path(args.out_csv)
    try:
        with out.open("w", encoding="utf-8") as f:
            f.write("power_dBm,detector_id,count_rate_cps\n")
            for dbm, det_id, rate in rows:
                f.write(f"{dbm!r},{det_id},{rate!r}\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_explain(args) -> int:
    cfg = resolve_config(args)
    sys.stdout.write(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    est = cfg.ccr_est
    print(f"ccr_est = {est:.6g}", file=sys.stderr)
    try:
        s = secure_fraction(
            KeyRateInputs(
                K_sift=0,
                mu=cfg.mu,
                T=cfg.transmission,
                eta=cfg.mean_efficiency,
                e=args.qber,
                f_e=cfg.error_correction_f,
                CCR_exp=est,
                CCR_est=est,
            )
        )
        print(f"secure_fraction at qber={args.qber} = {s:.6g}", file=sys.stderr)
    except ValueError as exc:
        print(f"secure_fraction at qber={args.qber}: undefined ({exc})", file=sys.stderr)
    return 0


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="scenario JSON file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named configuration")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field (dotted path; repeatable)",
    )
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--slots", type=int, help="override n_slots")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qkdsim",
        description="Differential-phase-shift QKD link simulator with "
        "detector-control attacks and coincidence monitoring.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="simulate a scenario and write metrics")
    _add_config_args(r)
    r.add_argument("--out", default=".", help="output directory")
    r.add_argument("--emit-clicks", action="store_true", help="also write clicks.csv")
    r.add_argument(
        "--fail-on-abort",
        action="store_true",
        help="exit with code 2 when the run trips the abort decision",
    )
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep-power", help="count rate vs input power, as CSV")
    _add_config_args(s)
    s.add_argument("--out-csv", default="count_rates.csv")
    s.add_argument("--min-dbm", dest="min_dBm", type=float, default=-80.0)
    s.add_argument("--max-dbm", dest="max_dBm", type=float, default=-20.0)
    s.add_argument("--points", type=int, default=13)
    s.add_argument("--slots-per-point", type=int, default=100_000)
    s.set_defaults(func=cmd_sweep_power)

    e = sub.add_parser("explain", help="print the resolved config and derived rates")
    _add_config_args(e)
    e.add_argument(
        "--qber",
        type=float,
        default=0.0,
        help="error rate at which to evaluate the secure fraction",
    )
    e.set_defaults(func=cmd_explain)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
