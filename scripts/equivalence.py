#!/usr/bin/env python3
"""Statistical-equivalence gate between two source trees of qkdsim.

    python scripts/equivalence.py --ref ../parent --new . [--seeds 10] [--scale 1]

A change to the random-number contract changes every output byte, so
byte equality cannot show that it left the physics alone.  This script
runs the same scenarios in both trees, on disjoint seed sets (`--seeds`
runs per scenario and tree, each tree in one fresh process importing the
package from its `src/`), and tests whether each metric has the same
distribution in both:

* the singles of each detector and the coincidences of each pair, as a
  ratio of two Poisson rates at equal exposure;
* the QBER (errors among sifted bits) and `K_sift` (sifted bits among
  slots), each as a two-proportion test;
* `attack_fraction_est`, by Welch's z on its per-seed values.

Counts are pooled over seeds.  Where the seeds scatter a count more than
a Poisson count (an attacked run's random cycle schedule does), the
variance is inflated by the pooled dispersion index of the per-seed
counts, never deflated.  Every test gives a two-sided normal p-value
(`math.erfc`), and the gate fails if any p lies below `--alpha` divided
by the number of tests (Bonferroni): a family-wise false-fail rate of
about `--alpha`, 1e-3 by default.  The reference tree is typically a
`git worktree` or clone of the parent commit.  Exit status: 0 pass,
1 fail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

# (name, preset, overrides as `--set` paths, slots at --scale 1)
SCENARIOS = (
    ("honest-link", "normal", {}, 10_000_000),
    ("attack-partial", "partial-attack", {}, 20_000_000),
    ("dense-clicks", "normal",
     {"channel_loss_dB": 0.0, "detectors.*.efficiency": 0.5}, 2_000_000),
    ("full-attack", "full-attack", {}, 20_000_000),
    ("intercept-resend", "partial-attack",
     {"attack.mode": "intercept_resend", "mu": 2.0}, 20_000_000),
    # Blinding light out of the filter's band reaches the detectors 40 dB
    # down, dim but far above the signal: an attack run full of clicks.
    ("detuned-filter", "partial-attack",
     {"filter.enabled": True, "attack.blind_wavelength_nm": 1561.0}, 2_000_000),
)
COUNTS = ("singles_1", "singles_2", "singles_3", "singles_4", "coinc_A", "coinc_B")


def worker(seeds: list[int], scale: float) -> None:
    """Run every scenario at each seed in this process; print one JSON
    object: the package's location and, per scenario, one record per seed."""
    import dataclasses

    import qkdsim
    from qkdsim.cli import PRESETS
    from qkdsim.engine import config_from_dict, config_with, run_scenario

    out = {"package": qkdsim.__file__, "runs": {}}
    for name, preset, overrides, slots in SCENARIOS:
        cfg = config_from_dict(PRESETS[preset])
        for path, value in overrides.items():
            cfg = config_with(cfg, path, value)
        n = max(int(slots * scale), 10_000)
        records = []
        for seed in seeds:
            _, m = run_scenario(dataclasses.replace(cfg, n_slots=n, seed=seed))
            records.append({
                "n_slots": n,
                **{f"singles_{d}": m.singles[d - 1] for d in (1, 2, 3, 4)},
                "coinc_A": m.coincidences[0], "coinc_B": m.coincidences[1],
                "K_sift": m.K_sift,
                "errors": round((m.qber or 0.0) * m.K_sift),
                "attack_fraction_est": m.attack_fraction_est,
            })
        out["runs"][name] = records
    print(json.dumps(out))


def run_tree(tree: Path, seeds: list[int], scale: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           json.dumps(seeds), "--scale", str(scale)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        sys.exit(f"scenarios failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    want = (tree / "src" / "qkdsim").resolve()
    if Path(result["package"]).resolve().parent != want:
        sys.exit(f"{tree}: imported qkdsim from {result['package']}, not from {want}")
    return result["runs"]


def p_value(z: float) -> float:
    """Two-sided normal tail probability of z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def dispersion(*groups) -> float:
    """Pooled variance-to-mean ratio of per-seed counts, at least 1."""
    ss = sum(sum((x - sum(g) / len(g)) ** 2 for x in g) for g in groups)
    dof = sum(len(g) - 1 for g in groups)
    mean = sum(sum(g) for g in groups) / sum(len(g) for g in groups)
    if dof <= 0 or mean <= 0.0:
        return 1.0
    return max(1.0, ss / dof / mean)


def two_proportion(x1, n1, x2, n2, phi=1.0) -> float | None:
    """z of x1/n1 against x2/n2, pooled variance inflated by phi; None if
    there is nothing to compare."""
    if n1 <= 0 or n2 <= 0:
        return None
    p = (x1 + x2) / (n1 + n2)
    var = phi * p * (1.0 - p) * (1.0 / n1 + 1.0 / n2)
    if var <= 0.0:
        return None if x1 * n2 == x2 * n1 else math.inf
    return (x1 / n1 - x2 / n2) / math.sqrt(var)


def poisson_ratio(a: list, b: list) -> float | None:
    """z of the pooled counts a against b at equal exposure, given a + b:
    a ~ Binomial(a + b, 1/2) under equal rates."""
    sa, sb = sum(a), sum(b)
    if sa + sb == 0:
        return None
    return (sa - sb) / math.sqrt(dispersion(a, b) * (sa + sb))


def welch(a: list, b: list) -> float | None:
    ma, mb = sum(a) / len(a), sum(b) / len(b)
    va = sum((x - ma) ** 2 for x in a) / max(len(a) - 1, 1)
    vb = sum((x - mb) ** 2 for x in b) / max(len(b) - 1, 1)
    se2 = va / len(a) + vb / len(b)
    if se2 == 0.0:
        return None if ma == mb else math.inf
    return (ma - mb) / math.sqrt(se2)


def compare(ref: dict, new: dict) -> list[tuple]:
    """(scenario, metric, ref value, new value, z) per test; z None when
    both trees show nothing to compare."""
    rows = []
    for name, *_ in SCENARIOS:
        r, n = ref[name], new[name]

        def col(runs, key):
            return [run[key] for run in runs]

        for key in COUNTS:
            a, b = col(r, key), col(n, key)
            rows.append((name, key, sum(a) / len(a), sum(b) / len(b), poisson_ratio(a, b)))
        err_a, err_b = col(r, "errors"), col(n, "errors")
        ks_a, ks_b = col(r, "K_sift"), col(n, "K_sift")
        rows.append((name, "qber", sum(err_a) / max(sum(ks_a), 1), sum(err_b) / max(sum(ks_b), 1),
                     two_proportion(sum(err_a), sum(ks_a), sum(err_b), sum(ks_b),
                                    dispersion(err_a, err_b))))
        slots_a, slots_b = sum(col(r, "n_slots")), sum(col(n, "n_slots"))
        rows.append((name, "K_sift", sum(ks_a) / len(ks_a), sum(ks_b) / len(ks_b),
                     two_proportion(sum(ks_a), slots_a, sum(ks_b), slots_b,
                                    dispersion(ks_a, ks_b))))
        af_a, af_b = col(r, "attack_fraction_est"), col(n, "attack_fraction_est")
        rows.append((name, "attack_fraction_est", sum(af_a) / len(af_a), sum(af_b) / len(af_b),
                     welch(af_a, af_b)))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", type=Path, help="reference source tree (holds src/qkdsim)")
    ap.add_argument("--new", type=Path, help="source tree under test")
    ap.add_argument("--seeds", type=int, default=10, help="runs per scenario and tree")
    ap.add_argument("--seed-base", type=int, default=1000,
                    help="reference seeds start here, new ones --seeds later")
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies every slot count")
    ap.add_argument("--alpha", type=float, default=1e-3, help="family-wise false-fail rate")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(json.loads(args.worker), args.scale)
        return 0
    if args.ref is None or args.new is None:
        ap.error("--ref and --new are required")
    if args.seeds < 2:
        ap.error("--seeds must be >= 2")

    ref_seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    new_seeds = list(range(args.seed_base + args.seeds, args.seed_base + 2 * args.seeds))
    t0 = time.monotonic()
    ref = run_tree(args.ref.resolve(), ref_seeds, args.scale)
    t1 = time.monotonic()
    new = run_tree(args.new.resolve(), new_seeds, args.scale)
    t2 = time.monotonic()

    rows = compare(ref, new)
    tested = [row for row in rows if row[4] is not None]
    bound = args.alpha / len(tested)
    print(f"ref {args.ref} seeds {ref_seeds[0]}..{ref_seeds[-1]} ({t1 - t0:.1f} s); "
          f"new {args.new} seeds {new_seeds[0]}..{new_seeds[-1]} ({t2 - t1:.1f} s); "
          f"scale {args.scale}")
    print(f"{'scenario':<18}{'metric':<21}{'ref':>13}{'new':>13}{'z':>8}{'p':>11}")
    failed = []
    for name, metric, a, b, z in rows:
        if z is None:
            print(f"{name:<18}{metric:<21}{a:>13.6g}{b:>13.6g}{'-':>8}{'-':>11}")
            continue
        p = p_value(z)
        flag = "  FAIL" if p < bound else ""
        print(f"{name:<18}{metric:<21}{a:>13.6g}{b:>13.6g}{z:>8.2f}{p:>11.2e}{flag}")
        if p < bound:
            failed.append(f"{name}/{metric}")
    min_p = min(p_value(row[4]) for row in tested)
    verdict = "FAIL" if failed else "PASS"
    print(f"{verdict}: {len(tested)} tests, Bonferroni bound p < {bound:.2e} "
          f"(family-wise {args.alpha:g}), smallest p {min_p:.2e}"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
