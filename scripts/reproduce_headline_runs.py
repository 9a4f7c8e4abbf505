#!/usr/bin/env python3
"""Run the three preset scenarios and print a summary table.

Defaults keep the runtime under a minute; pass --slots to enlarge the
honest run for tighter statistics (1e8 reproduces the documented numbers).
"""

import argparse
import dataclasses
import sys
import time

from qkdsim.cli import PRESETS, config_from_dict
from qkdsim.engine import run_scenario


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--slots", type=int, default=10_000_000,
                    help="slots for the normal run (attack runs use 1e7)")
    ap.add_argument("--seed", type=int, default=20260808)
    args = ap.parse_args()

    rows = []
    for name in ("normal", "full-attack", "partial-attack"):
        cfg = config_from_dict(PRESETS[name])
        n = args.slots if name == "normal" else 10_000_000
        cfg = dataclasses.replace(cfg, n_slots=n, seed=args.seed)
        t0 = time.time()
        _, m = run_scenario(cfg)
        rows.append((name, n, m, time.time() - t0))

    print(f"{'preset':<15}{'slots':>10}{'QBER':>9}{'CCR A':>10}{'CCR B':>10}"
          f"{'K_sift':>9}{'K_sec':>8}{'attack est':>12}{'abort':>7}{'time':>8}")
    for name, n, m, dt in rows:
        qb = f"{m.qber:.4f}" if m.qber is not None else "-"
        ccr_a = f"{m.ccr_pair_A:.3g}" if m.ccr_pair_A is not None else "-"
        ccr_b = f"{m.ccr_pair_B:.3g}" if m.ccr_pair_B is not None else "-"
        print(f"{name:<15}{n:>10}{qb:>9}{ccr_a:>10}{ccr_b:>10}"
              f"{m.K_sift:>9}{m.K_sec:>8}{m.attack_fraction_est:>12.4f}"
              f"{str(m.abort):>7}{dt:>7.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
