"""qkdsim benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload honest-link --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`; nothing is installed).  Each scenario runs `qkdsim run` in a fresh
single-threaded process through `child.py`, which times the calls into the
package from outside it.  Rounds of scenarios run one after another for
`--seconds`; each scenario is an operation attempted, and it fails when
its process exits non-zero or its outputs fail the checks in `checks.py`.
Scenario k of a run takes its config seed from (workload, --seed, k).

`--trace 0` prints the end-to-end metrics, medians over the scenarios.
`--trace 1` runs each scenario twice, untraced then traced, and prints the
per-layer metrics of the traced runs plus the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_run  # noqa: E402
from workloads import WORKLOADS, scenario_seed  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
# A run, set-up and checks included, must end within this many seconds.
DEADLINE_S = 170.0

def run_scenario(workload, cfg: dict, scratch: Path, trace: bool, timeout: float) -> dict:
    """Run one scenario in a fresh process; return its record, with the
    spawn time and the list of check failures added."""
    if scratch.exists():
        shutil.rmtree(scratch)
    out = scratch / "out"
    out.mkdir(parents=True)
    cfg_path = scratch / "scenario.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    record_path = scratch / "record.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), str(int(trace)), "--",
           "--config", str(cfg_path), "--out", str(out)]
    if workload.emit_clicks:
        cmd.append("--emit-clicks")
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", QKDSIM_THREADS="1")
    spawned = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"failures": ["scenario ran past the run's deadline"]}
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop it first
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return {"failures": [f"exit code {proc.returncode}: {tail[0]}"]}
    record = json.loads(record_path.read_text(encoding="utf-8"))
    record["spawned"] = spawned
    record["failures"] = check_run(workload.name, cfg, out)
    return record


def span_table(spans) -> dict:
    """Per span name: self time, summed count, and the count of the `rng`
    spans directly below it (the variates drawn inside its calls)."""
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    table = defaultdict(lambda: {"self_s": 0.0, "count": 0, "draws_below": 0})
    for i, (name, t0, t1, parent, count) in enumerate(spans):
        table[name]["self_s"] += t1 - t0 - child_time[i]
        table[name]["count"] += count
        if name == "rng" and parent >= 0:
            table[spans[parent][0]]["draws_below"] += count
    return table


def end_to_end(record: dict, n_slots: int) -> dict:
    by_name = {}
    for name, t0, t1, *_ in record["spans"]:
        by_name.setdefault(name, (t0, t1))
    resolved = by_name["cli.resolve"][1]
    sim0, sim1 = by_name["engine"]
    return {
        "slots_per_s": n_slots / (sim1 - sim0) / 1e6,
        "run_s": by_name["cli.run"][1] - resolved,
        "setup_s": resolved - record["spawned"],
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }


def layers(record: dict, n_slots: int) -> dict:
    """Per-layer figures of one traced scenario.  A layer whose entry point
    is absent or was never called spent no time: its figures read 0."""
    t = span_table(record["spans"])
    rng, det = t.get("rng"), t.get("detector")

    def self_s(name):
        return t[name]["self_s"] if name in t else 0.0

    return {
        "rng.self_s": self_s("rng"),
        "rng.draws_per_slot": rng["count"] / n_slots if rng else 0.0,
        "detector.self_s": self_s("detector"),
        "detector.clicks_per_draw": (
            det["count"] / det["draws_below"] if det and det["draws_below"] else 0.0
        ),
        "attack.self_s": self_s("attack"),
        "engine.self_s": self_s("engine"),
        "protocol.metrics_s": self_s("protocol.metrics"),
        "cli.resolve_s": self_s("cli.resolve"),
        "cli.output_s": self_s("cli.run"),
        "cli.output_bytes": record["output_bytes"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qkdsim" / "cli.py").is_file():
        print(f"error: no qkdsim source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = WORK / f"{workload.name}-{os.getpid()}"
    start = monotonic()
    attempted = failed = 0
    e2e_rows, layer_rows, absent = [], [], set()
    try:
        index = 0
        round_s = 0.0
        # Start a round only if a round as long as the last one still ends
        # within --seconds; the first round always runs.
        while index == 0 or monotonic() - start + round_s <= args.seconds:
            round_start = monotonic()
            cfg = workload.scenario(scenario_seed(workload.name, args.seed, index))
            index += 1
            passes = (False, True) if args.trace else (False,)
            records = []
            for traced in passes:
                left = DEADLINE_S - (monotonic() - start)
                rec = run_scenario(workload, cfg, scratch, traced, left)
                attempted += 1
                if rec["failures"]:
                    failed += 1
                    print(f"scenario {index} failed: " + "; ".join(rec["failures"]),
                          file=sys.stderr)
                records.append(rec)
            round_s = monotonic() - round_start
            if any(r["failures"] for r in records):
                continue
            rows = [end_to_end(r, workload.n_slots) for r in records]
            e2e_rows.append(rows[0])
            if args.trace:
                layer_rows.append(layers(records[1], workload.n_slots))
                layer_rows[-1]["trace.overhead_s"] = rows[1]["run_s"] - rows[0]["run_s"]
                absent.update(records[1]["absent"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    if absent:
        print("absent entry points: " + ", ".join(sorted(absent)), file=sys.stderr)
    if not e2e_rows:
        print("error: no scenario succeeded, so nothing was measured", file=sys.stderr)
        return 1
    idle = sorted(k for k in (layer_rows[0] if layer_rows else ())
                  if all(row[k] == 0 for row in layer_rows))
    if idle:
        print("layers absent or never called, reported as 0: " + ", ".join(idle),
              file=sys.stderr)
    # Metric names and units, as BENCHMARK.json declares them.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, declared = (layer_rows, spec["per_layer"]) if args.trace else (e2e_rows, spec["end_to_end"])
    metrics = {
        m["name"]: {"value": statistics.median([row[m["name"]] for row in rows]), "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
