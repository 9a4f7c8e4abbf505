"""Record the benchmark: every workload at --trace 0 and 1, into one file.

    python scripts/bench_record.py --out BENCH_21.json
    python scripts/bench_record.py --checkout ../other-tree --out BENCH_20.json

Runs `bench/run.py` of the checkout (by default the one holding this
script) for each workload of its `bench/workloads.py`, at seed 1,
untraced and traced, and writes a JSON file with each run's result line
(the last line `bench/run.py` prints), the checkout's git revision, and
the machine: CPU count and model, Python and numpy versions, and
`PYTHONDONTWRITEBYTECODE`, which decides whether each scenario process
compiles the package from source (a part of `setup_s`).  Exits 1 if a
run exits non-zero or prints no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def _git(checkout: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=True).stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _workloads(checkout: Path) -> list[str]:
    """The workload names of the checkout's `bench/workloads.py`."""
    sys.path.insert(0, str(checkout / "bench"))
    from workloads import WORKLOADS
    return list(WORKLOADS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="the BENCH JSON file to write")
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="source checkout whose bench/run.py to run")
    ap.add_argument("--seconds", type=float, default=30.0, help="per run (bench/run.py)")
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    workloads = _workloads(checkout)
    record = {
        "revision": _git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "machine": {
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "runs": [],
    }
    for trace in (0, 1):
        for workload in workloads:
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"error: {' '.join(cmd[1:])} exited {proc.returncode}", file=sys.stderr)
                return 1
            record["runs"].append({"workload": workload, "trace": trace,
                                   "seconds": args.seconds, "seed": 1,
                                   "result": json.loads(lines[-1])})
            print(f"{workload} --trace {trace}: {lines[-1]}", flush=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
