"""One scenario in a fresh process: `qkdsim run` with timing wrappers.

Usage: child.py RECORD_JSON TRACE -- <arguments of `qkdsim run`>

The wrappers are installed from here, around the package's public entry
points, before `qkdsim.cli.main` is called; the package itself is not
changed.  Each wrapped call becomes a span [name, start, end, parent,
count], kept in memory and written to RECORD_JSON when the run ends,
together with the peak resident memory and the size of the files the run
wrote.  Times are wall times from `time.monotonic()`, one
clock for all processes, so the parent can time set-up from just before
it started this process.

With TRACE 0 only the end-to-end entry points are wrapped: a handful of
spans per run.  With TRACE 1 every layer below is wrapped too.  A layer
entry point that no longer exists is listed under "absent" and skipped;
without the end-to-end ones the run cannot be timed and exits 1.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
from time import monotonic


def _size(result) -> int:
    return int(getattr(result, "size", 1))


# (span name, module, attribute path, counter of the call's work)
END_TO_END = (
    ("cli.resolve", "qkdsim.cli", "resolve_config", None),
    ("engine", "qkdsim.cli", "run_scenario", None),
    ("cli.run", "qkdsim.cli", "cmd_run", None),
)
LAYERS = (
    ("rng", "qkdsim.rng", "SlotRng.raw_at", _size),
    ("detector", "qkdsim.engine", "simulate_block", len),
    # The attack layer: its config check, called by every run's
    # `ScenarioConfig.validate`, and the plan and field synthesis of an
    # attacked run.
    ("attack", "qkdsim.engine", "validate_against_detectors", None),
    ("attack", "qkdsim.attack", "AttackPlan.__init__", None),
    ("attack", "qkdsim.attack", "AttackPlan.channel_fields", None),
    ("protocol.metrics", "qkdsim.engine", "compute_metrics", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = monotonic()
                stack.pop()
            if count:
                span[4] = count(result)
            return result

        return wrapper

    def install(self, targets) -> list[str]:
        """Wrap each target in place; return the names of those not found."""
        absent = []
        for name, module, path, count in targets:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                absent.append(name)
                continue
            setattr(owner, attr, self.wrap(name, fn, count))
        return absent


def main(argv) -> int:
    record_path, trace, sep, *run_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RECORD_JSON TRACE -- <qkdsim run arguments>")
    out_dir = run_args[run_args.index("--out") + 1]

    from qkdsim import cli

    tracer = Tracer()
    if tracer.install(END_TO_END):
        raise SystemExit("cannot time the run: an end-to-end entry point is missing")
    absent = tracer.install(LAYERS) if trace == "1" else []
    code = cli.main(["run", *run_args])
    record = {
        "absent": absent,
        "spans": tracer.spans,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output_bytes": sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file()),
    }
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
