"""The repository benchmark: time to verdict and service latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why
each was chosen): ``values-bound``, ``structure-sharded``,
``service-mixed``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` interleaves traced and untraced rounds and reports the
per-layer split, the tracing overhead and the unaccounted residual.

Standard output ends with two JSON lines: the details (machine block,
per-round samples, known-answer errors), then the result object with
exactly ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

CALIBRATION_LOOP = 200_000


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without starting a
    process; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head or None
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip() or None
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_block() -> dict:
    """Enough context to compare numbers taken on different machines."""

    def calibrate() -> float:
        t0 = perf_counter_ns()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i
        return (perf_counter_ns() - t0) / CALIBRATION_LOOP

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calibration_ns_per_iter": statistics.median(calibrate() for _ in range(5)),
        "git_commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # One persistent bytecode cache for this process and every child, so
    # import cost is the same on every run after the first.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(BENCH_DIR / ".cache" / "pycache")
    sys.path.insert(0, str(SRC))

    import workloads

    runner = workloads.WORKLOADS.get(args.workload)
    if runner is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    machine = machine_block()
    work = BENCH_DIR / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    out = workloads.Outcome()
    try:
        runner(args.seed, args.seconds, bool(args.trace), work, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    listed = workloads.listed_units(section)
    reported = {name: unit for name, (_, unit) in out.metrics.items()}
    if reported != listed:
        drift = sorted(set(listed.items()) ^ set(reported.items()))
        print(f"error: {section} metrics differ from BENCHMARK.json: {drift}", file=sys.stderr)
        return 1
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "failed_frac": out.failed / max(1, out.attempted),
        "errors": out.errors,
        **out.details,
    }
    print(json.dumps({"details": details}))
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in sorted(out.metrics.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
