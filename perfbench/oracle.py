"""Known answers for every benchmark input, from the slow oracle.

The oracle is the plain path: ``typecheck(..., use_eval_cache=False)``,
sequential, no worker pool.  Its verdicts and search totals are what
every benchmark run must reproduce.

    python3 perfbench/oracle.py --write   # regenerate answers.json (about a minute)
    python3 perfbench/oracle.py --check   # self-test at reduced size

``--check`` recomputes, with the oracle, the reduced-size answers and
every service job, and compares them with ``answers.json``; it also
runs the fast paths the benchmark times (compiled evaluation; the
sharded CLI) at reduced size against the same answers, and checks that
``predictions.json`` names exactly the per-layer metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PREDICTIONS = BENCH_DIR / "predictions.json"
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import workloads  # noqa: E402

VALUES_REDUCED = 5
STRUCTURE_REDUCED = 7


def solve(query_dict: dict, input_dtd: str, output_dtd: str, max_size: int, fast: bool = False) -> dict:
    from repro import typecheck
    from repro.dtd import parse_dtd
    from repro.ql.serde import query_from_dict
    from repro.typecheck.search import SearchBudget

    result = typecheck(
        query_from_dict(query_dict),
        parse_dtd(input_dtd),
        parse_dtd(output_dtd),
        budget=SearchBudget(max_size=max_size),
        use_eval_cache=fast,
    )
    return {"algorithm": result.algorithm, "max_size": max_size, **workloads.totals_of(result)}


def solve_job(spec: inputs.JobSpec, fast: bool = False) -> dict:
    from repro import typecheck
    from repro.service.scheduler import parse_submission

    sub = parse_submission(spec.submission())
    result = typecheck(sub.query, sub.tau1, sub.tau2, budget=sub.budget, use_eval_cache=fast)
    return {"algorithm": result.algorithm, **workloads.totals_of(result)}


def service_answers(fast: bool = False) -> dict:
    answers: dict[str, dict] = {}
    for spec in inputs.cold_specs() + inputs.medium_specs():
        got = solve_job(spec, fast)
        if answers.setdefault(spec.key, got) != got:
            raise AssertionError(f"answer depends on the query constant: {spec}")
    return answers


def structure(max_size: int, seed: int = 0, fast: bool = False) -> dict:
    query, input_dtd, output_dtd = inputs.structure_problem(seed)
    return solve(query, input_dtd, output_dtd, max_size, fast)


def values(max_size: int, seed: int = 0, fast: bool = False) -> dict:
    return solve(
        inputs.values_query(seed), inputs.VALUES_INPUT_DTD, inputs.VALUES_OUTPUT_DTD, max_size, fast
    )


def write() -> None:
    answers = {
        "values-bound": values(inputs.VALUES_MAX_SIZE),
        "values-bound@reduced": values(VALUES_REDUCED),
        "structure-sharded": structure(inputs.STRUCTURE_MAX_SIZE),
        "structure-sharded@setup": structure(inputs.STRUCTURE_SETUP_MAX_SIZE),
        "structure-sharded@reduced": structure(STRUCTURE_REDUCED),
        "service-mixed": service_answers(),
    }
    with open(workloads.ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(answers, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.ANSWERS}")


def check() -> int:
    stored = workloads.load_answers()
    problems = []
    with open(PREDICTIONS, encoding="utf-8") as handle:
        predicted = set(json.load(handle)["metrics"])
    listed = set(workloads.listed_units("per_layer"))
    if predicted != listed:
        problems.append(f"predictions.json and BENCHMARK.json per_layer differ: {sorted(predicted ^ listed)}")

    def compare(label: str, got: dict, expected: dict) -> None:
        diff = workloads.mismatch(got, expected)
        if diff is not None:
            problems.append(f"{label}: {diff}")

    for seed in (0, 1):
        compare(f"values-bound@reduced seed {seed}", values(VALUES_REDUCED, seed), stored["values-bound@reduced"])
        compare(
            f"values-bound@reduced seed {seed} (compiled)",
            values(VALUES_REDUCED, seed, fast=True),
            stored["values-bound@reduced"],
        )
        compare(
            f"structure-sharded@reduced seed {seed}",
            structure(STRUCTURE_REDUCED, seed),
            stored["structure-sharded@reduced"],
        )
        compare(
            f"structure-sharded@setup seed {seed}",
            structure(inputs.STRUCTURE_SETUP_MAX_SIZE, seed),
            stored["structure-sharded@setup"],
        )
    query, input_dtd, output_dtd = inputs.structure_problem(2)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "typecheck", "--query", json.dumps(query),
         "--input-dtd", input_dtd, "--output-dtd", output_dtd,
         "--max-size", str(STRUCTURE_REDUCED), "--workers", str(inputs.STRUCTURE_WORKERS)],
        env=workloads.child_env(), capture_output=True, text=True, timeout=300,
    )
    problem = workloads.cli_check(proc, stored["structure-sharded@reduced"])
    if problem is not None:
        problems.append(f"structure-sharded@reduced (sharded CLI): {problem}")
    for label, fast in (("oracle", False), ("compiled", True)):
        got = service_answers(fast)
        for key, expected in stored["service-mixed"].items():
            compare(f"service-mixed {key} ({label})", got[key], expected)
    for line in problems:
        print(line)
    print("OK" if not problems else f"FAILED: {len(problems)} mismatch(es)")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="known answers for the benchmark")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.write:
        write()
        return 0
    return check()


if __name__ == "__main__":
    sys.exit(main())
