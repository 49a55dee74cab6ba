"""The three workloads: untraced rounds for the end-to-end metrics, and
traced rounds interleaved with untraced ones for the per-layer split.

Every round's verdict and search totals are compared with the stored
known answers (``answers.json``); a mismatch counts as a failed
operation and makes the run incorrect.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import inputs
from layers import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ANSWERS = BENCH_DIR / "answers.json"
BENCHMARK = ROOT / "BENCHMARK.json"
PYCACHE = BENCH_DIR / ".cache" / "pycache"

# Set-up is timed once before every untraced round, so its samples span
# the run as the rounds do (the host's speed drifts over tens of
# seconds), and at least this many times.
SETUP_REPS = 5
SUBPROCESS_TIMEOUT = 120.0
SERVICE_SLICE_SECONDS = 0.1
SERVICE_SLICE_THREADS = 2
# Fresh jobs the client keeps outstanding.  With two, half the cold jobs
# shared the interpreter with another search and half ran alone, so the
# cold-job median sat between two modes and spread 0.40 across ten
# runs.  Cache-hit repeats still go out while a job runs, so reads
# still sit beside its journal writes.
SERVICE_OUTSTANDING = 1
RSS_SAMPLE_SECONDS = 0.02


def child_env() -> dict[str, str]:
    """Environment for spawned program processes: the checkout's source
    and one persistent bytecode cache, whatever the caller's settings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def load_answers() -> dict[str, Any]:
    with open(ANSWERS, encoding="utf-8") as handle:
        return json.load(handle)


TOTALS = ("verdict", "label_trees_checked", "valued_trees_checked", "max_size_reached")


def totals_of(result: Any) -> dict[str, Any]:
    stats = result.stats
    return {
        "verdict": result.verdict.value,
        "label_trees_checked": stats.label_trees_checked,
        "valued_trees_checked": stats.valued_trees_checked,
        "max_size_reached": stats.max_size_reached,
    }


def mismatch(got: dict[str, Any], expected: dict[str, Any]) -> Optional[str]:
    diff = {k: (got.get(k), expected[k]) for k in TOTALS if got.get(k) != expected[k]}
    return None if not diff else f"got != expected: {diff}"


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    def check(self, label: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {problem}")


def run_rounds(
    seconds: float, trace: bool, one_round: Callable[[bool], None], min_rounds: int
) -> None:
    """Rounds until ``seconds`` have passed (at least ``min_rounds`` of
    each kind).  Traced runs alternate traced and untraced rounds,
    starting traced, so both see the same drift."""
    start = perf_counter()
    done = {False: 0, True: 0}
    while True:
        traced = trace and done[True] <= done[False]
        one_round(traced)
        done[traced] += 1
        enough = done[False] >= min_rounds and (not trace or done[True] >= min_rounds)
        if enough and perf_counter() - start >= seconds:
            return


def self_peak_rss_mb() -> float:
    """Peak RSS of this process alone: the in-process workloads run the
    whole program here, and set-up subprocesses never run beside it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TreePeak:
    """Peak RSS of a process and its descendants, read from ``/proc``
    every ``RSS_SAMPLE_SECONDS`` on a thread: the sum, over every
    process seen, of that process's own peak (``VmHWM``).  The CLI and
    its pool workers live side by side for the whole search, so this is
    the peak of the tree that runs at the same time."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @staticmethod
    def _children(pid: int) -> list[int]:
        kids: list[int] = []
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                kids.extend(int(x) for x in handle.read().split())
        return kids

    @staticmethod
    def _hwm_kb(pid: int) -> Optional[int]:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return None  # a zombie has no memory left to report

    def sample(self) -> None:
        todo = [self.pid]
        while todo:
            pid = todo.pop()
            try:
                hwm = self._hwm_kb(pid)
                todo.extend(self._children(pid))
            except (OSError, ValueError):
                continue  # exited between listing and reading
            if hwm is not None and hwm > self.peak_kb.get(pid, 0):
                self.peak_kb[pid] = hwm

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(RSS_SAMPLE_SECONDS):
                return

    def stop(self) -> float:
        """Stop sampling; the tree's peak in MB."""
        self._stop.set()
        self._thread.join()
        return sum(self.peak_kb.values()) / 1024.0


def spawn(
    argv: list[str], cwd: Path, tree_peaks: Optional[list[float]] = None
) -> tuple[float, subprocess.CompletedProcess]:
    """Run one program process; returns its spawn-to-exit wall time.
    With ``tree_peaks``, appends the peak RSS of its process tree."""
    t0 = perf_counter()
    with subprocess.Popen(
        argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    ) as popen:
        sampler = TreePeak(popen.pid) if tree_peaks is not None else None
        try:
            stdout, stderr = popen.communicate(timeout=SUBPROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            popen.kill()
            popen.communicate()
            raise
        finally:
            wall = perf_counter() - t0
            if sampler is not None:
                peak = sampler.stop()
    if tree_peaks is not None:
        tree_peaks.append(peak)
    return wall, subprocess.CompletedProcess(argv, popen.returncode, stdout, stderr)


# -- per-layer report ------------------------------------------------------------

def listed_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric ``BENCHMARK.json`` lists in
    ``section`` (``end_to_end`` or ``per_layer``); a run must report
    exactly these."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


LAYER_TIMES = {
    "dtd.enumerate.s": "dtd.enumerate",
    "trees.values.s": "trees.values",
    "ql.compile.s": "ql.compile",
    "ql.bind.s": "ql.bind",
    "ql.evaluate.s": "ql.evaluate",
    "dtd.validate.s": "dtd.validate",
    "ql.reference_eval.s": "ql.reference_eval",
    "typecheck.loop.s": "typecheck.loop",
    "runtime.supervise.s": "runtime.supervise",
    "runtime.pool.start_s": "runtime.pool.start",
    "service.admit.s": "service.admit",
    "service.submit.s": "service.submit",
    "service.start_slice.s": "service.start_slice",
    "service.slice.s": "service.slice",
    "service.journal.s": "service.journal",
    "obs.events.publish.s": "obs.events.publish",
}
LAYER_CALLS = {
    "dtd.enumerate.trees": "dtd.enumerate",
    "ql.bind.calls": "ql.bind",
    "ql.evaluate.calls": "ql.evaluate",
    "dtd.validate.calls": "dtd.validate",
    "runtime.pool.ranges": "runtime.pool.dispatch",
    "service.journal.flushes": "service.journal",
    "service.slices": "service.slice",
    "runtime.plan.trees": "runtime.plan.walk",
}
DURABLE = ("runtime.durable.checkpoint", "runtime.durable.document")
HTTP = ("service.http.read", "service.http.render")


class LayerSum:
    """Per-layer totals added up over traced rounds (and processes)."""

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}
        self.main_self_s = 0.0
        self.wall_s = 0.0
        self.rounds = 0
        self.busy_s = 0.0
        self.supervise_wall = 0.0
        self.workers = 0
        self.trees_checked = 0
        self.cli_overhead_s = 0.0
        self.submits = 0
        self.cache_hits = 0
        self.queue_waits: list[float] = []
        self.preemptions = 0

    def add_totals(self, totals: dict[str, list[float]]) -> None:
        for name, (secs, calls) in totals.items():
            rec = self.totals.setdefault(name, [0.0, 0])
            rec[0] += secs
            rec[1] += calls

    def add_snapshot(self, snap: dict[str, Any], main: bool) -> None:
        self.add_totals(snap["totals"])
        self.busy_s += snap["busy_s"]
        self.supervise_wall += snap["supervise_wall"]
        self.submits += snap["submits"]
        self.cache_hits += snap["cache_hits"]
        self.queue_waits.extend(snap["queue_waits"])
        if main:
            self.main_self_s += sum(secs for secs, _ in snap["main_totals"].values())

    def s(self, name: str) -> float:
        return self.totals.get(name, [0.0, 0])[0]

    def n(self, name: str) -> int:
        return int(self.totals.get(name, [0.0, 0])[1])

    def report(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric; a layer the workload never entered
        reads 0 because nothing was booked to it."""
        r = max(1, self.rounds)
        out: dict[str, tuple[float, str]] = {}
        for metric, layer in LAYER_TIMES.items():
            out[metric] = (self.s(layer) / r, "s")
        for metric, layer in LAYER_CALLS.items():
            out[metric] = (self.n(layer) / r, "count")
        # The plan's own time includes its pricing walk over the stream.
        out["runtime.plan.s"] = ((self.s("runtime.plan") + self.s("runtime.plan.walk")) / r, "s")
        out["runtime.durable.s"] = (sum(self.s(x) for x in DURABLE) / r, "s")
        out["runtime.durable.writes"] = (self.n("runtime.durable.document") / r, "count")
        out["service.http.s"] = (sum(self.s(x) for x in HTTP) / r, "s")
        # Search enumerations only: the plan walk is booked apart.
        enumerated = self.n("dtd.enumerate")
        replay = (enumerated - self.trees_checked) / enumerated if enumerated else 0.0
        out["runtime.replay_frac"] = (replay, "ratio")
        capacity = self.workers * self.supervise_wall
        out["runtime.pool.busy_frac"] = (self.busy_s / capacity if capacity else 0.0, "ratio")
        out["cli.overhead_s"] = (self.cli_overhead_s / r, "s")
        residual = self.wall_s - self.main_self_s - self.cli_overhead_s
        out["trace.residual_s"] = (residual / r, "s")
        out["trace.residual_frac"] = (residual / self.wall_s if self.wall_s else 0.0, "ratio")
        out["service.preemptions"] = (self.preemptions / r, "count")
        out["service.cache.hit_frac"] = (
            self.cache_hits / self.submits if self.submits else 0.0, "ratio"
        )
        out["service.queue_wait_ms.p50"] = (median(self.queue_waits) * 1000.0, "ms")
        return out


def finish_trace(
    out: Outcome, layers: LayerSum, plain: list[float], traced: list[float],
    lower_is_better: bool, samples: Optional["ServiceSamples"] = None,
) -> None:
    """Per-layer metrics plus the tracing overhead: the traced median
    against the untraced one, as a fraction of the untraced cost.  The
    service latencies come from the untraced rounds' ``samples``."""
    out.metrics.update(layers.report())
    out.metrics.update(service_latency_metrics(samples or ServiceSamples()))
    if lower_is_better:
        overhead = median(traced) / median(plain) - 1.0
    else:
        overhead = median(plain) / median(traced) - 1.0
    out.metrics["trace.overhead_frac"] = (overhead, "ratio")
    out.details["traced_rounds"] = layers.rounds
    out.details["untraced_rounds"] = len(plain)


# -- values-bound ----------------------------------------------------------------

VALUES_SETUP = """
import json, sys
from repro.dtd import parse_dtd
from repro.ql.compile import compiled_query_for
from repro.ql.serde import query_from_dict
query = query_from_dict(json.loads(sys.argv[1]))
tau1, tau2 = parse_dtd(sys.argv[2]), parse_dtd(sys.argv[3])
compiled_query_for(query, tau1.alphabet)
"""


def values_bound(seed: int, seconds: float, trace: bool, work: Path, out: Outcome) -> None:
    expected = load_answers()["values-bound"]
    qdict = inputs.values_query(seed)
    setup: list[float] = []

    def setup_once() -> None:
        wall, proc = spawn(
            [sys.executable, "-c", VALUES_SETUP, json.dumps(qdict),
             inputs.VALUES_INPUT_DTD, inputs.VALUES_OUTPUT_DTD],
            work,
        )
        out.check("setup", None if proc.returncode == 0 else proc.stderr[-500:])
        setup.append(wall)

    from repro import typecheck
    from repro.dtd import parse_dtd
    from repro.ql.serde import query_from_dict
    from repro.typecheck.search import SearchBudget

    query = query_from_dict(qdict)
    tau1 = parse_dtd(inputs.VALUES_INPUT_DTD)
    tau2 = parse_dtd(inputs.VALUES_OUTPUT_DTD)
    tracer = Tracer() if trace else None
    layers = LayerSum()
    plain: list[float] = []
    traced: list[float] = []
    algorithms: set[str] = set()

    def one_round(traced_round: bool) -> None:
        if not trace:
            setup_once()
        if traced_round:
            tracer.install()
        try:
            t0 = perf_counter()
            result = typecheck(query, tau1, tau2, budget=SearchBudget(max_size=inputs.VALUES_MAX_SIZE))
            wall = perf_counter() - t0
        finally:
            if traced_round:
                tracer.uninstall()
        got = totals_of(result)
        algorithms.add(result.algorithm)
        out.check("verdict", mismatch(got, expected))
        (traced if traced_round else plain).append(wall)
        if traced_round:
            layers.rounds += 1
            layers.wall_s += wall
            layers.trees_checked += got["label_trees_checked"]

    run_rounds(seconds, trace, one_round, min_rounds=3)
    while not trace and len(setup) < SETUP_REPS:
        setup_once()
    out.details["algorithm"] = sorted(algorithms)
    out.details["setup_s"] = setup
    out.details["verdict_s"] = plain
    if trace:
        layers.add_snapshot(tracer.snapshot(), main=True)
        finish_trace(out, layers, plain, traced, lower_is_better=True)
        return
    out.metrics["verdict_s"] = (median(plain), "s")
    out.metrics["setup_s"] = (median(setup), "s")
    out.metrics["jobs_per_s"] = (len(plain) / sum(plain), "1/s")
    out.metrics["peak_rss_mb"] = (self_peak_rss_mb(), "MB")


# -- structure-sharded -----------------------------------------------------------

SUMMARY = re.compile(
    r"\[(?P<algorithm>[\w.-]+)\] verdict: (?P<verdict>\w+)\n"
    r"\s+searched (?P<valued>\d+) valued inputs over (?P<labels>\d+) label trees "
    r"\(sizes <= (?P<size>\d+)\)"
)


def parse_summary(stdout: str) -> Optional[dict[str, Any]]:
    m = SUMMARY.search(stdout)
    if m is None:
        return None
    return {
        "algorithm": m["algorithm"],
        "verdict": m["verdict"],
        "label_trees_checked": int(m["labels"]),
        "valued_trees_checked": int(m["valued"]),
        "max_size_reached": int(m["size"]),
    }


def cli_check(proc: subprocess.CompletedProcess, expected: dict[str, Any]) -> Optional[str]:
    if proc.returncode not in (0, 1):
        return f"exit {proc.returncode}: {proc.stderr[-500:]}"
    got = parse_summary(proc.stdout)
    if got is None:
        return f"no summary in output: {proc.stdout[-500:]}"
    return mismatch(got, expected)


def structure_sharded(seed: int, seconds: float, trace: bool, work: Path, out: Outcome) -> None:
    answers = load_answers()
    query, input_dtd, output_dtd = inputs.structure_problem(seed)
    counter = iter(range(1 << 30))

    def argv(max_size: int, traced_dump: Optional[Path] = None) -> list[str]:
        ckpt = work / f"run-{next(counter)}.ckpt"
        args = [
            "typecheck", "--query", json.dumps(query),
            "--input-dtd", input_dtd, "--output-dtd", output_dtd,
            "--max-size", str(max_size), "--workers", str(inputs.STRUCTURE_WORKERS),
            "--checkpoint", str(ckpt),
        ]
        if traced_dump is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(traced_dump), *args]

    setup: list[float] = []

    def setup_once() -> None:
        wall, proc = spawn(argv(inputs.STRUCTURE_SETUP_MAX_SIZE), work)
        out.check("setup", cli_check(proc, answers["structure-sharded@setup"]))
        setup.append(wall)

    expected = answers["structure-sharded"]
    layers = LayerSum()
    layers.workers = inputs.STRUCTURE_WORKERS
    plain: list[float] = []
    traced: list[float] = []
    tree_peaks: list[float] = []

    def one_round(traced_round: bool) -> None:
        if not trace:
            setup_once()
        dump = None
        if traced_round:
            dump = work / f"dump-{layers.rounds}"
            dump.mkdir()
        wall, proc = spawn(
            argv(inputs.STRUCTURE_MAX_SIZE, dump), work,
            tree_peaks=None if traced_round else tree_peaks,
        )
        problem = cli_check(proc, expected)
        out.check("verdict", problem)
        (traced if traced_round else plain).append(wall)
        if traced_round and problem is None:
            main = json.loads((dump / "main.json").read_text())
            layers.add_snapshot(main, main=True)
            for path in dump.glob("worker-*.json"):
                layers.add_snapshot(json.loads(path.read_text()), main=False)
            layers.rounds += 1
            layers.wall_s += wall
            layers.cli_overhead_s += wall - main["front_walls"][-1]
            layers.trees_checked += expected["label_trees_checked"]

    run_rounds(seconds, trace, one_round, min_rounds=2)
    while not trace and len(setup) < SETUP_REPS:
        setup_once()
    out.details["setup_s"] = setup
    out.details["verdict_s"] = plain
    out.details["tree_peak_rss_mb"] = tree_peaks
    if trace:
        finish_trace(out, layers, plain, traced, lower_is_better=True)
        return
    out.metrics["verdict_s"] = (median(plain), "s")
    out.metrics["setup_s"] = (median(setup), "s")
    out.metrics["jobs_per_s"] = (len(plain) / sum(plain), "1/s")
    out.metrics["peak_rss_mb"] = (max(tree_peaks), "MB")


# -- service-mixed ---------------------------------------------------------------


async def http_call(port: int, method: str, path: str, body: Any = None) -> tuple[int, Any]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode() + data
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload)


class EventStream:
    """The ``GET /events`` firehose: terminal job events, in arrival order."""

    def __init__(self) -> None:
        self.terminal: dict[str, tuple[str, float]] = {}
        self.changed = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self, port: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        self._writer = writer
        writer.write(b"GET /events HTTP/1.1\r\nHost: bench\r\n\r\n")
        await writer.drain()
        status = await reader.readline()
        if b" 200 " not in status:
            raise RuntimeError(f"/events refused: {status!r}")
        while (await reader.readline()).strip():
            pass  # response headers
        frame = await self._frame(reader)
        if frame.get("event") != "hello":
            raise RuntimeError(f"/events did not start with hello: {frame}")
        self._task = asyncio.get_running_loop().create_task(self._pump(reader))

    @staticmethod
    async def _frame(reader: asyncio.StreamReader) -> dict[str, str]:
        frame: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                return frame
            text = line.decode().rstrip("\n")
            if not text:
                if frame:
                    return frame
                continue
            if text.startswith(":"):
                continue
            key, _, value = text.partition(": ")
            frame[key] = value

    async def _pump(self, reader: asyncio.StreamReader) -> None:
        while True:
            frame = await self._frame(reader)
            if not frame:
                return
            if frame.get("event") in ("job_done", "job_failed", "job_cancelled"):
                event = json.loads(frame["data"])
                self.terminal[event["job_id"]] = (event["type"], perf_counter())
                self.changed.set()

    async def wait(self, predicate: Callable[[], bool], timeout: float = 60.0) -> None:
        deadline = perf_counter() + timeout
        while not predicate():
            self.changed.clear()
            if predicate():
                return
            remaining = deadline - perf_counter()
            if remaining <= 0 or (self._task is not None and self._task.done()):
                raise TimeoutError("no terminal event arrived")
            try:
                await asyncio.wait_for(self.changed.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        if self._task is not None:
            await self._task


@dataclass
class ServiceSamples:
    setup_s: list[float] = field(default_factory=list)
    job_ms: list[float] = field(default_factory=list)
    submit_ms: list[float] = field(default_factory=list)
    cache_hit_ms: list[float] = field(default_factory=list)
    jobs_per_s: list[float] = field(default_factory=list)
    medium_ms: list[float] = field(default_factory=list)
    # Submissions answered per kind, and fresh jobs whose verdict is FAIL.
    kinds: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(("cold", "hot", "medium", "fails"), 0)
    )


async def service_round(
    ops: list[inputs.Op], answers: dict[str, Any], data_dir: Path,
    out: Outcome, samples: ServiceSamples, telemetry: Any,
) -> tuple[float, int]:
    """One batch against a fresh server; returns the batch wall time and
    the label trees its jobs checked."""
    from repro.service import JobServer, ServerConfig

    t0 = perf_counter()
    server = JobServer(
        ServerConfig(
            data_dir=str(data_dir), port=0, workers=SERVICE_SLICE_THREADS,
            slice_seconds=SERVICE_SLICE_SECONDS,
        ),
        telemetry=telemetry,
    )
    port = await server.start()
    samples.setup_s.append(perf_counter() - t0)
    events = EventStream()
    try:
        await events.open(port)
        job_of: dict[int, str] = {}
        sent_at: dict[str, float] = {}
        batch_start = perf_counter()
        for index, op in enumerate(ops):
            if op.kind == "hot":
                ref_job = job_of.get(op.ref)
                if ref_job is None:
                    out.check("hot", "repeated job was never accepted")
                    continue
                await events.wait(lambda: ref_job in events.terminal)
            else:
                await events.wait(
                    lambda: sum(1 for j in sent_at if j not in events.terminal)
                    < SERVICE_OUTSTANDING
                )
            t_send = perf_counter()
            status, body = await http_call(port, "POST", "/jobs", op.spec.submission())
            dt_ms = (perf_counter() - t_send) * 1000.0
            if op.kind == "hot":
                ok = status == 200 and body.get("cache") == "hit"
                if ok:
                    samples.cache_hit_ms.append(dt_ms)
                problem = (
                    f"expected a cache hit, got {status} {body}" if not ok
                    else mismatch(body["result"], answers[op.spec.key])
                )
                out.check("hot", problem)
                samples.kinds["hot"] += 1
                continue
            if status != 202 or body.get("deduplicated"):
                out.check(op.kind, f"submit answered {status} {body}")
                continue
            if op.kind == "cold":
                samples.submit_ms.append(dt_ms)
            job_of[index] = body["id"]
            sent_at[body["id"]] = t_send
        await events.wait(lambda: all(j in events.terminal for j in sent_at))
        wall = perf_counter() - batch_start
        samples.jobs_per_s.append(len(ops) / wall)
        _, listing = await http_call(port, "GET", "/jobs")
        records = {r["id"]: r for r in listing["jobs"]}
        trees_checked = 0
        for index, job_id in job_of.items():
            op = ops[index]
            record = records.get(job_id, {})
            if record.get("state") != "done":
                out.check(op.kind, f"job {job_id} ended {record.get('state')}: {record.get('error')}")
                continue
            out.check(op.kind, mismatch(record["result"], answers[op.spec.key]))
            samples.kinds[op.kind] += 1
            samples.kinds["fails"] += record["result"]["verdict"] == "fails"
            trees_checked += record["result"]["label_trees_checked"]
            done_ms = (events.terminal[job_id][1] - sent_at[job_id]) * 1000.0
            (samples.job_ms if op.kind == "cold" else samples.medium_ms).append(done_ms)
    finally:
        # Drain first: it ends the stream from the server side, so the
        # reader task sees a clean EOF.
        await server.stop()
        await events.close()
    return wall, trees_checked


def service_mixed(seed: int, seconds: float, trace: bool, work: Path, out: Outcome) -> None:
    from repro.obs import Telemetry

    answers = load_answers()["service-mixed"]
    tracer = Tracer() if trace else None
    layers = LayerSum()
    samples = ServiceSamples()
    traced_samples = ServiceSamples()
    rounds = iter(range(1 << 30))

    def one_round(traced_round: bool) -> None:
        index = next(rounds)
        data_dir = work / f"service-{index}"
        telemetry = Telemetry()
        if traced_round:
            tracer.install()
        try:
            wall, trees_checked = asyncio.run(
                service_round(
                    inputs.service_round(seed, index), answers, data_dir, out,
                    traced_samples if traced_round else samples, telemetry,
                )
            )
        finally:
            if traced_round:
                tracer.uninstall()
        shutil.rmtree(data_dir, ignore_errors=True)
        if traced_round:
            layers.rounds += 1
            layers.wall_s += wall
            layers.trees_checked += trees_checked
            layers.preemptions += telemetry.counters.get("service.preemptions", 0)

    run_rounds(seconds, trace, one_round, min_rounds=3)
    out.details["rounds"] = len(samples.jobs_per_s)
    out.details["samples"] = {
        "cold_jobs": len(samples.job_ms),
        "medium_jobs": len(samples.medium_ms),
        "cache_hits": len(samples.cache_hit_ms),
    }
    out.details["medium_job_ms.p50"] = median(samples.medium_ms)
    # The mix is chosen in inputs.py, not taken from observed traffic;
    # these are the shares this run actually submitted.
    kinds = samples.kinds
    answered = kinds["cold"] + kinds["hot"] + kinds["medium"]
    fresh = kinds["cold"] + kinds["medium"]
    out.details["mix"] = {
        "cold": kinds["cold"] / max(1, answered),
        "hot": kinds["hot"] / max(1, answered),
        "medium": kinds["medium"] / max(1, answered),
        "fails_of_fresh": kinds["fails"] / max(1, fresh),
    }
    if trace:
        layers.add_snapshot(tracer.snapshot(), main=True)
        finish_trace(
            out, layers, samples.jobs_per_s, traced_samples.jobs_per_s,
            lower_is_better=False, samples=samples,
        )
        return
    out.metrics["verdict_s"] = (median(samples.job_ms) / 1000.0, "s")
    out.metrics["setup_s"] = (median(samples.setup_s), "s")
    out.metrics["jobs_per_s"] = (median(samples.jobs_per_s), "1/s")
    out.metrics["peak_rss_mb"] = (self_peak_rss_mb(), "MB")
    out.details["service_latencies"] = {
        k: v for k, (v, _) in service_latency_metrics(samples).items()
    }


def service_latency_metrics(samples: ServiceSamples) -> dict[str, tuple[float, str]]:
    """Cold and hot submissions timed apart: mixed, they form two modes
    and the median jumps between them.  The p90 reads 0 unless at least
    ten samples lie beyond it."""
    jobs = samples.job_ms
    beyond = len(jobs) - int(0.9 * len(jobs)) - 1
    return {
        "service.submit_ms.p50": (median(samples.submit_ms), "ms"),
        "service.cache_hit_ms.p50": (median(samples.cache_hit_ms), "ms"),
        "service.job_ms.p90": (percentile(jobs, 0.9) if beyond >= 10 else 0.0, "ms"),
    }


WORKLOADS: dict[str, Callable[[int, float, bool, Path, Outcome], None]] = {
    "values-bound": values_bound,
    "structure-sharded": structure_sharded,
    "service-mixed": service_mixed,
}
