#!/usr/bin/env python
"""Job-service load benchmark → ``BENCH_service.json``.

What the resilience costs, measured against a live in-process server:

* **submit latency** — POST /jobs round-trip for distinct jobs; every
  accepted submission pays one durable journal flush (one fsync'd
  append to the journal log), so this is the admission price of "no
  lost jobs";
* **throughput** — end-to-end jobs/second for a batch of small
  searches (journal flush per state transition included);
* **cache-hit latency** — repeat submission of an already-decided
  fingerprint; the acceptance gate is p50 under 10 ms (asserted here);
* **recovery** — SIGKILL a server subprocess mid-job, restart it on
  the same data directory: time to listening again and time to the
  resumed job's verdict.

Standalone (the metrics are service-level, not microbenchmarks):

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC_DIR)

SUBMIT_JOBS = 40
CACHE_PROBES = 50
CACHE_HIT_P50_GATE_MS = 10.0

QUERY = {
    "where": {
        "root": "root",
        "edges": [{"from": None, "to": "X", "path": "a"}],
        "conditions": [{"left": "X", "op": "=", "right": {"const": 1}}],
    },
    "construct": {
        "tag": "out",
        "children": [{"tag": "item", "args": ["X"]}],
    },
}


def submission(max_size: int, max_instances: int) -> dict:
    return {
        "query": QUERY,
        "input_dtd": "root -> a*",
        "output_dtd": "out -> item^>=0",
        "output_unordered": True,
        "max_size": max_size,
        "max_instances": max_instances,
    }


def percentiles(samples_s: list[float]) -> dict:
    ordered = sorted(samples_s)

    def pct(p: float) -> float:
        return ordered[min(len(ordered) - 1, int(p * len(ordered)))]

    return {
        "samples": len(ordered),
        "p50_ms": round(pct(0.50) * 1000, 3),
        "p99_ms": round(pct(0.99) * 1000, 3),
        "mean_ms": round(statistics.fmean(ordered) * 1000, 3),
        "max_ms": round(ordered[-1] * 1000, 3),
    }


async def raw_call(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(body).encode() if body is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(data)}\r\n\r\n".encode() + data
    )
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(-1), 60)
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    return status, json.loads(raw.partition(b"\r\n\r\n")[2])


async def inprocess_series(data_dir: str) -> dict:
    from repro.obs import Telemetry
    from repro.service import JobServer, ServerConfig

    server = JobServer(
        ServerConfig(data_dir=data_dir, port=0, slice_seconds=0.5, workers=2),
        telemetry=Telemetry(),
    )
    port = await server.start()

    # Submit latency: distinct fingerprints, each paying a journal flush.
    submit_times, job_ids = [], []
    batch_started = time.perf_counter()
    for i in range(SUBMIT_JOBS):
        payload = submission(4, 100 + i)
        t0 = time.perf_counter()
        status, body = await raw_call(port, "POST", "/jobs", payload)
        submit_times.append(time.perf_counter() - t0)
        assert status == 202, body
        job_ids.append(body["id"])

    # Throughput: batch submit → every job decided.
    pending = set(job_ids)
    while pending:
        await asyncio.sleep(0.02)
        _, listing = await raw_call(port, "GET", "/jobs")
        for job in listing["jobs"]:
            if job["id"] in pending and job["state"] in ("done", "failed"):
                assert job["state"] == "done", job
                pending.discard(job["id"])
    batch_seconds = time.perf_counter() - batch_started

    # Cache-hit latency: an already-decided fingerprint, served from memory.
    hit_times = []
    for _ in range(CACHE_PROBES):
        t0 = time.perf_counter()
        status, body = await raw_call(port, "POST", "/jobs", submission(4, 100))
        hit_times.append(time.perf_counter() - t0)
        assert status == 200 and body.get("cache") == "hit", body

    await server.stop()
    flushes = server.telemetry.counters.get("service.journal_flushes", 0)
    return {
        "submit_latency": percentiles(submit_times),
        "throughput": {
            "jobs": SUBMIT_JOBS,
            "wall_seconds": round(batch_seconds, 3),
            "jobs_per_second": round(SUBMIT_JOBS / batch_seconds, 2),
            "journal_flushes": flushes,
        },
        "cache_hit_latency": percentiles(hit_times),
    }


def recovery_series(workdir: str) -> dict:
    """SIGKILL a server subprocess mid-job; measure the restart."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    data_dir = os.path.join(workdir, "recovery-data")
    payload = submission(10, 12_000)

    def spawn(tag: str):
        log_path = os.path.join(workdir, f"recovery-{tag}.log")
        log = open(log_path, "w")
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", data_dir, "--port", "0",
                "--slice-seconds", "0.05", "--checkpoint-interval", "300",
            ],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(log_path) as handle:
                for line in handle:
                    if "listening on http://" in line:
                        listen_s = time.perf_counter() - spawned_at
                        return proc, int(line.rsplit(":", 1)[1]), listen_s
            if proc.poll() is not None:
                raise AssertionError(f"server died: see {log_path}")
            time.sleep(0.005)
        raise AssertionError("server never announced")

    import urllib.error
    import urllib.request

    def http(port, method, path, body=None):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            method=method,
            data=json.dumps(body).encode() if body is not None else None,
        )
        try:
            with urllib.request.urlopen(request, timeout=15) as resp:
                return resp.status, json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read() or b"{}")

    proc, port, _ = spawn("victim")
    status, body = http(port, "POST", "/jobs", payload)
    assert status == 202, body
    job_id = body["id"]
    while True:
        _, job = http(port, "GET", f"/jobs/{job_id}")
        if job.get("state") == "running":
            break
        time.sleep(0.005)
    proc.kill()
    proc.wait(timeout=30)

    restarted_at = time.perf_counter()
    proc, port, listen_s = spawn("revived")
    while True:
        _, job = http(port, "GET", f"/jobs/{job_id}")
        if job["state"] in ("done", "failed"):
            break
        time.sleep(0.02)
    resume_done_s = time.perf_counter() - restarted_at
    assert job["state"] == "done", job
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=30)
    return {
        "workload": {"max_size": 10, "max_instances": 12_000},
        "restart_to_listening_s": round(listen_s, 3),
        "restart_to_resumed_verdict_s": round(resume_done_s, 3),
        "resumed_verdict": job["result"]["verdict"],
    }


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="bench-service-")
    inproc = asyncio.run(inprocess_series(os.path.join(workdir, "data")))
    recovery = recovery_series(workdir)

    p50 = inproc["cache_hit_latency"]["p50_ms"]
    gate = f"cache-hit p50 {p50:.3f}ms (gate: < {CACHE_HIT_P50_GATE_MS}ms)"
    if p50 >= CACHE_HIT_P50_GATE_MS:
        print(f"FAIL: {gate}", file=sys.stderr)
        return 1

    report = {
        "schema": "repro.bench.service",
        "version": 1,
        "config": {
            "submit_jobs": SUBMIT_JOBS,
            "cache_probes": CACHE_PROBES,
            "cache_hit_p50_gate_ms": CACHE_HIT_P50_GATE_MS,
        },
        **inproc,
        "recovery": recovery,
    }
    out_path = os.path.join(REPO_ROOT, "BENCH_service.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"OK: {gate}; wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
