"""Chaos matrix for the job service: kill the server process at every
scheduler state transition, restart it, and assert the resumed job
reaches the **identical verdict and instance totals** as an
uninterrupted reference run — with no job lost and none duplicated.

Crash points are deterministic (``--inject-service-fault POINT:N:crash``
calls ``os._exit`` at the N-th occurrence of that transition), so the
matrix does not depend on timing the kill.  The search sequence is
deterministic and the per-job checkpoint is an exact cursor into it,
which makes the verdict/totals assertions exact, not approximate.

Also here: the degradation scenarios — worker crash storm (repeated
kill/restart cycles still converge), queue overflow (429 + honest
``Retry-After``), slow clients (408 without wedging the accept loop),
a torn newest journal generation (fallback + quarantine), and SIGTERM
drain (checkpoint, exit 3, resume elsewhere).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.ql.ast import Condition, Const, ConstructNode, Edge, Query, Where
from repro.ql.serde import query_to_dict
from repro.runtime.checkpoint import load_checkpoint
from repro.runtime.faults import IO_CRASH_EXIT
from repro.service import EXIT_DRAINED
from repro.service.scheduler import parse_submission
from repro.typecheck import typecheck

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = str(REPO_ROOT / "src")

# Big enough that the search takes several 50ms slices (so every crash
# point is reached before completion), small enough that a full
# kill-restart cycle stays around a second.  The verdict memo answers
# most of these inputs without evaluating them, so the instance budget is
# sized for it: about 0.3s of search on a 2-core box.
WORKLOAD = {
    "query": query_to_dict(
        Query(
            where=Where.of(
                "root", [Edge.of(None, "X", "a")], [Condition("X", "=", Const(1))]
            ),
            construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
        )
    ),
    "input_dtd": "root -> a*",
    "output_dtd": "out -> item^>=0",
    "output_unordered": True,
    "max_size": 10,
    "max_instances": 60_000,
}

SERVER_ARGS = ["--slice-seconds", "0.05", "--checkpoint-interval", "300"]


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted in-process run: the ground truth every killed-and-
    restarted job must match exactly."""
    sub = parse_submission(WORKLOAD)
    return typecheck(sub.query, sub.tau1, sub.tau2, budget=sub.budget)


class ServerProc:
    def __init__(self, data_dir, *extra_args, tmp_path=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        log_dir = Path(tmp_path) if tmp_path is not None else Path(data_dir).parent
        self.log_path = log_dir / f"server-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(data_dir), "--port", "0", *SERVER_ARGS,
                *extra_args,
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.port = self._await_announce()

    def _await_announce(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"server died before announcing (exit {self.proc.returncode}):\n"
                    f"{self.log_path.read_text()}"
                )
            time.sleep(0.01)
        raise AssertionError(f"no announce line:\n{self.log_path.read_text()}")

    def log(self):
        return self.log_path.read_text()

    def wait(self, timeout=60):
        code = self.proc.wait(timeout=timeout)
        self._log.close()
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self._log.close()


@pytest.fixture
def spawn(tmp_path):
    procs = []

    def _spawn(*extra_args, data="data"):
        server = ServerProc(tmp_path / data, *extra_args, tmp_path=tmp_path)
        procs.append(server)
        return server

    yield _spawn
    for server in procs:
        server.kill()


def http(port, method, path, body=None, timeout=15):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read() or b"{}"), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read() or b"{}"), dict(err.headers)


def wait_terminal(port, job_id, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, job, _ = http(port, "GET", f"/jobs/{job_id}")
        assert status == 200, job
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {job['state']} after {timeout}s")


def assert_matches_reference(job, reference):
    assert job["state"] == "done", job
    result = job["result"]
    assert result["verdict"] == reference.verdict.value
    assert result["valued_trees_checked"] == reference.stats.valued_trees_checked
    assert result["label_trees_checked"] == reference.stats.label_trees_checked


# Every scheduler state transition gets a kill:
#   slice:1     — inside the second engine slice (worker thread dies);
#   preempt:0   — at the first preemption transition;
#   journal:1   — at the RUNNING journal flush (job acknowledged, not started);
#   journal:2   — at the first post-slice journal flush;
#   complete:0  — at the completion transition (result computed, not recorded).
CRASH_POINTS = ["slice:1", "preempt:0", "journal:1", "journal:2", "complete:0"]


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_kill_restart_reaches_identical_verdict(spawn, point, reference):
    crashed = spawn("--inject-service-fault", f"{point}:crash")
    status, body, _ = http(crashed.port, "POST", "/jobs", WORKLOAD)
    assert status == 202, body
    job_id = body["id"]

    assert crashed.wait() == IO_CRASH_EXIT

    revived = spawn()
    job = wait_terminal(revived.port, job_id)
    assert_matches_reference(job, reference)

    # No lost jobs, no duplicated jobs: exactly the one we submitted.
    status, listing, _ = http(revived.port, "GET", "/jobs")
    assert [j["id"] for j in listing["jobs"]] == [job_id]

    revived.proc.send_signal(signal.SIGTERM)
    assert revived.wait() == EXIT_DRAINED


def test_worker_crash_storm_converges(spawn, reference, tmp_path):
    """Three consecutive servers each die at their first preemption;
    every incarnation still makes checkpointed progress, and a fourth,
    healthy server finishes the job exactly."""
    status, body, _ = None, None, None
    job_id = None
    checked = 0
    for round_no in range(3):
        server = spawn("--inject-service-fault", "preempt:0:crash")
        if job_id is None:
            status, body, _ = http(server.port, "POST", "/jobs", WORKLOAD)
            assert status == 202, body
            job_id = body["id"]
        assert server.wait() == IO_CRASH_EXIT, f"round {round_no}: {server.log()}"
        # The storm only means something while the job outlasts a slice
        # in every incarnation: each one must leave a checkpoint further
        # along, and none may have finished the search.  A faster engine
        # breaks this before it breaks anything else — grow WORKLOAD.
        checkpoint = load_checkpoint(str(tmp_path / "data" / f"{job_id}.ckpt"))
        now = int(checkpoint.stats["valued_trees_checked"])
        assert checked < now < reference.stats.valued_trees_checked, (
            f"round {round_no}: checkpoint at {now} instances after {checked}, of "
            f"{reference.stats.valued_trees_checked}; WORKLOAD no longer spans "
            "several slices per incarnation"
        )
        checked = now

    healthy = spawn()
    job = wait_terminal(healthy.port, job_id)
    assert_matches_reference(job, reference)
    status, listing, _ = http(healthy.port, "GET", "/jobs")
    assert [j["id"] for j in listing["jobs"]] == [job_id]


def test_queue_overflow_sheds_with_retry_after(spawn):
    server = spawn("--max-queue", "1", "--workers", "1")
    status, body, _ = http(server.port, "POST", "/jobs", WORKLOAD)
    assert status == 202, body
    small = dict(WORKLOAD, max_size=4, max_instances=99)
    status, shed, headers = http(server.port, "POST", "/jobs", small)
    assert status == 429
    assert "queue is full" in shed["error"]
    assert float(headers["Retry-After"]) >= 1.0


def test_slow_client_gets_408_server_stays_up(spawn):
    server = spawn("--read-timeout", "0.2")
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Le")  # ... and stall
        sock.settimeout(10)
        raw = sock.recv(4096)
    assert b"408" in raw.split(b"\r\n", 1)[0]
    status, health, _ = http(server.port, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"


def test_torn_journal_generation_falls_back(spawn, tmp_path, reference):
    first = spawn()
    status, body, _ = http(first.port, "POST", "/jobs", WORKLOAD)
    assert status == 202
    job_id = body["id"]
    job = wait_terminal(first.port, job_id)
    assert_matches_reference(job, reference)
    first.proc.send_signal(signal.SIGTERM)
    assert first.wait() == EXIT_DRAINED

    # Tear the newest journal generation; the rotated one must serve.
    journal = tmp_path / "data" / "journal.json"
    journal.write_bytes(b"\x00torn write\x00" + journal.read_bytes()[:40])

    revived = spawn()
    job = wait_terminal(revived.port, job_id)
    assert_matches_reference(job, reference)
    corrupt = list((tmp_path / "data").glob("journal.json*.corrupt*"))
    assert corrupt, "torn generation should be quarantined, not deleted"


def test_sigterm_drains_and_resumes_exactly(spawn, reference):
    server = spawn()
    status, body, _ = http(server.port, "POST", "/jobs", WORKLOAD)
    assert status == 202
    job_id = body["id"]
    time.sleep(0.2)  # let at least one slice start
    server.proc.send_signal(signal.SIGTERM)
    assert server.wait() == EXIT_DRAINED
    assert "drained;" in server.log()

    revived = spawn()
    job = wait_terminal(revived.port, job_id)
    assert_matches_reference(job, reference)


# ---------------------------------------------------------------------------
# The observability plane under chaos: a stream cut off by SIGKILL and
# re-opened against the restarted server must not duplicate terminal
# events — the journal recovery replays finished jobs silently, so a
# watcher that already saw "done" never sees it again.


class EventStream:
    """A blocking SSE client over ``http.client`` (the same transport
    ``repro top`` uses); collects decoded bus events."""

    def __init__(self, port, last_event_id=None, timeout=30):
        import http.client

        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        headers = {"Accept": "text/event-stream"}
        if last_event_id is not None:
            headers["Last-Event-ID"] = str(last_event_id)
        self.conn.request("GET", "/events", headers=headers)
        self.resp = self.conn.getresponse()
        assert self.resp.status == 200, self.resp.status
        from repro.service.top import iter_sse

        self.frames = iter_sse(self.resp)
        self.events = []

    def read_until(self, pred, timeout=60):
        deadline = time.monotonic() + timeout
        for frame in self.frames:
            if frame.get("event") == "hello":
                continue
            if frame["data"]:
                event = json.loads(frame["data"])
                self.events.append(event)
                if pred(event):
                    return event
            if time.monotonic() > deadline:
                break
        raise AssertionError(f"stream ended before match; saw {self.events}")

    def drain_to_eof(self):
        """Consume what remains (after a server kill: until reset/EOF)."""
        import http.client

        try:
            for frame in self.frames:
                if frame["data"] and frame.get("event") != "hello":
                    self.events.append(json.loads(frame["data"]))
        except (OSError, http.client.HTTPException):
            pass

    def close(self):
        try:
            self.conn.close()
        except OSError:
            pass


def _terminal_counts(*event_lists):
    counts = {}
    for events in event_lists:
        for event in events:
            if event.get("type") in ("job_done", "job_failed", "job_cancelled"):
                key = (event.get("job_id"), event["type"])
                counts[key] = counts.get(key, 0) + 1
    return counts


def test_sigkill_midstream_restarted_stream_resumes_without_duplicate_terminals(
    spawn, reference
):
    server = spawn()
    stream = EventStream(server.port)

    # A quick job reaches its terminal event while the stream watches.
    quick = dict(WORKLOAD, max_size=5, max_instances=5_000)
    status, body, _ = http(server.port, "POST", "/jobs", quick)
    assert status == 202
    quick_id = body["id"]
    done = stream.read_until(
        lambda e: e.get("type") == "job_done" and e.get("job_id") == quick_id
    )
    assert done["data"]["verdict"]

    # A long job is mid-flight when the server is SIGKILLed.
    status, body, _ = http(server.port, "POST", "/jobs", WORKLOAD)
    assert status == 202
    long_id = body["id"]
    stream.read_until(
        lambda e: e.get("type") == "job_running" and e.get("job_id") == long_id
    )
    server.proc.kill()
    server.proc.wait(timeout=10)
    stream.drain_to_eof()  # abrupt close, no terminal for the long job
    stream.close()
    assert _terminal_counts(stream.events).get((long_id, "job_done")) is None

    # Restart on the same journal; the re-opened stream sees recovery,
    # then the long job's one and only terminal event — and never a
    # replayed terminal for the job that finished before the kill.
    revived = spawn()
    # Resume from seq 0: the recovery events published before we could
    # reconnect replay from the ring (the restarted bus starts fresh, so
    # the old incarnation's seqs do not carry over).
    resumed = EventStream(revived.port, last_event_id=0)
    recovered = resumed.read_until(lambda e: e.get("type") == "server_recovered")
    assert long_id in recovered["data"]["resumed"]
    resumed.read_until(
        lambda e: e.get("type") == "job_done" and e.get("job_id") == long_id,
        timeout=120,
    )
    resumed.close()

    counts = _terminal_counts(stream.events, resumed.events)
    assert counts[(quick_id, "job_done")] == 1
    assert counts[(long_id, "job_done")] == 1
    assert set(counts) == {(quick_id, "job_done"), (long_id, "job_done")}

    job = wait_terminal(revived.port, long_id)
    assert_matches_reference(job, reference)
