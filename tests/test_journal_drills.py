"""Journal I/O drills: fault the job journal's log append in a real
``repro serve`` process, restart it, and check the job table.

``--inject-io-fault OP:1:MODE`` damages the journal store's second
``write`` or ``fsync`` — a log append while jobs are being submitted
and run.  Crash modes kill the server there; the others are absorbed
(retried, or for ``bitflip`` written silently damaged) and the server
is SIGKILLed once its jobs are done, so the restart replays the log
rather than a drain snapshot.  Either way the restarted server must
hold every job it answered 202 exactly once, each with the verdict and
totals of an uninterrupted in-process run.
"""

import signal
import urllib.error
import urllib.request

import pytest

from repro.runtime.faults import IO_CRASH_EXIT
from repro.service import EXIT_DRAINED
from repro.service.scheduler import parse_submission
from repro.typecheck import typecheck
from tests.test_service_chaos import WORKLOAD, ServerProc, http, wait_terminal

JOBS = [dict(WORKLOAD, max_size=size, max_instances=3000) for size in (5, 6, 7)]
CRASHES = ("crash", "torn-crash")


def counter(port: int, name: str) -> float:
    """One counter from the server's Prometheus scrape (0 when absent)."""
    url = f"http://127.0.0.1:{port}/metrics"
    with urllib.request.urlopen(url, timeout=15) as resp:
        for line in resp.read().decode("utf-8").splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
    return 0.0


@pytest.fixture(scope="module")
def references():
    out = []
    for spec in JOBS:
        sub = parse_submission(spec)
        result = typecheck(sub.query, sub.tau1, sub.tau2, budget=sub.budget)
        out.append(
            (result.verdict.value, result.stats.valued_trees_checked,
             result.stats.label_trees_checked)
        )
    return out


@pytest.fixture
def spawn(tmp_path):
    procs = []

    def _spawn(*extra_args):
        server = ServerProc(tmp_path / "data", *extra_args, tmp_path=tmp_path)
        procs.append(server)
        return server

    yield _spawn
    for server in procs:
        server.kill()


@pytest.mark.parametrize("mode", ["crash", "torn-crash", "torn", "eio", "bitflip"])
@pytest.mark.parametrize("op", ["write", "fsync"])
def test_journal_append_fault_loses_no_acknowledged_job(spawn, references, op, mode):
    faulted = spawn("--inject-io-fault", f"{op}:1:{mode}")
    accepted: dict[str, int] = {}
    for index, spec in enumerate(JOBS):
        try:
            status, body, _ = http(faulted.port, "POST", "/jobs", spec)
        except (urllib.error.URLError, ConnectionError):
            break  # the server died mid-request: not acknowledged
        if status == 202:
            accepted[body["id"]] = index
    if mode in CRASHES:
        assert faulted.wait() == IO_CRASH_EXIT, faulted.log()
    else:
        assert len(accepted) == len(JOBS), faulted.log()
        for job_id in accepted:
            wait_terminal(faulted.port, job_id)
        silent = (op, mode) == ("write", "bitflip")
        retries = counter(faulted.port, "repro_durable_write_retries_total")
        assert retries == (0 if silent else 1), faulted.log()
        faulted.kill()

    revived = spawn()
    status, listing, _ = http(revived.port, "GET", "/jobs")
    ids = [job["id"] for job in listing["jobs"]]
    assert len(ids) == len(set(ids)), ids
    assert set(accepted) <= set(ids), (accepted, ids, revived.log())
    for job_id, index in accepted.items():
        job = wait_terminal(revived.port, job_id)
        assert job["state"] == "done", job
        result = job["result"]
        got = (result["verdict"], result["valued_trees_checked"], result["label_trees_checked"])
        assert got == references[index], job_id
    if (op, mode) == ("write", "bitflip"):
        # The damaged line sits mid-log: quarantined, and superseded by
        # the job's later upserts.
        assert counter(revived.port, "repro_service_journal_quarantined_total") == 1
    revived.proc.send_signal(signal.SIGTERM)
    assert revived.wait() == EXIT_DRAINED
