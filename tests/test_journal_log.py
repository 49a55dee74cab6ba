"""The job journal's append-only log and the one-pass durable envelope.

The oracle throughout is a reload: ``to_dict()`` of the live journal
must equal ``to_dict()`` of a fresh :class:`JobJournal` loaded from the
same directory — whatever mix of snapshot generations, log segments,
torn tails and damaged lines is on disk.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry
from repro.runtime import (
    CancellationToken,
    CheckpointError,
    DurableStore,
    FaultInjector,
    FaultPlan,
    IOFault,
    RuntimeControl,
    SearchCheckpoint,
)
from repro.runtime.durable import (
    _canonical_payload_bytes,
    frame_record,
    scan_frames,
    unwrap_envelope,
    wrap_envelope,
)
from repro.service.admission import AdmissionControl, TenantPolicy
from repro.service.journal import (
    DONE,
    JOURNAL_SCHEMA,
    RUNNING,
    SUBMITTED,
    JobJournal,
    JobRecord,
)
from repro.service.scheduler import (
    JobScheduler,
    SchedulerConfig,
    SliceOutcome,
    parse_submission,
)
from repro.typecheck import typecheck

SCHEMA_TAG = b'"schema":"repro.durable"'


def journal_at(directory, telemetry=None, faults=None, fsync=True) -> JobJournal:
    store = DurableStore(
        os.path.join(str(directory), "journal.json"),
        telemetry=telemetry,
        faults=faults,
        fsync=fsync,
        sleep=lambda s: None,
    )
    return JobJournal(store, telemetry=telemetry)


def reloaded(directory, telemetry=None) -> JobJournal:
    journal = journal_at(directory, telemetry=telemetry)
    journal.load()
    return journal


def add_job(journal: JobJournal, n: int = 0) -> JobRecord:
    record = JobRecord(
        id=journal.new_job_id(),
        tenant="t",
        fingerprint=f"fp-{n}",
        submission={"n": n, "text": "root -> a*"},
        submitted_at=1.0,
    )
    journal.add(record)
    return record


def log_bytes(directory, segment=0) -> bytes:
    name = "journal.log" if segment == 0 else f"journal.log.{segment}"
    path = os.path.join(str(directory), name)
    return open(path, "rb").read() if os.path.exists(path) else b""


def flip(data: bytes, bit: int) -> bytes:
    damaged = bytearray(data)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


# -- one-pass envelope ----------------------------------------------------------


class TestEnvelope:
    def test_one_pass_envelope_is_the_compact_sorted_envelope(self):
        payload = {"b": [1, 2.5, "xé\n"], "a": {"z": None, "y": True}}
        body = _canonical_payload_bytes(payload)
        data = wrap_envelope(payload)
        parsed = json.loads(data)
        assert data == (json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n").encode()
        assert parsed["integrity"]["length"] == len(body)
        assert unwrap_envelope(parsed) == payload

    def test_indented_envelope_from_earlier_builds_still_loads(self, tmp_path):
        journal = journal_at(tmp_path)
        add_job(journal)
        doc = journal.to_dict()
        doc["version"] = 1
        del doc["log_seq"]
        envelope = json.loads(wrap_envelope(doc))
        with open(tmp_path / "journal.json", "w") as handle:
            handle.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
        replay = reloaded(tmp_path)
        assert list(replay.jobs) == ["j000001"]
        assert replay.log_seq == 0


class TestDamagedSchemaTag:
    """A bit flip inside ``"schema":"repro.durable"`` is corruption of
    the newest generation, not a bare legacy document: it is
    quarantined and generation 1 loads."""

    def bits(self, data: bytes) -> range:
        at = data.index(SCHEMA_TAG)
        return range(at * 8, (at + len(SCHEMA_TAG)) * 8)

    def test_journal_snapshot(self, tmp_path):
        journal = journal_at(tmp_path, fsync=False)
        add_job(journal, 1)
        journal.compact()
        older = (tmp_path / "journal.json").read_bytes()
        add_job(journal, 2)
        journal.compact()
        newest = (tmp_path / "journal.json").read_bytes()
        for bit in self.bits(newest):
            case = tmp_path / f"bit{bit}"
            case.mkdir()
            (case / "journal.json.1").write_bytes(older)
            (case / "journal.json").write_bytes(flip(newest, bit))
            replay = reloaded(case)
            assert list(replay.jobs) == ["j000001"], bit
            assert [p for p in os.listdir(case) if ".corrupt" in p], bit

    def test_checkpoint(self, tmp_path):
        def ckpt(n):
            return SearchCheckpoint(
                fingerprint="f" * 16, algorithm="bounded-search",
                labels_consumed=n, values_done=n, stats={}, reason=f"gen {n}",
            )

        older, newest = wrap_envelope(ckpt(1).to_dict()), wrap_envelope(ckpt(2).to_dict())
        for bit in self.bits(newest):
            case = tmp_path / f"bit{bit}"
            case.mkdir()
            (case / "run.ckpt.1").write_bytes(older)
            (case / "run.ckpt").write_bytes(flip(newest, bit))
            store = DurableStore(str(case / "run.ckpt"))
            assert store.load_checkpoint() == ckpt(1), bit
            assert os.path.exists(case / "run.ckpt.corrupt"), bit


# -- framing ----------------------------------------------------------------------


class TestFraming:
    def test_whole_frames_round_trip(self):
        bodies = [b'{"a":1}', b"", b'{"b":"x y"}']
        data = b"".join(frame_record(b) for b in bodies)
        assert [body for body, _, _ in scan_frames(data)] == bodies
        assert scan_frames(data)[-1][2] == len(data)

    def test_torn_tail_is_one_damaged_stretch(self):
        data = frame_record(b'{"a":1}') + frame_record(b'{"b":2}')[:5]
        frames = scan_frames(data)
        assert [body for body, _, _ in frames] == [b'{"a":1}', None]

    def test_damaged_terminator_does_not_join_lines(self):
        first, second = frame_record(b'{"a":1}'), frame_record(b'{"b":2}')
        data = first[:-1] + b"\x0b" + second
        assert [body for body, _, _ in scan_frames(data)] == [b'{"a":1}', b'{"b":2}']

    def test_damaged_line_does_not_swallow_the_next(self):
        first, second = frame_record(b'{"a":1}'), frame_record(b'{"b":2}')
        for bit in range((len(first) - 1) * 8):
            frames = scan_frames(flip(first, bit) + second)
            assert frames[-1][0] == b'{"b":2}', bit
            assert all(body in (None, b'{"a":1}') for body, _, _ in frames[:-1]), bit


# -- the journal log --------------------------------------------------------------


class TestJournalLog:
    def test_flush_appends_one_line_per_named_record(self, tmp_path):
        telemetry = Telemetry()
        journal = journal_at(tmp_path, telemetry=telemetry)
        a, b = add_job(journal, 1), add_job(journal, 2)
        journal.flush()
        a.state = RUNNING
        journal.flush(a)
        lines = [json.loads(body) for body, _, _ in scan_frames(log_bytes(tmp_path))]
        assert [(line["seq"], line["job"]["id"]) for line in lines] == [
            (1, a.id), (2, b.id), (3, a.id),
        ]
        assert lines[-1]["job"]["state"] == RUNNING
        # No snapshot yet: the log alone carries the table.
        assert not os.path.exists(tmp_path / "journal.json")
        assert telemetry.counters.get("durable.writes", 0) == 0
        assert reloaded(tmp_path).to_dict() == journal.to_dict()

    def test_empty_data_dir_start_writes_nothing(self, tmp_path):
        journal = journal_at(tmp_path)
        assert journal.load() is False
        journal.flush()  # nothing named: no write, no lock
        assert os.listdir(tmp_path) == []

    def test_lock_is_taken_at_first_flush_and_held_until_close(self, tmp_path):
        journal = journal_at(tmp_path)
        add_job(journal)
        journal.flush()
        rival = journal_at(tmp_path)
        rival.load()
        with pytest.raises(CheckpointError, match="locked by process"):
            rival.flush(add_job(rival, 9))
        journal.close()
        assert os.path.exists(tmp_path / "journal.json")
        rival.load()
        rival.flush(add_job(rival, 9))
        rival.close()
        assert sorted(reloaded(tmp_path).jobs) == ["j000001", "j000002"]

    def test_close_folds_the_log_into_a_snapshot(self, tmp_path):
        journal = journal_at(tmp_path)
        add_job(journal)
        journal.flush()
        journal.close()
        doc = unwrap_envelope(json.loads((tmp_path / "journal.json").read_bytes()))
        assert doc["schema"] == JOURNAL_SCHEMA and doc["version"] == 2
        assert doc["log_seq"] == 1
        assert log_bytes(tmp_path) == b""
        assert log_bytes(tmp_path, 1) != b""
        assert reloaded(tmp_path).to_dict() == journal.to_dict()

    def test_v1_journal_without_log_still_loads(self, tmp_path):
        journal = journal_at(tmp_path)
        add_job(journal)
        doc = journal.to_dict()
        doc["version"] = 1
        del doc["log_seq"]
        journal.store.save_document(doc)
        replay = reloaded(tmp_path)
        assert list(replay.jobs) == ["j000001"] and replay.log_seq == 0
        # Appending to a v1 journal starts the log at seq 1.
        replay.jobs["j000001"].state = RUNNING
        replay.flush(replay.jobs["j000001"])
        assert reloaded(tmp_path).to_dict() == replay.to_dict()

    def test_transition_bytes_do_not_depend_on_table_size(self, tmp_path):
        appended = {}
        for size in (10, 2000):
            telemetry = Telemetry()
            directory = tmp_path / str(size)
            directory.mkdir()
            journal = journal_at(directory, telemetry=telemetry, fsync=False)
            records = [add_job(journal, n) for n in range(size)]
            journal.compact()
            writes = telemetry.counters["durable.writes"]
            records[0].state = RUNNING
            journal.flush(records[0])
            appended[size] = len(log_bytes(directory))
            # The snapshot was not rewritten for the transition.
            assert telemetry.counters["durable.writes"] == writes
        assert appended[10] == appended[2000] > 0

    def test_compaction_rule_is_log_outgrowing_the_snapshot(self, tmp_path):
        telemetry = Telemetry()
        journal = journal_at(tmp_path, telemetry=telemetry, fsync=False)
        record = add_job(journal)
        record.submission["pad"] = "x" * 4000
        flushes = 0
        while not os.path.exists(tmp_path / "journal.json"):
            record.attempts += 1
            journal.flush(record)
            flushes += 1
        # The 64 KiB floor is reached after about 16 lines of 4 KB.
        assert 10 < flushes < 20
        assert telemetry.counters["durable.writes"] == 1
        assert log_bytes(tmp_path) == b""
        assert reloaded(tmp_path).to_dict() == journal.to_dict()

    def test_mid_log_damage_is_quarantined_and_superseded(self, tmp_path):
        journal = journal_at(tmp_path)
        a, b = add_job(journal, 1), add_job(journal, 2)
        journal.flush()
        a.state = RUNNING
        journal.flush(a)
        data = log_bytes(tmp_path)
        frames = scan_frames(data)
        # Damage the first line (job a's submit): its later upsert wins.
        start, end = frames[0][1], frames[0][2]
        damaged = data[:start + 12] + b"#" + data[start + 13:]
        (tmp_path / "journal.log").write_bytes(damaged)
        telemetry = Telemetry()
        replay = reloaded(tmp_path, telemetry=telemetry)
        assert replay.jobs[a.id].state == RUNNING
        assert replay.jobs[b.id].state == SUBMITTED
        assert telemetry.counters["service.journal_quarantined"] == 1
        assert "damaged journal log line" in replay.quarantined[0]["error"]
        assert replay.log_seq == 3

    @pytest.mark.parametrize("mode", ["torn", "eio", "enospc", "bitflip"])
    @pytest.mark.parametrize("op", ["write", "fsync"])
    def test_failed_append_never_leaves_a_partial_line(self, tmp_path, op, mode):
        faults = FaultInjector(FaultPlan(io_faults=frozenset({IOFault(op, 1, mode)})))
        journal = journal_at(tmp_path, faults=faults)
        records = [add_job(journal, n) for n in range(2)]
        journal.flush()
        records[1].state = RUNNING
        journal.flush(records[1])  # the faulted operation
        records[0].state = RUNNING
        journal.flush(records[0])
        assert faults.io_faults_fired == 1
        frames = scan_frames(log_bytes(tmp_path))
        if mode == "bitflip" and op == "write":
            # Silent corruption reports success: the damaged line is
            # quarantined on replay, and job 2 falls back to the state
            # of its previous line.
            assert [body is None for body, _, _ in frames] == [False, False, True, False]
            replay = reloaded(tmp_path)
            assert replay.jobs[records[0].id].state == RUNNING
            assert replay.jobs[records[1].id].state == SUBMITTED
            assert len(replay.quarantined) == 1
            return
        assert [json.loads(b)["seq"] for b, _, _ in frames] == [1, 2, 3, 4]
        assert reloaded(tmp_path).to_dict() == journal.to_dict()


class TestTornTail:
    def test_truncation_anywhere_in_the_last_append(self, tmp_path):
        os.mkdir(tmp_path / "live")
        journal = journal_at(tmp_path / "live", fsync=False)
        a, b = add_job(journal, 1), add_job(journal, 2)
        journal.flush()
        before = journal.to_dict()
        start = len(log_bytes(tmp_path / "live"))
        a.state, b.state = RUNNING, DONE
        b.result = {"verdict": "typechecks"}
        journal.flush(a, b)
        after = journal.to_dict()
        full = log_bytes(tmp_path / "live")
        for cut in range(start, len(full) + 1):
            case = tmp_path / f"cut{cut}"
            case.mkdir()
            (case / "journal.log").write_bytes(full[:cut])
            replay = reloaded(case)
            state = replay.to_dict()
            assert state in (before, after), cut
            assert (state == after) == (cut == len(full)), cut
            # The next append lands on a clean line boundary.
            replay.jobs[a.id].attempts += 1
            replay.flush(replay.jobs[a.id])
            assert reloaded(case).to_dict() == replay.to_dict(), cut
            assert all(body is not None for body, _, _ in scan_frames(log_bytes(case)))


class TestSnapshotFallback:
    def build(self, directory, compactions):
        journal = journal_at(directory, fsync=False)
        records = [add_job(journal, n) for n in range(3)]
        journal.flush()
        for round_no in range(compactions):
            records[round_no % 3].attempts += 1
            journal.flush(records[round_no % 3])
            journal.compact()
        records[0].state = RUNNING
        journal.flush(records[0])
        return journal

    @pytest.mark.parametrize("compactions", [1, 2, 3])
    def test_corrupt_newest_snapshot_still_replays_everything(self, tmp_path, compactions):
        journal = self.build(tmp_path, compactions)
        snapshot = tmp_path / "journal.json"
        snapshot.write_bytes(b"\x00torn\x00" + snapshot.read_bytes()[:40])
        telemetry = Telemetry()
        replay = reloaded(tmp_path, telemetry=telemetry)
        assert replay.to_dict() == journal.to_dict()
        assert telemetry.counters["durable.recoveries"] == 1
        assert os.path.exists(tmp_path / "journal.json.corrupt")

    def test_crash_between_snapshot_and_log_rotation(self, tmp_path):
        journal = self.build(tmp_path, 1)
        # A snapshot holds the table as it is in memory, so it can be
        # newer than the record's last line: replay must skip the lines
        # the snapshot covers instead of replaying them over it.
        journal.jobs["j000003"].attempts = 5
        # The snapshot landed, the rotation did not: the live segment
        # still holds lines the snapshot covers.
        journal.store.save_document(journal.to_dict())
        journal.store.release_lock()  # the process dies here
        replay = reloaded(tmp_path)
        assert replay.to_dict() == journal.to_dict()
        replay.jobs["j000002"].state = RUNNING
        replay.flush(replay.jobs["j000002"])
        assert reloaded(tmp_path).to_dict() == replay.to_dict()

    def test_history_that_does_not_reach_back_is_refused(self, tmp_path):
        self.build(tmp_path, 3)
        for name in ("journal.json", "journal.json.1"):
            path = tmp_path / name
            path.write_bytes(b"garbage" + path.read_bytes())
        with pytest.raises(CheckpointError, match="skips from seq 0"):
            reloaded(tmp_path)


# -- scheduler operations against the reload oracle -----------------------------


def _submission(n: int) -> dict:
    from repro.ql.ast import Condition, Const, ConstructNode, Edge, Query, Where
    from repro.ql.serde import query_to_dict

    query = Query(
        where=Where.of("root", [Edge.of(None, "X", "a")], [Condition("X", "=", Const(1))]),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )
    return {
        "query": query_to_dict(query),
        "input_dtd": "root -> a*",
        "output_dtd": "out -> item^>=0",
        "output_unordered": True,
        "max_size": 3,
        "max_instances": 1000 + n,
    }


@pytest.fixture(scope="module")
def outcomes():
    sub = parse_submission(_submission(0))
    done = typecheck(sub.query, sub.tau1, sub.tau2, budget=sub.budget)
    token = CancellationToken()
    token.cancel("slice expired")
    stopped = typecheck(
        sub.query, sub.tau1, sub.tau2, budget=sub.budget, control=RuntimeControl(token=token)
    )
    return {
        "done": SliceOutcome(kind="result", result=done, elapsed=0.01),
        "preempt": SliceOutcome(kind="result", result=stopped, elapsed=0.01),
        "error": SliceOutcome(kind="error", error="injected", retryable=True, elapsed=0.01),
        "budget": SliceOutcome(kind="budget"),
    }


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 5)),
        st.tuples(st.just("start"), st.just(0)),
        st.tuples(
            st.sampled_from(["done", "preempt", "error", "budget", "cancel"]),
            st.integers(0, 3),
        ),
        st.tuples(st.just("compact"), st.just(0)),
    ),
    max_size=30,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=OPS)
def test_scheduler_operations_reload_to_the_live_table(outcomes, ops):
    directory = tempfile.mkdtemp()
    try:
        store = DurableStore(os.path.join(directory, "journal.json"), fsync=False)
        scheduler = JobScheduler(
            directory,
            JobJournal(store),
            AdmissionControl(max_queue=1000, default_policy=TenantPolicy(max_active_jobs=1000)),
            config=SchedulerConfig(max_attempts=2, retry_backoff_base=0.0),
        )
        scheduler.recover()
        running: list[str] = []
        for op, arg in ops:
            if op == "submit":
                scheduler.submit(_submission(arg))
            elif op == "start":
                record = scheduler.next_runnable()
                if record is not None:
                    scheduler.start_slice(record)
                    running.append(record.id)
            elif op == "compact":
                scheduler.journal.compact()
            elif op == "cancel":
                queued = [r for r in scheduler.journal.active() if r.state != RUNNING]
                if queued:
                    scheduler.cancel(queued[arg % len(queued)].id)
                elif running:
                    job_id = running.pop(arg % len(running))
                    scheduler.cancel(job_id)
                    scheduler.apply_outcome(job_id, outcomes["preempt"])
            elif running:
                scheduler.apply_outcome(running.pop(arg % len(running)), outcomes[op])
            replay = JobJournal(DurableStore(store.path))
            replay.load()
            assert replay.to_dict() == scheduler.journal.to_dict(), (op, arg)
        scheduler.journal.close()
        replay = JobJournal(DurableStore(store.path))
        replay.load()
        assert replay.to_dict() == scheduler.journal.to_dict()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
