"""Crash-safe job journal: the service's one source of truth.

Every job the server has ever acknowledged lives in the journal, kept
on disk as two things:

* **a log** (``journal.log``): each flush appends one CRC-framed line
  per changed job, ``{"seq": n, "job": <full record>}`` — an upsert
  with a monotonic sequence number — in one write and one fsync
  (:class:`~repro.runtime.durable.RecordLog`).  A transition costs the
  record it changed, not the table.  The lines of a flush that names
  several jobs also carry the flush's last seq, and replay applies such
  a batch whole or not at all;
* **a snapshot** (``journal.json``): the whole table plus the log seq it
  covers, written through the crash-safe
  :class:`~repro.runtime.durable.DurableStore` (integrity envelope,
  generation rotation) only when the journal *compacts*: when the log
  has outgrown both the snapshot and a 64 KiB floor, and once more at
  drain.  Compaction retires the log to ``journal.log.1``, so each
  snapshot generation keeps the log segment that leads to the next.

Load takes the newest snapshot that verifies and replays the log lines
after its seq, ``journal.log.1`` first.  A server killed with SIGKILL at
*any* point therefore restarts into the state of its last completed
flush — the chaos matrix (``tests/test_service_chaos.py``) kills the
process at every scheduler state transition, and the journal drills
(``tests/test_journal_drills.py``) fault every log write and fsync:

* a torn or damaged *final* line was never acknowledged: it is dropped,
  and cut from the file before the next append;
* a damaged line *mid-log* is quarantined (``service.journal_quarantined``)
  and skipped; the job's next upsert supersedes it;
* a corrupt newest snapshot falls back to generation 1 (or, before the
  second compaction, to the empty table) and replays ``journal.log.1``
  as well, so every acknowledged transition is still there.

Replay rules on restart (:meth:`JobJournal.recover`):

* ``running`` jobs did not finish (the process died under them) — they
  become ``preempted`` and the scheduler re-admits them; their per-job
  checkpoint (written by the engine's autosave) resumes the search
  exactly, so the replayed job reaches the identical verdict as an
  uninterrupted run;
* corrupt *entries* (a malformed job record inside a verifiable
  snapshot or log line — e.g. written by a newer build) are
  **quarantined**: moved to the journal's ``quarantined`` list with the
  parse error, counted (``service.journal_quarantined``), and never
  silently dropped;
* terminal jobs (``done``/``failed``/``cancelled``) replay as-is;
  ``done`` results re-seed the fingerprint result cache, so a repeat
  submission after a crash is still free.

The advisory lock is taken at the first flush and held until
:meth:`JobJournal.close`; start-up on an empty data directory writes
nothing.  Journal version 2 marks a logged journal: a build that only
reads version 1 refuses the snapshot instead of ignoring the log.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.runtime.checkpoint import CheckpointError
from repro.runtime.durable import DurableStore, RecordLog, scan_frames

__all__ = [
    "ACTIVE_STATES",
    "JOB_STATES",
    "JOURNAL_SCHEMA",
    "JOURNAL_VERSION",
    "JobJournal",
    "JobRecord",
    "JournalEntryError",
    "TERMINAL_STATES",
]

JOURNAL_SCHEMA = "repro.service.journal"
JOURNAL_VERSION = 2
READABLE_VERSIONS = (1, 2)
"""Version 1 snapshots predate the log; they load as covering seq 0."""

COMPACT_FLOOR_BYTES = 64 * 1024
"""The compaction rule: fold the log into a new snapshot once it holds
more bytes than both this floor and the current snapshot."""

SUBMITTED = "submitted"
RUNNING = "running"
PREEMPTED = "preempted"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = frozenset({SUBMITTED, RUNNING, PREEMPTED, DONE, FAILED, CANCELLED})
ACTIVE_STATES = frozenset({SUBMITTED, RUNNING, PREEMPTED})
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class JournalEntryError(ValueError):
    """One job record inside the journal document is malformed."""


@dataclass(slots=True)
class JobRecord:
    """One job, submission to terminal state.

    ``submission`` is the raw (validated) request payload — query JSON,
    DTD texts, budget, flags — so a restarted server can rebuild the
    exact search without the client; ``fingerprint`` is the search
    fingerprint that keys deduplication and the result cache.
    """

    id: str
    tenant: str
    fingerprint: str
    submission: dict[str, Any]
    state: str = SUBMITTED
    submitted_at: float = 0.0
    attempts: int = 0
    slices: int = 0
    compute_seconds: float = 0.0
    interruption: str = ""
    error: Optional[str] = None
    result: Optional[dict[str, Any]] = None

    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "fingerprint": self.fingerprint,
            "submission": self.submission,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "attempts": self.attempts,
            "slices": self.slices,
            "compute_seconds": self.compute_seconds,
        }
        if self.interruption:
            out["interruption"] = self.interruption
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["result"] = self.result
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "JobRecord":
        if not isinstance(data, dict):
            raise JournalEntryError(
                f"job record must be an object, got {type(data).__name__}"
            )
        try:
            state = str(data["state"])
            if state not in JOB_STATES:
                raise JournalEntryError(f"unknown job state {state!r}")
            submission = data["submission"]
            if not isinstance(submission, dict):
                raise JournalEntryError("job submission must be an object")
            result = data.get("result")
            if result is not None and not isinstance(result, dict):
                raise JournalEntryError("job result must be an object")
            return cls(
                id=str(data["id"]),
                tenant=str(data["tenant"]),
                fingerprint=str(data["fingerprint"]),
                submission=submission,
                state=state,
                submitted_at=float(data.get("submitted_at", 0.0)),
                attempts=int(data.get("attempts", 0)),
                slices=int(data.get("slices", 0)),
                compute_seconds=float(data.get("compute_seconds", 0.0)),
                interruption=str(data.get("interruption", "")),
                error=None if data.get("error") is None else str(data["error"]),
                result=result,
            )
        except JournalEntryError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalEntryError(f"malformed job record: {exc}") from exc

    # -- API-facing view -----------------------------------------------------

    def public_dict(self) -> dict[str, Any]:
        """What ``GET /jobs/<id>`` returns (the submission rides along so
        a client can reconstruct what it asked for)."""
        return self.to_dict()


class JobJournal:
    """The in-memory job table plus its durable persistence.

    Not thread-safe by design: every mutation happens on the server's
    event-loop thread (engine slices run in executor threads, but their
    *outcomes* are applied by the coordinator).
    """

    def __init__(self, store: DurableStore, telemetry: Optional[Any] = None) -> None:
        self.store = store
        self.telemetry = telemetry
        self.log = RecordLog(store, os.path.splitext(store.path)[0] + ".log")
        self.jobs: dict[str, JobRecord] = {}
        self.quarantined: list[dict[str, Any]] = []
        self.next_seq = 1
        self.log_seq = 0
        """Seq of the newest durable log line."""
        self._snapshot_seq = 0
        self._snapshot_bytes = 0
        self._changed: dict[str, JobRecord] = {}
        self.events: list[str] = []
        """Human-readable recovery notes (the server logs them)."""

    def _count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.count(name, n)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The whole table: what a snapshot holds."""
        return {
            "schema": JOURNAL_SCHEMA,
            "version": JOURNAL_VERSION,
            "next_seq": self.next_seq,
            "log_seq": self.log_seq,
            "jobs": {job_id: record.to_dict() for job_id, record in self.jobs.items()},
            "quarantined": self.quarantined,
        }

    def touch(self, *records: JobRecord) -> None:
        """Name records whose state changed; the next :meth:`flush`
        writes them.  A record stays named until a flush succeeds."""
        for record in records:
            self._changed[record.id] = record

    def flush(self, *records: JobRecord) -> None:
        """Make the current state of ``records`` (and of every record
        named since the last successful flush) durable: one upsert line
        each, appended to the log in one write and one fsync.  Then
        compact if the log has outgrown the snapshot.  Raises
        :class:`CheckpointError` on unrecoverable I/O failure — the
        caller decides whether that is fatal."""
        self.touch(*records)
        if not self._changed:
            return
        # A flush of several records is one batch: every line names the
        # batch's last seq, and replay applies the batch whole or not at
        # all.
        first, last = self.log_seq + 1, self.log_seq + len(self._changed)
        lines = []
        for seq, record in enumerate(self._changed.values(), first):
            line = {"seq": seq, "job": record.to_dict()}
            if last > first:
                line["last"] = last
            lines.append(json.dumps(line, separators=(",", ":")).encode("utf-8"))
        self.store.hold_lock()
        self.log.append(lines)
        self.log_seq = last
        self._changed.clear()
        self._count("service.journal_flushes")
        if self.log.size > max(COMPACT_FLOOR_BYTES, self._snapshot_bytes):
            try:
                self.compact()
            except CheckpointError as exc:
                # The lines are durable; the oversized log is retried at
                # the next flush.
                self.events.append(f"journal compaction failed: {exc}")

    def compact(self) -> None:
        """Write the whole table as a new snapshot covering ``log_seq``
        and retire the log segment it folds in."""
        self.store.hold_lock()
        self._snapshot_bytes = self.store.save_document(self.to_dict())
        self._snapshot_seq = self.log_seq
        self._changed.clear()
        self.log.rotate()

    def close(self) -> None:
        """Drain: fold what the snapshot does not cover yet into a new
        one, then release the log and the lock."""
        try:
            if self._changed or self.log_seq > self._snapshot_seq:
                self.compact()
        finally:
            self.log.close()
            self.store.release_lock()

    def _on_disk(self) -> bool:
        """Whether any journal file exists (one directory listing, so a
        fresh data directory costs no more than that)."""
        directory = os.path.dirname(self.store.path) or "."
        try:
            names = set(self.store.fs.listdir(directory))
        except OSError:
            return False
        paths = [self.store.generation_path(i) for i in range(self.store.generations)]
        paths += [self.store.tmp_path, self.log.segment_path(0), self.log.segment_path(1)]
        return any(os.path.basename(path) in names for path in paths)

    def load(self) -> bool:
        """Replay the newest verifiable snapshot plus the log after it.
        Returns whether a journal existed.  Corrupt *entries* and
        damaged mid-log lines are quarantined, never fatal; a corrupt
        snapshot falls back a generation inside the durable store, or to
        the empty table when the log reaches back to its first line
        (raises :class:`CheckpointError` when neither holds)."""
        if not self._on_disk():
            return False
        try:
            doc = self.store.try_load_document()
            unverified = None
        except CheckpointError as exc:
            doc, unverified = None, exc
        self.jobs = {}
        self.quarantined = []
        self.next_seq = 1
        self._snapshot_seq = self._snapshot_bytes = 0
        if doc is not None:
            self._load_snapshot(doc)
        self.log_seq = self._snapshot_seq
        self._replay(unverified)
        if unverified is not None:
            self._count("durable.recoveries")
            self.events.append(
                f"no journal snapshot verified; rebuilt {len(self.jobs)} job(s) "
                f"from the log ({unverified})"
            )
        # Defensive: never reissue an id that exists (a corrupt next_seq
        # must not cause duplicate jobs).
        for job_id in self.jobs:
            if job_id.startswith("j"):
                try:
                    self.next_seq = max(self.next_seq, int(job_id[1:]) + 1)
                except ValueError:
                    pass
        return True

    def _load_snapshot(self, doc: dict[str, Any]) -> None:
        if doc.get("schema") != JOURNAL_SCHEMA:
            raise JournalEntryError(
                f"not a job journal: schema {doc.get('schema')!r}"
            )
        if doc.get("version") not in READABLE_VERSIONS:
            raise JournalEntryError(
                f"unsupported journal version {doc.get('version')!r} "
                f"(this build reads versions {', '.join(map(str, READABLE_VERSIONS))})"
            )
        raw_jobs = doc.get("jobs")
        if not isinstance(raw_jobs, dict):
            raise JournalEntryError("journal jobs table must be an object")
        quarantined = doc.get("quarantined")
        self.quarantined = list(quarantined) if isinstance(quarantined, list) else []
        for job_id, raw in raw_jobs.items():
            self._upsert(str(job_id), raw)
        try:
            self.next_seq = max(1, int(doc.get("next_seq", 1)))
        except (TypeError, ValueError):
            self.next_seq = 1
        try:
            self._snapshot_seq = max(0, int(doc.get("log_seq", 0)))
        except (TypeError, ValueError):
            self._snapshot_seq = 0
        self._snapshot_bytes = len(json.dumps(doc, separators=(",", ":")))

    def _upsert(self, job_id: str, raw: Any) -> None:
        try:
            record = JobRecord.from_dict(raw)
        except JournalEntryError as exc:
            self._quarantine({"id": job_id, "error": str(exc), "entry": raw})
            return
        self.jobs[record.id] = record

    def _quarantine(self, entry: dict[str, Any]) -> None:
        self.quarantined.append(entry)
        self._count("service.journal_quarantined")
        where = entry.get("id") or entry.get("line")
        self.events.append(f"quarantined corrupt journal entry {where}: {entry['error']}")

    def _replay(self, unverified: Optional[CheckpointError]) -> None:
        """Apply the log lines after the snapshot's seq, oldest segment
        first, one flush at a time, and set the live segment's good
        length (whole flushes only: a torn tail is cut before the next
        append)."""
        lines: list[_LogLine] = []
        for index in (1, 0):
            data = self.log.read(index)
            name = os.path.basename(self.log.segment_path(index))
            for body, start, end in scan_frames(data):
                line = _LogLine(body, index, end)
                if line.seq is None:  # evidence, should it be quarantined
                    line.where = f"{name}@{start}"
                    line.text = data[start:end].decode("utf-8", "replace").rstrip()
                lines.append(line)
        base = self._snapshot_seq
        # The next good seq after each line: a damaged line before one
        # the snapshot covers is covered too; damaged lines after the
        # last good one are the torn tail.
        next_good: list[Optional[int]] = [None] * len(lines)
        upcoming: Optional[int] = None
        for i in range(len(lines) - 1, -1, -1):
            next_good[i] = upcoming
            if lines[i].seq is not None:
                upcoming = lines[i].seq
        expected = base + 1
        live_end = 0
        batch: list[_LogLine] = []

        def apply() -> None:
            nonlocal live_end
            for line in batch:
                self._upsert(line.job_id(), line.job)
            self.log_seq = batch[-1].seq
            if batch[-1].segment == 0:
                live_end = batch[-1].end
            batch.clear()

        for line, later in zip(lines, next_good):
            if line.seq is None:
                if later is None:
                    break  # torn tail: never acknowledged
                if later > base + 1:
                    self._quarantine(
                        {"line": line.where, "error": "damaged journal log line", "entry": line.text}
                    )
                    expected += 1
                continue
            if line.seq <= base:
                if line.segment == 0:
                    live_end = line.end
                continue
            if line.seq > expected:
                problem = f"the journal log skips from seq {expected - 1} to {line.seq}"
                if unverified is not None:
                    raise CheckpointError(f"{unverified}; {problem}") from unverified
                raise CheckpointError(f"{problem}: transitions are missing")
            expected = line.seq + 1
            if batch and line.seq > batch[0].last:
                apply()  # its damaged last line(s) were quarantined
            batch.append(line)
            if line.seq >= line.last:
                apply()
        self.log.size = live_end
        if unverified is not None and self.log_seq == 0:
            # Nothing verified and the log holds no history to rebuild
            # from: the jobs existed only in the damaged snapshot(s).
            raise unverified

    def recover(self) -> list[str]:
        """Post-restart replay: jobs the dead server left ``running``
        become ``preempted`` (their checkpoint resumes them); returns
        the re-admitted job ids in deterministic (submission) order."""
        recovered = []
        for record in self.in_order():
            if record.state == RUNNING:
                record.state = PREEMPTED
                record.interruption = "server restarted while job was running"
                recovered.append(record.id)
                self._count("service.resumed_jobs")
                self.events.append(
                    f"job {record.id} was running at crash; resuming from its checkpoint"
                )
        return recovered

    # -- job table -----------------------------------------------------------

    def new_job_id(self) -> str:
        job_id = f"j{self.next_seq:06d}"
        self.next_seq += 1
        return job_id

    def add(self, record: JobRecord) -> None:
        if record.id in self.jobs:
            raise JournalEntryError(f"duplicate job id {record.id!r}")
        if not record.submitted_at:
            record.submitted_at = time.time()
        self.jobs[record.id] = record
        self.touch(record)

    def get(self, job_id: str) -> Optional[JobRecord]:
        return self.jobs.get(job_id)

    def in_order(self) -> list[JobRecord]:
        """Records in submission order (ids are monotonic)."""
        return [self.jobs[k] for k in sorted(self.jobs)]

    def active(self) -> list[JobRecord]:
        return [r for r in self.in_order() if r.active()]

    def active_by_tenant(self, tenant: str) -> int:
        return sum(1 for r in self.jobs.values() if r.tenant == tenant and r.active())

    def find_fingerprint(
        self, fingerprint: str, states: Iterable[str]
    ) -> Optional[JobRecord]:
        """Earliest job with this fingerprint in one of ``states`` (the
        dedupe / result-cache lookup)."""
        wanted = frozenset(states)
        for record in self.in_order():
            if record.fingerprint == fingerprint and record.state in wanted:
                return record
        return None


class _LogLine:
    """One framed log line as replay sees it: ``seq`` is ``None`` when
    the frame is damaged or does not hold a log line."""

    __slots__ = ("seq", "last", "job", "segment", "end", "where", "text")

    def __init__(self, body: Optional[bytes], segment: int, end: int) -> None:
        self.seq: Optional[int] = None
        self.last = 0
        self.job: Any = None
        self.segment = segment
        self.end = end
        self.where = self.text = ""
        if body is None:
            return
        try:
            line = json.loads(body)
            seq, self.job = int(line["seq"]), line["job"]
            self.last = int(line.get("last", seq))
        except (ValueError, TypeError, KeyError, AttributeError):
            return
        self.seq = seq

    def job_id(self) -> str:
        return str(self.job.get("id")) if isinstance(self.job, dict) else "?"
