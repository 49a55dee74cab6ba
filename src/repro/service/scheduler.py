"""Preempt/resume job scheduler: time-sliced typechecking with retries.

The scheduler turns one-shot ``typecheck()`` calls into *jobs* that a
server can run many of, fairly, and survive killing:

* **time slicing** — each job runs in short slices (a per-slice
  :class:`~repro.runtime.control.Deadline` inside a
  :class:`~repro.runtime.control.RuntimeControl`); a slice that expires
  yields an ``INTERRUPTED`` verdict whose checkpoint is persisted to the
  job's own :class:`~repro.runtime.durable.DurableStore`, the job goes
  back to ``preempted``, and the next runnable job gets the worker —
  round-robin over submission order, so no job starves;
* **crash safety** — the engine's checkpoint autosave fires *during* a
  slice (every ``checkpoint_every`` instances), so SIGKILL loses at most
  one autosave window; on restart the journal replay re-admits the job
  and the search resumes from its last durable cursor to the *identical*
  verdict (determinism is the engine's contract, the chaos matrix the
  proof);
* **retry with backoff** — a slice that *raises* (as opposed to being
  interrupted) is retried with exponential backoff; after
  ``max_attempts`` the job is a poison job and fails permanently instead
  of wedging the queue;
* **result cache** — terminal results are cached by search fingerprint
  (:func:`~repro.runtime.checkpoint.search_fingerprint`), so an
  identical submission is answered from memory without touching the
  queue; active duplicates are coalesced onto the in-flight job;
* **budget enforcement** — the tenant's compute-seconds budget is
  checked between slices and its RSS ceiling rides inside each slice's
  control, making admission's promises real.

The scheduler itself is synchronous and single-coordinator: all journal
mutations happen on the caller's (event-loop) thread; only
:meth:`JobScheduler.run_slice` — pure engine work plus the job's own
checkpoint store — runs in executor threads.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.dtd.core import DTD
from repro.dtd.parser import DTDParseError, parse_dtd
from repro.obs import Observability
from repro.obs.progress import progress_snapshot
from repro.ql.ast import Query
from repro.ql.serde import QuerySerdeError, query_from_dict
from repro.runtime.checkpoint import CheckpointError, search_fingerprint
from repro.runtime.control import CancellationToken, Deadline, RuntimeControl
from repro.runtime.durable import CheckpointAutosave, DurableStore
from repro.runtime.faults import FaultInjector
from repro.service.admission import AdmissionControl
from repro.service.journal import (
    ACTIVE_STATES,
    CANCELLED,
    DONE,
    FAILED,
    PREEMPTED,
    RUNNING,
    SUBMITTED,
    JobJournal,
    JobRecord,
)
from repro.trees import to_term
from repro.typecheck.result import TypecheckResult, Verdict
from repro.typecheck.search import SearchBudget

__all__ = [
    "JobScheduler",
    "SchedulerConfig",
    "ServiceFaultError",
    "Submission",
    "SubmissionError",
    "parse_submission",
    "result_public",
]


class SubmissionError(ValueError):
    """The job payload is invalid (HTTP 400)."""


class ServiceFaultError(RuntimeError):
    """An injected service-level fault (mode ``fail``) fired."""


@dataclass(slots=True)
class Submission:
    """One validated job submission, parsed objects plus the normalized
    JSON payload the journal persists (enough to rebuild the search on a
    restarted server without the client)."""

    query: Query
    tau1: DTD
    tau2: DTD
    budget: SearchBudget
    force_search: bool
    tenant: str
    no_cache: bool
    fingerprint: str
    payload: dict[str, Any]


def parse_submission(payload: Any) -> Submission:
    """Validate a raw job payload into a :class:`Submission`.

    Required keys: ``query`` (query JSON object), ``input_dtd`` and
    ``output_dtd`` (rule text).  Optional: ``input_unordered`` /
    ``output_unordered`` (bool), ``max_size`` / ``max_instances`` (search
    budget), ``force_search``, ``tenant``, ``no_cache``.
    """
    if not isinstance(payload, dict):
        raise SubmissionError(f"job payload must be an object, got {type(payload).__name__}")
    for key in ("query", "input_dtd", "output_dtd"):
        if key not in payload:
            raise SubmissionError(f"job payload is missing {key!r}")
    if not isinstance(payload["query"], dict):
        raise SubmissionError("query must be a query JSON object")
    try:
        query = query_from_dict(payload["query"])
    except QuerySerdeError as exc:
        raise SubmissionError(f"invalid query: {exc}") from exc
    if not query.is_program():
        raise SubmissionError("query must be an outermost program (no free variables)")
    input_unordered = bool(payload.get("input_unordered", False))
    output_unordered = bool(payload.get("output_unordered", False))
    try:
        tau1 = parse_dtd(str(payload["input_dtd"]), unordered=input_unordered)
    except DTDParseError as exc:
        raise SubmissionError(f"invalid input DTD: {exc}") from exc
    try:
        tau2 = parse_dtd(str(payload["output_dtd"]), unordered=output_unordered)
    except DTDParseError as exc:
        raise SubmissionError(f"invalid output DTD: {exc}") from exc
    try:
        max_size = int(payload.get("max_size", 6))
        max_instances = int(payload.get("max_instances", 50_000))
    except (TypeError, ValueError) as exc:
        raise SubmissionError(f"invalid search budget: {exc}") from exc
    if max_size < 1:
        raise SubmissionError(f"max_size must be >= 1, got {max_size}")
    if max_instances < 1:
        raise SubmissionError(f"max_instances must be >= 1, got {max_instances}")
    budget = SearchBudget(max_size=max_size, max_instances=max_instances)
    force_search = bool(payload.get("force_search", False))
    tenant = str(payload.get("tenant", "default")) or "default"
    no_cache = bool(payload.get("no_cache", False))
    normalized = {
        "query": payload["query"],
        "input_dtd": str(payload["input_dtd"]),
        "input_unordered": input_unordered,
        "output_dtd": str(payload["output_dtd"]),
        "output_unordered": output_unordered,
        "max_size": max_size,
        "max_instances": max_instances,
        "force_search": force_search,
        "tenant": tenant,
        "no_cache": no_cache,
    }
    fingerprint = search_fingerprint(
        query, tau1, tau2, budget, f"service:force={force_search}", True
    )
    return Submission(
        query=query,
        tau1=tau1,
        tau2=tau2,
        budget=budget,
        force_search=force_search,
        tenant=tenant,
        no_cache=no_cache,
        fingerprint=fingerprint,
        payload=normalized,
    )


def result_public(result: TypecheckResult) -> dict[str, Any]:
    """The JSON-safe view of a terminal verdict a client receives (and
    the journal persists, and the result cache serves)."""
    stats = result.stats
    out: dict[str, Any] = {
        "verdict": result.verdict.value,
        "algorithm": result.algorithm,
        "label_trees_checked": stats.label_trees_checked,
        "valued_trees_checked": stats.valued_trees_checked,
        "max_size_reached": stats.max_size_reached,
        "exhausted_space": stats.exhausted_space,
        "notes": list(result.notes),
    }
    if result.counterexample is not None:
        out["counterexample"] = to_term(result.counterexample)
    if result.output is not None:
        out["output"] = to_term(result.output)
    if result.violation:
        out["violation"] = result.violation
    return out


@dataclass(slots=True)
class SchedulerConfig:
    """Scheduler knobs (all with service-sane defaults)."""

    slice_seconds: float = 0.5
    """Time quantum per job slice (the preemption granularity)."""

    checkpoint_every: int = 200
    """Engine autosave interval in evaluated instances — the most work a
    SIGKILL can lose per job."""

    max_attempts: int = 3
    """Poison cap: slices that *raise* (not interruptions) before the
    job fails permanently."""

    retry_backoff_base: float = 0.05
    """First retry delay in seconds; doubles per attempt up to the cap."""

    retry_backoff_cap: float = 2.0

    workers: int = 2
    """Concurrent job slices (executor threads)."""

    search_workers: int = 0
    """Search processes shared by all job slices (0 = every slice runs
    its search sequentially, in the executor thread — the default, and
    the only mode exercised by the crash drills).  When ``> 1``, the
    scheduler lazily starts one persistent
    :class:`~repro.runtime.pool.WorkerPool` of this size and job slices
    *borrow* it: one slice at a time runs its search sharded across the
    pool (ranges are stolen by idle pool members), concurrent slices
    fall back to the sequential path rather than queue behind it.  The
    pool's processes survive across slices and jobs — compiled query
    tables ship to them once — and are closed at drain."""

    progress_interval: float = 0.25
    """Minimum seconds between ``job_progress`` events per running slice
    (the event-bus analogue of the stderr reporter's throttle)."""


class _SliceProgressPublisher:
    """Turns the engine's per-instance tick into throttled ``job_progress``
    events.  Hangs off ``RuntimeControl.on_tick`` so the hot loop pays one
    clock read per candidate instance; figures come from the
    ``obs.live_stats`` snapshot the engine parks (cumulative across
    resumed slices).  Sequential slices have no DP-priced total, so the
    ETA/pct are against the submission's instance *budget* — honest as
    "budget used", labelled ``total_kind: budget`` (the supervisor feed
    publishes ``priced`` totals)."""

    __slots__ = (
        "events", "job_id", "obs", "interval", "clock",
        "slice_start", "base_seconds", "budget_total", "_next_at",
    )

    def __init__(
        self,
        events: Any,
        job_id: str,
        obs: Observability,
        base_seconds: float,
        budget_total: int,
        interval: float,
        clock=time.monotonic,
    ) -> None:
        self.events = events
        self.job_id = job_id
        self.obs = obs
        self.interval = interval
        self.clock = clock
        self.slice_start = clock()
        self.base_seconds = base_seconds
        self.budget_total = budget_total
        self._next_at = self.slice_start + interval

    def tick(self, next_instance_index: int) -> None:
        now = self.clock()
        if now < self._next_at:
            return
        self._next_at = now + self.interval
        stats = self.obs.live_stats
        if stats is None:
            return
        snap = progress_snapshot(
            stats.valued_trees_checked,
            self.base_seconds + (now - self.slice_start),
            total=self.budget_total,
            hits=stats.cache_hits,
            misses=stats.cache_misses,
        )
        self.events.publish(
            "job_progress", job_id=self.job_id, total_kind="budget", **snap
        )


@dataclass(slots=True)
class SliceOutcome:
    """What one executor slice produced, applied by the coordinator."""

    kind: str  # "result" | "error" | "budget"
    result: Optional[TypecheckResult] = None
    elapsed: float = 0.0
    started_at: float = 0.0
    error: str = ""
    retryable: bool = True
    notes: list[str] = field(default_factory=list)


class JobScheduler:
    """Owns the job table's transitions; see the module docstring."""

    def __init__(
        self,
        data_dir: str,
        journal: JobJournal,
        admission: AdmissionControl,
        config: Optional[SchedulerConfig] = None,
        telemetry: Optional[Any] = None,
        tracer: Optional[Any] = None,
        faults: Optional[FaultInjector] = None,
        events: Optional[Any] = None,
    ) -> None:
        self.data_dir = data_dir
        self.journal = journal
        self.admission = admission
        self.config = config if config is not None else SchedulerConfig()
        self.telemetry = telemetry
        self.tracer = tracer
        self.faults = faults
        self.events = events
        self.draining = False
        self.cache_hits = 0
        self.cache_misses = 0
        self.result_cache: dict[str, dict[str, Any]] = {}
        self.running_tokens: dict[str, CancellationToken] = {}
        self.cancel_requested: set[str] = set()
        self.retry_at: dict[str, float] = {}
        self.last_sliced: Optional[str] = None
        # The shared search pool (search_workers > 1): started lazily on
        # first use, borrowed by one slice at a time under a non-blocking
        # lock, closed by close_search_pool() at drain.
        self._search_pool: Optional[Any] = None
        self._search_pool_lock = threading.Lock()
        self._search_pool_failed = False

    # -- plumbing ------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.count(name, n)

    def _publish(
        self, type: str, job_id: Optional[str] = None, **data: Any
    ) -> Optional[int]:
        """Publish one bus event; returns its ``seq`` (None when events
        are off) so span attrs can carry the correlation id."""
        if self.events is None:
            return None
        return self.events.publish(type, job_id=job_id, **data)["seq"]

    def _service_fault(self, point: str) -> None:
        """Consult the fault plan at a scheduler state transition.  Mode
        ``crash`` never returns (``os._exit`` inside the injector); mode
        ``fail`` surfaces as a retryable :class:`ServiceFaultError`."""
        if self.faults is None:
            return
        fault = self.faults.service_fault(point)
        if fault is not None:
            raise ServiceFaultError(f"injected service fault at point {point!r}")

    def flush(self, *records: JobRecord) -> None:
        """Persist the transitions of ``records`` (consulting the
        ``journal`` fault point first — the kill-during-journal-write
        drill lives here).  The records are named to the journal before
        the fault point, so a transition whose flush fails is written by
        the next flush."""
        self.journal.touch(*records)
        self._service_fault("journal")
        self.journal.flush()

    def job_store(self, job_id: str) -> DurableStore:
        """The per-job checkpoint store (separate from the journal so a
        torn job checkpoint can never take the job *table* down)."""
        return DurableStore(
            os.path.join(self.data_dir, f"{job_id}.ckpt"),
            telemetry=self.telemetry,
        )

    # -- shared search pool ---------------------------------------------------

    def _borrow_search_pool(self) -> Optional[Any]:
        """Borrow the shared search pool for one slice, or ``None``.

        ``None`` when pooled search is off (``search_workers <= 1``),
        the server is draining, worker processes cannot start here, or
        another slice holds the pool — a slice never *queues* behind a
        peer's search; it just runs this quantum sequentially.  The
        caller must hand the pool back via :meth:`_release_search_pool`.
        """
        if self.config.search_workers <= 1 or self.draining or self._search_pool_failed:
            return None
        if not self._search_pool_lock.acquire(blocking=False):
            self._count("service.search_pool_contended")
            return None
        try:
            if self._search_pool is None:
                from repro.runtime.pool import WorkerPool

                self._search_pool = WorkerPool(self.config.search_workers)
                self._search_pool.events = self.events
            self._search_pool.ensure_started()
            return self._search_pool
        except Exception:
            # No multiprocessing here (or the pool broke): remember and
            # stay on the sequential path for the rest of this process.
            self._search_pool_failed = True
            self._search_pool = None
            self._search_pool_lock.release()
            return None

    def _release_search_pool(self) -> None:
        self._search_pool_lock.release()

    def close_search_pool(self) -> None:
        """Shut down the shared pool's worker processes (idempotent; the
        drain path).  Waits for a borrowing slice to hand the pool back
        — by then drain has cancelled every slice token, so the wait is
        one instance boundary, not one search."""
        pool, self._search_pool = self._search_pool, None
        if pool is None:
            return
        with self._search_pool_lock:
            pool.close()

    # -- lifecycle -----------------------------------------------------------

    def recover(self) -> list[str]:
        """Load + replay the journal after a (possibly crashed) restart;
        reseed the result cache from terminal jobs; flush the recovered
        view.  Returns the ids of resumed (was-running) jobs."""
        existed = self.journal.load()
        recovered = self.journal.recover()
        for record in self.journal.in_order():
            if record.state == DONE and record.result is not None:
                self.result_cache.setdefault(record.fingerprint, record.result)
        if existed:
            self.flush(*(self.journal.jobs[job_id] for job_id in recovered))
        return recovered

    # -- submission ----------------------------------------------------------

    def submit(self, payload: Any) -> tuple[int, dict[str, Any]]:
        """One submission, admission to acknowledgement.  Returns the
        HTTP status and response body."""
        try:
            sub = parse_submission(payload)
        except SubmissionError as exc:
            self._count("service.rejected.invalid")
            return 400, {"error": str(exc)}
        if not sub.no_cache:
            cached = self.result_cache.get(sub.fingerprint)
            if cached is not None:
                self.cache_hits += 1
                self._count("service.cache_hits")
                return 200, {
                    "cache": "hit",
                    "fingerprint": sub.fingerprint,
                    "result": cached,
                }
            self.cache_misses += 1
            self._count("service.cache_misses")
        existing = self.journal.find_fingerprint(sub.fingerprint, ACTIVE_STATES)
        if existing is not None:
            self._count("service.deduplicated")
            return 202, {
                "id": existing.id,
                "state": existing.state,
                "fingerprint": sub.fingerprint,
                "deduplicated": True,
            }
        decision = self.admission.admit(
            sub.tenant,
            requested_max_size=sub.budget.max_size,
            active_total=len(self.journal.active()),
            tenant_active=self.journal.active_by_tenant(sub.tenant),
            workers=self.config.workers,
            slice_seconds=self.config.slice_seconds,
            draining=self.draining,
        )
        if not decision.admitted:
            body: dict[str, Any] = {"error": decision.reason}
            if decision.retry_after:
                body["retry_after"] = decision.retry_after
            return decision.status, body
        self._service_fault("admit")
        record = JobRecord(
            id=self.journal.new_job_id(),
            tenant=sub.tenant,
            fingerprint=sub.fingerprint,
            submission=sub.payload,
        )
        self.journal.add(record)
        self.flush(record)
        self._count("service.submitted")
        self._publish(
            "job_submitted",
            job_id=record.id,
            tenant=sub.tenant,
            fingerprint=sub.fingerprint,
            max_size=sub.budget.max_size,
            max_instances=sub.budget.max_instances,
        )
        return 202, {
            "id": record.id,
            "state": record.state,
            "fingerprint": sub.fingerprint,
        }

    def cancel(self, job_id: str) -> tuple[int, dict[str, Any]]:
        record = self.journal.get(job_id)
        if record is None:
            return 404, {"error": f"no such job {job_id!r}"}
        if record.state in (DONE, FAILED, CANCELLED):
            return 409, {
                "id": record.id,
                "state": record.state,
                "error": f"job {job_id} is already terminal ({record.state})",
            }
        if record.state == RUNNING:
            # Cooperative: the running slice stops at its next instance
            # boundary; the coordinator applies CANCELLED on its outcome.
            self.cancel_requested.add(job_id)
            token = self.running_tokens.get(job_id)
            if token is not None:
                token.cancel("cancelled by client")
            return 202, {"id": record.id, "state": record.state, "cancelling": True}
        record.state = CANCELLED
        self.job_store(job_id).clear()
        self.flush(record)
        self._count("service.cancelled")
        self._publish("job_cancelled", job_id=record.id, while_state="queued")
        return 200, {"id": record.id, "state": record.state}

    # -- scheduling ----------------------------------------------------------

    def next_runnable(self) -> Optional[JobRecord]:
        """The next job owed a slice: round robin in submission order
        over ``submitted`` and ``preempted`` jobs, skipping those inside
        a retry backoff.  Rotation starts after the last job sliced, so
        a long search cannot starve later submissions — every waiting
        job gets a slice per cycle."""
        now = time.monotonic()
        candidates = [
            record
            for record in self.journal.in_order()
            if record.state in (SUBMITTED, PREEMPTED)
            and self.retry_at.get(record.id, 0.0) <= now
        ]
        if not candidates:
            return None
        if self.last_sliced is not None:
            # Job ids are zero-padded (``j%06d``), so string order is
            # submission order.
            for record in candidates:
                if record.id > self.last_sliced:
                    return record
        return candidates[0]

    def start_slice(self, record: JobRecord) -> CancellationToken:
        """Coordinator-side: mark the job running (durably — a crash
        after this flush replays it as preempted) and mint its slice's
        cancellation token."""
        token = CancellationToken()
        was_fresh = record.slices == 0 and record.state == SUBMITTED
        record.state = RUNNING
        self.running_tokens[record.id] = token
        self.last_sliced = record.id
        self.flush(record)
        if was_fresh:
            self._publish("job_running", job_id=record.id, attempts=record.attempts)
        self._publish(
            "slice_started",
            job_id=record.id,
            slice=record.slices,
            attempts=record.attempts,
        )
        return token

    def slice_deadline(self, seconds: float) -> Deadline:
        """The deadline one slice runs under: ``seconds`` of wall clock.
        Replace it to end slices by another rule (a fixed number of
        engine polls makes preemption independent of machine speed)."""
        return Deadline.after(seconds)

    def run_slice(self, job_id: str, token: CancellationToken) -> SliceOutcome:
        """Executor-side: run one time slice of the job's search.  Reads
        the journal record but never mutates it — every transition is
        applied by :meth:`apply_outcome` on the coordinator."""
        started_at = time.perf_counter()
        try:
            self._service_fault("slice")
            record = self.journal.get(job_id)
            if record is None:  # pragma: no cover - coordinator bug guard
                return SliceOutcome(kind="error", error=f"job {job_id} vanished", retryable=False)
            sub = parse_submission(record.submission)
            policy = self.admission.policy_for(record.tenant)
            slice_seconds = self.config.slice_seconds
            if policy.max_compute_seconds is not None:
                remaining = policy.max_compute_seconds - record.compute_seconds
                if remaining <= 0:
                    return SliceOutcome(kind="budget", started_at=started_at)
                slice_seconds = min(slice_seconds, remaining)
            store = self.job_store(job_id)
            notes: list[str] = []
            try:
                resume_from = store.try_load()
            except CheckpointError as exc:
                # A job checkpoint nothing verifies in is not fatal: the
                # search is deterministic, so restarting it from scratch
                # reaches the same verdict — only slower.
                notes.append(f"job checkpoint unreadable ({exc}); restarting search")
                self._count("service.checkpoint_restarts")
                store.clear()
                resume_from = None
            obs: Optional[Observability] = None
            on_tick = None
            if self.events is not None:
                # The slice-local observability handle carries the bus +
                # correlation id down the stack (the supervisor publishes
                # ``search_progress`` from it when the slice runs pooled);
                # the on_tick publisher covers the sequential path.
                obs = Observability(events=self.events, job_id=job_id)
                on_tick = _SliceProgressPublisher(
                    self.events,
                    job_id,
                    obs,
                    base_seconds=record.compute_seconds,
                    budget_total=sub.budget.max_instances,
                    interval=self.config.progress_interval,
                ).tick
            control = RuntimeControl(
                deadline=self.slice_deadline(slice_seconds),
                token=token,
                max_rss_mb=policy.max_rss_mb,
                autosave=CheckpointAutosave(
                    store, every_instances=self.config.checkpoint_every
                ),
                on_tick=on_tick,
            )
            from repro.typecheck.api import UndecidableFragmentError, typecheck

            pool = self._borrow_search_pool()
            try:
                result = typecheck(
                    sub.query,
                    sub.tau1,
                    sub.tau2,
                    budget=sub.budget,
                    force_search=sub.force_search,
                    control=control,
                    resume_from=resume_from,
                    pool=pool,
                    obs=obs,
                )
            except UndecidableFragmentError as exc:
                return SliceOutcome(
                    kind="error",
                    error=str(exc),
                    retryable=False,
                    started_at=started_at,
                    elapsed=time.perf_counter() - started_at,
                )
            finally:
                if pool is not None:
                    self._release_search_pool()
            elapsed = time.perf_counter() - started_at
            if result.verdict is Verdict.INTERRUPTED and result.checkpoint is not None:
                try:
                    store.save_checkpoint(result.checkpoint)
                except CheckpointError as exc:
                    # The autosave already persisted a (slightly older)
                    # cursor; losing the final one costs re-evaluation,
                    # never correctness.
                    notes.append(f"final slice checkpoint not persisted: {exc}")
                    self._count("service.checkpoint_flush_failures")
            return SliceOutcome(
                kind="result",
                result=result,
                elapsed=elapsed,
                started_at=started_at,
                notes=notes,
            )
        except SubmissionError as exc:
            return SliceOutcome(
                kind="error", error=f"stored submission invalid: {exc}",
                retryable=False, started_at=started_at,
                elapsed=time.perf_counter() - started_at,
            )
        except ServiceFaultError as exc:
            return SliceOutcome(
                kind="error", error=str(exc), retryable=True,
                started_at=started_at, elapsed=time.perf_counter() - started_at,
            )
        except Exception as exc:  # noqa: BLE001 - slice isolation boundary
            return SliceOutcome(
                kind="error", error=f"{type(exc).__name__}: {exc}", retryable=True,
                started_at=started_at, elapsed=time.perf_counter() - started_at,
            )

    def apply_outcome(self, job_id: str, outcome: SliceOutcome) -> None:
        """Coordinator-side: fold one slice outcome into the journal and
        flush — the single place job state transitions happen."""
        record = self.journal.get(job_id)
        self.running_tokens.pop(job_id, None)
        if record is None:  # pragma: no cover - coordinator bug guard
            return
        self.retry_at.pop(job_id, None)
        event_seq = self._publish(
            "slice_finished",
            job_id=job_id,
            kind=outcome.kind,
            elapsed=round(outcome.elapsed, 6),
            slice=record.slices,
        )
        if self.tracer is not None and self.tracer.enabled and outcome.elapsed:
            # v5 correlation attrs: the slice span names the bus event it
            # mirrors, so trace files and SSE captures join row-for-row.
            attrs: dict[str, Any] = {"job": job_id, "job_id": job_id, "kind": outcome.kind}
            if event_seq is not None:
                attrs["event_seq"] = event_seq
            self.tracer.emit(
                "job_slice", outcome.started_at, outcome.elapsed, **attrs
            )
        if outcome.kind == "budget":
            record.state = FAILED
            record.error = "tenant compute budget exhausted"
            self.job_store(job_id).clear()
            self._count("service.budget_exhausted")
            self._publish("job_failed", job_id=job_id, error=record.error, reason="budget")
        elif outcome.kind == "error":
            record.attempts += 1
            if not outcome.retryable or record.attempts >= self.config.max_attempts:
                record.state = FAILED
                record.error = outcome.error
                self.job_store(job_id).clear()
                self._count("service.poisoned" if outcome.retryable else "service.failed")
                self._publish(
                    "job_failed",
                    job_id=job_id,
                    error=record.error,
                    reason="poisoned" if outcome.retryable else "error",
                    attempts=record.attempts,
                )
            else:
                record.state = PREEMPTED
                record.interruption = f"attempt {record.attempts} failed: {outcome.error}"
                delay = min(
                    self.config.retry_backoff_cap,
                    self.config.retry_backoff_base * (2 ** (record.attempts - 1)),
                )
                self.retry_at[job_id] = time.monotonic() + delay
                self._count("service.retries")
                self._publish(
                    "job_preempted",
                    job_id=job_id,
                    reason="retry",
                    attempts=record.attempts,
                    retry_delay=round(delay, 3),
                )
        else:
            result = outcome.result
            assert result is not None
            record.slices += 1
            record.compute_seconds += outcome.elapsed
            for note in outcome.notes:
                self.journal.events.append(f"job {job_id}: {note}")
            if result.verdict is Verdict.INTERRUPTED:
                if job_id in self.cancel_requested:
                    self.cancel_requested.discard(job_id)
                    record.state = CANCELLED
                    record.interruption = result.interruption or "cancelled"
                    self.job_store(job_id).clear()
                    self._count("service.cancelled")
                    self._publish(
                        "job_cancelled", job_id=job_id, while_state="running"
                    )
                elif result.interruption and "memory ceiling" in result.interruption:
                    # Resuming would re-trip the same ceiling immediately.
                    record.state = FAILED
                    record.error = result.interruption
                    self.job_store(job_id).clear()
                    self._count("service.memory_failed")
                    self._publish(
                        "job_failed", job_id=job_id, error=record.error, reason="memory"
                    )
                else:
                    self._service_fault("preempt")
                    record.state = PREEMPTED
                    record.interruption = result.interruption or "slice expired"
                    self._count("service.preemptions")
                    self._publish(
                        "job_preempted",
                        job_id=job_id,
                        reason="slice",
                        slices=record.slices,
                        instances=result.stats.valued_trees_checked,
                    )
            else:
                self._service_fault("complete")
                record.state = DONE
                record.result = result_public(result)
                record.error = None
                record.interruption = ""
                self.result_cache[record.fingerprint] = record.result
                self.job_store(job_id).clear()
                self._count("service.completed")
                self._publish(
                    "job_done",
                    job_id=job_id,
                    verdict=result.verdict.value,
                    slices=record.slices,
                    instances=result.stats.valued_trees_checked,
                    compute_seconds=round(record.compute_seconds, 3),
                )
        if not record.active():
            # A cancel that raced a terminal outcome must not linger and
            # cancel a future job that reuses nothing but our attention.
            self.cancel_requested.discard(job_id)
        self.flush(record)

    # -- drain / stats -------------------------------------------------------

    def drain_begin(self) -> None:
        """Stop admitting and ask every running slice to stop at its next
        instance boundary (it will be applied as ``preempted`` with its
        checkpoint flushed — that is the graceful-drain contract)."""
        self.draining = True
        self._publish("server_draining", running=len(self.running_tokens))
        for token in self.running_tokens.values():
            token.cancel("server draining")

    def stats(self) -> dict[str, Any]:
        by_state: dict[str, int] = {}
        for record in self.journal.jobs.values():
            by_state[record.state] = by_state.get(record.state, 0) + 1
        queue_depth = by_state.get(SUBMITTED, 0) + by_state.get(PREEMPTED, 0)
        running = len(self.running_tokens)
        workers = max(1, self.config.workers)
        out: dict[str, Any] = {
            "jobs": by_state,
            "active": len(self.journal.active()),
            "max_queue": self.admission.max_queue,
            "draining": self.draining,
            "result_cache_entries": len(self.result_cache),
            "quarantined_entries": len(self.journal.quarantined),
            # Dashboard cold-start snapshot: what `repro top` renders
            # before the first event arrives.
            "queue_depth": queue_depth,
            "running_slices": running,
            "workers": self.config.workers,
            "pool_utilization": round(running / workers, 3),
            "result_cache": {
                "entries": len(self.result_cache),
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "search_pool": {
                "workers": self.config.search_workers,
                "started": self._search_pool is not None,
                "failed": self._search_pool_failed,
            },
        }
        if self.events is not None:
            out["events"] = self.events.stats()
        return out
