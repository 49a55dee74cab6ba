"""Fault-tolerant sharded search: a multi-process supervisor over
checkpoint cursors.

The bounded counterexample search is deterministic, so PR 1's checkpoint
cursors don't just make it resumable — they make it *partitionable*: a
:class:`~repro.runtime.shard.ShardPlan` cuts the stream into cursor
ranges, and each range is an independent job whose result merges back
into exactly the sequential outcome.  :class:`ShardedSearch` runs those
jobs in ``multiprocessing`` workers and supervises them for robustness:

* **heartbeats + hang detection** — each worker reports progress through
  its own pipe (one writer per channel: a worker killed mid-write can
  sever only its own pipe, whereas a shared queue's write lock would be
  poisoned forever); a silent worker past ``hang_timeout`` is killed and
  its shard retried;
* **crash isolation** — a SIGKILL'd or OOM-killed worker fails only its
  shard; the supervisor retries it with exponential backoff and, after
  ``shard_retries`` failed attempts, *re-splits* the shard so a
  poison-range keeps shrinking until it is a single label tree (which
  then runs in-process, where the caller sees the real error);
* **first-FAILS-wins cancellation** — a violation found in one shard
  cancels every shard *later* in the stream; earlier shards run to
  completion so the reported counterexample (and the merged statistics)
  are exactly the sequential run's earliest one;
* **graceful degradation** — if workers cannot start or keep dying
  (``max_total_failures``), the remaining ranges run in-process,
  sequentially, with identical semantics;
* **exact interruption** — a deadline/cancellation/memory ceiling merges
  every worker's cursor into one :class:`MultiShardCheckpoint`; the
  resumed run (parallel or not) finishes the incomplete ranges and
  reaches the identical verdict and identical ``valued_trees_checked``
  as an uninterrupted sequential search.

Since PR 8 the workers are a **persistent pool**
(:class:`~repro.runtime.pool.WorkerPool`): processes start once per run
— or once per *service*, when a pool is shared through
``SupervisorConfig.pool`` — and the supervisor *steals* pending cursor
ranges onto whichever member is idle, over that member's command pipe.
Compared with the retired spawn-per-shard loop this removes the per-shard
process spawn and per-shard query compilation (the compiled tables ship
to each worker exactly once, at install; under fork they arrive free via
the parent's pre-warmed memo), and turns the static plan into dynamic
load balancing: a member that finishes early immediately pulls the next
range instead of idling behind a straggler.  Crash isolation is
unchanged — a dead member fails only the range it was running and is
respawned into the same slot — and first-FAILS-wins cancellation is now
cooperative (a per-member abort event) rather than a process kill.

Workers never receive compiled validators or closures — only the
picklable :class:`~repro.runtime.shard.SearchTask` — and rebuild their
procedure from the algorithm tag; determinism guarantees every process
lands on the same fingerprint, which is each shard's identity check.
"""

from __future__ import annotations

import os
import time
from multiprocessing import connection as mp_connection
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Optional

from repro.obs import Observability, Telemetry
from repro.obs.progress import progress_snapshot
from repro.obs.trace import NULL_TRACER
from repro.runtime.checkpoint import (
    CheckpointMismatchError,
    MultiShardCheckpoint,
    SearchCheckpoint,
    ShardCursor,
    search_fingerprint,
)
from repro.runtime.control import OperationInterrupted, RuntimeControl
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.pool import PoolUnavailable, WorkerPool, _PoolMember
from repro.runtime.shard import SearchTask, ShardPlan, ShardSpec, plan_shards

__all__ = ["ShardedSearch", "SupervisorConfig"]

_STAT_KEYS = (
    "label_trees_checked",
    "valued_trees_checked",
    "max_size_reached",
    "cache_hits",
    "cache_misses",
)


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs of the sharded-search supervisor."""

    workers: int = 0
    """Worker processes (0 = one per CPU).  ``<= 1`` runs every shard
    in-process (still shard-exact, useful to finish a multi-shard
    checkpoint without parallelism)."""

    shard_retries: int = 2
    """Failed attempts per shard before it is re-split (or, when a
    single label tree, pulled in-process)."""

    shards_per_worker: int = 4
    """Planned shards per worker — more shards mean finer-grained loss
    on a crash and better load balance, at slightly more per-range
    start-up (a seek to the range; only sibling-order dedupe replays the
    stream before it)."""

    heartbeat_interval: float = 0.2
    """Seconds between worker progress heartbeats."""

    hang_timeout: float = 30.0
    """A running worker silent for this long is declared hung and
    killed.  Must comfortably exceed the cost of one candidate
    evaluation plus the shard's start-up (its seek, or under
    sibling-order dedupe its replay of the stream before the range)."""

    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    """Exponential retry backoff: ``base * 2^(attempt-1)``, capped."""

    max_total_failures: int = 16
    """Worker deaths across all shards before the supervisor gives up on
    parallelism and degrades to the in-process sequential path."""

    start_method: Optional[str] = None
    """``multiprocessing`` start method (None = fork when available)."""

    adaptive_sequential: bool = True
    """On a host with fewer cores than ``workers`` (and no fault plan or
    caller pool demanding real processes), run the search in-process
    instead of forking: oversubscribed workers time-slice one CPU and can
    only add cache-miss, range start-up, and IPC cost over the sequential
    engine.
    Set ``False`` to force worker processes regardless."""

    poll_interval: float = 0.05
    """Supervisor event-loop tick.  Message arrival wakes the loop
    immediately (``connection.wait`` returns on readability); the tick
    only bounds timer granularity — backoff gates, autosave, hang
    detection — so it is deliberately coarse to keep the parent nearly
    free on oversubscribed hosts."""

    pool: Optional[Any] = field(default=None, compare=False, repr=False)
    """A caller-owned :class:`~repro.runtime.pool.WorkerPool` to run on
    instead of starting (and closing) a private one — this is how worker
    processes survive across ``typecheck()`` calls and service scheduler
    slices.  The supervisor quiesces (never closes) a shared pool; the
    owner is responsible for ``close()``.  Excluded from equality so two
    configs differing only in pool identity still compare equal."""


class _EventToken:
    """Duck-typed :class:`CancellationToken` over a shared mp.Event, so
    the supervisor's cancellation fan-out reaches every worker's
    cooperative poll without signals.

    The engine polls its token on every instance, and ``mp.Event.is_set``
    costs two semaphore syscalls — enough to dominate cheap evaluations
    (~35% wall-clock on the Theorem 3.5 benchmark).  The event is
    therefore only re-read every ``_STRIDE`` polls, sticky once set:
    cancellation and abort still land on an instance boundary, at most
    ``_STRIDE - 1`` instances later, which the 2-second shutdown grace
    absorbs without measurement.  The first poll always reads through,
    so a pre-set event is honored immediately.
    """

    __slots__ = ("_event", "_left", "_set")

    _STRIDE = 32

    def __init__(self, event: Any) -> None:
        self._event = event
        self._left = 0
        self._set = False

    @property
    def cancelled(self) -> bool:
        if self._set:
            return True
        if self._left > 0:
            self._left -= 1
            return False
        self._left = self._STRIDE - 1
        if self._event.is_set():
            self._set = True
            return True
        return False

    @property
    def reason(self) -> str:
        return "cancelled by supervisor"


class _CompositeToken:
    """Duck-typed token that is cancelled when *any* member is — a
    worker watches both the supervisor's shared event and its own local
    token (fed by that worker's POSIX signal handlers)."""

    __slots__ = ("_members",)

    def __init__(self, *members: Any) -> None:
        self._members = members

    def cancel(self, reason: str = "cancelled") -> None:
        self._members[-1].cancel(reason)

    @property
    def cancelled(self) -> bool:
        return any(m.cancelled for m in self._members)

    @property
    def reason(self) -> str:
        for member in self._members:
            if member.cancelled:
                return member.reason
        return "cancelled"


class _Heartbeat:
    """Worker-side progress reporter, hung on ``RuntimeControl.on_tick``.

    The payload is a *compact, fixed-shape* metrics snapshot — shard-local
    instances done plus eval-cache hits/misses, read from the engine's
    live stats — so the supervisor's hang detector doubles as a progress
    source.  Three short keys, always: heartbeat size is a regression
    test (``test_heartbeat_payload_stays_bounded``).

    When ``run_id`` is set (pool workers), messages carry it so the
    supervisor can discard heartbeats that straggle in from a previous
    run of a shared pool; ``None`` keeps the legacy 5-tuple shape."""

    __slots__ = ("conn", "start", "stop", "attempt", "interval", "last", "obs", "run_id")

    def __init__(
        self,
        conn: Any,
        spec: ShardSpec,
        attempt: int,
        interval: float,
        obs: Optional[Observability] = None,
        run_id: Optional[int] = None,
    ) -> None:
        self.conn = conn
        self.start = spec.start_label
        self.stop = spec.stop_label
        self.attempt = attempt
        self.interval = interval
        self.obs = obs
        self.run_id = run_id
        self.last = time.monotonic()
        self._send()

    def _payload(self) -> dict:
        stats = self.obs.live_stats if self.obs is not None else None
        if stats is None:
            return {"i": 0, "ch": 0, "cm": 0}
        return {
            "i": stats.valued_trees_checked,
            "ch": stats.cache_hits,
            "cm": stats.cache_misses,
        }

    def _send(self) -> None:
        if self.run_id is None:
            msg = ("hb", self.start, self.stop, self.attempt, self._payload())
        else:
            msg = ("hb", self.run_id, self.start, self.stop, self.attempt, self._payload())
        try:
            self.conn.send(msg)
        except Exception:
            pass  # a broken pipe must never take the search down

    def tick(self, next_instance_index: int) -> None:
        now = time.monotonic()
        if now - self.last >= self.interval:
            self.last = now
            self._send()


def _run_task(
    task: SearchTask,
    *,
    control: Optional[RuntimeControl] = None,
    resume_from: Optional[SearchCheckpoint] = None,
    shard: Optional[ShardSpec] = None,
    obs: Optional[Observability] = None,
):
    """Rebuild a procedure from its picklable task and run one shard (or
    the full search).  Imported lazily: workers import the typecheck
    machinery fresh; the parent only reaches here on degradation."""
    from repro.typecheck.search import run_search

    common = dict(
        control=control,
        resume_from=resume_from,
        shard=shard,
        use_eval_cache=task.use_eval_cache,
        obs=obs,
    )
    if task.algorithm == "thm-3.1-unordered":
        from repro.typecheck.unordered import typecheck_unordered

        return typecheck_unordered(task.query, task.tau1, task.tau2, task.budget, **common)
    if task.algorithm == "thm-3.2-starfree":
        from repro.typecheck.starfree import typecheck_starfree

        return typecheck_starfree(task.query, task.tau1, task.tau2, task.budget, **common)
    if task.algorithm == "thm-3.5-regular":
        from repro.typecheck.regular import typecheck_regular

        return typecheck_regular(
            task.query,
            task.tau1,
            task.tau2,
            task.budget,
            assume_projection_free=True,
            **common,
        )
    return run_search(
        task.query,
        task.tau1,
        task.tau2,
        budget=task.budget,
        theoretical_bound=task.theoretical_bound,
        vacuous_output_ok=task.vacuous_output_ok,
        algorithm=task.algorithm,
        **common,
    )


@dataclass
class _ShardState:
    """Supervisor-side lifecycle of one shard."""

    spec: ShardSpec
    status: str = "pending"  # pending|running|done|fails|interrupted|inprocess
    attempt: int = 0
    cursor: Optional[dict] = None  # resumable position (labels/values/stats)
    stats: dict = field(default_factory=dict)
    fails: Optional[dict] = None
    reason: str = ""
    ready_at: float = 0.0  # backoff gate
    telemetry: Optional[dict] = None  # latest shipped Telemetry.to_dict()
    hb: Optional[dict] = None  # latest heartbeat metrics snapshot

    @property
    def key(self) -> tuple[int, int]:
        return (self.spec.start_label, self.spec.stop_label)

    def cursor_entry(self) -> ShardCursor:
        """This shard's slot in a multi-shard checkpoint."""
        spec = self.spec
        if self.status in ("done",):
            return ShardCursor(
                spec.start_label,
                spec.stop_label,
                spec.instance_base,
                done=True,
                stats=dict(self.stats),
            )
        if self.status == "interrupted" and self.cursor:
            return ShardCursor(
                spec.start_label,
                spec.stop_label,
                spec.instance_base,
                done=False,
                labels_consumed=int(self.cursor["labels_consumed"]),
                values_done=int(self.cursor["values_done"]),
                stats=dict(self.cursor.get("stats", {})),
            )
        # pending / running / crashed / fails-demoted: restart the range
        # from scratch — determinism re-finds whatever was lost.  A range
        # on a worker right now is flagged in_flight (its partial work was
        # never reported, so restart is still the exact resume point).
        return ShardCursor(
            spec.start_label,
            spec.stop_label,
            spec.instance_base,
            done=False,
            labels_consumed=spec.start_label,
            values_done=0,
            in_flight=self.status == "running",
        )


# Worker processes cannot be created here; degrade to in-process.  The
# pool raises it for every spawn-shaped failure, so the supervisor's
# historical name is now an alias.
_SpawnUnavailable = PoolUnavailable


class _WorkerEvalError(RuntimeError):
    """Internal: carries a worker-reported EvaluationError payload."""

    def __init__(self, payload: dict) -> None:
        super().__init__(payload.get("cause", "evaluation error"))
        self.payload = payload


class ShardedSearch:
    """One fault-tolerant parallel run of the bounded search.

    Build with the picklable :class:`SearchTask` plus the parent-side
    compiled ``output_type`` (used for planning and the fingerprint), and
    call :meth:`run`.  The result is a plain
    :class:`~repro.typecheck.result.TypecheckResult` whose statistics are
    exactly the sequential run's.
    """

    def __init__(
        self,
        task: SearchTask,
        output_type: Any = None,
        engine_query: Any = None,
        theoretical_bound: Optional[float] = None,
        control: Optional[RuntimeControl] = None,
        config: Optional[SupervisorConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.task = task
        self.obs = obs
        self.output_type = output_type if output_type is not None else task.tau2
        # The query the *engine* searches with — for most procedures the
        # task query itself, but the star-free pipeline relabels first
        # (the task ships the original; workers redo the compilation).
        self.engine_query = engine_query if engine_query is not None else task.query
        self.theoretical_bound = theoretical_bound
        self.control = control
        self.config = config or SupervisorConfig()
        self.workers = self.config.workers if self.config.workers > 0 else (os.cpu_count() or 1)
        self.fingerprint = search_fingerprint(
            self.engine_query,
            task.tau1,
            self.output_type,
            task.budget,
            task.algorithm,
            task.vacuous_output_ok,
        )
        self.fault_plan: Optional[FaultPlan] = None
        if control is not None and isinstance(control.faults, FaultInjector):
            self.fault_plan = control.faults.plan
        self.plan: Optional[ShardPlan] = None
        self.resumed = False
        # Filled in as the run progresses; surfaced on the result stats.
        self.worker_deaths = 0
        self.retries = 0
        self.resplits = 0
        self.degraded = False
        self.stop_reason_text: Optional[str] = None
        self._t0 = time.monotonic()
        self._prior_elapsed = 0.0

    # -- entry ---------------------------------------------------------------

    def run(self, resume_from: Optional[Any] = None) -> "Any":
        from repro.typecheck.result import TypecheckResult, Verdict

        self._t0 = time.monotonic()
        if isinstance(resume_from, MultiShardCheckpoint):
            self._prior_elapsed = float(resume_from.elapsed_seconds)

        if isinstance(resume_from, SearchCheckpoint):
            # A sequential (version-1) cursor cannot be decomposed into
            # per-shard statistics; finish it sequentially instead.  The
            # engine itself stamps wall clock and records the counters.
            self.degraded = True
            result = _run_task(
                self.task, control=self.control, resume_from=resume_from, obs=self.obs
            )
            result.notes.append(
                "sequential checkpoint resumed in-process (sharding needs a "
                "multi-shard checkpoint or a fresh run)"
            )
            return result

        # Process parallelism only pays when ranges actually run
        # concurrently.  On a host with fewer cores than workers, forked
        # workers time-slice one CPU: the same total evaluation work plus
        # per-process cache misses, range start-up, and IPC — strictly
        # slower than the sequential engine.  When nothing demands real
        # processes (no fault plan to deliver, no caller-owned pool to
        # run on), plan a single full-stream range and run it in this
        # process: exact same verdict and statistics, none of the cost.
        cores = os.cpu_count() or 1
        adaptive = (
            self.config.adaptive_sequential
            and self.workers > cores
            and self.config.pool is None
            and self.fault_plan is None
        )
        if adaptive:
            target = 1
        else:
            # Fine-grained stealing granularity has the same economics:
            # every range pays its start-up (a seek, or under sibling-order
            # dedupe a replay of its label-stream prefix), so when cores
            # are scarce (but processes are demanded) plan the coarsest
            # exact split instead.
            per_worker = self.config.shards_per_worker if cores >= self.workers else 1
            target = max(1, self.workers * per_worker)
        try:
            self.plan = plan_shards(
                self.engine_query,
                self.task.tau1,
                self.output_type,
                self.task.budget,
                fingerprint=self.fingerprint,
                target_shards=target,
                control=self.control,
            )
        except OperationInterrupted as stop:
            # Nothing was evaluated yet: a zero-cursor checkpoint (or the
            # untouched resume checkpoint) loses no work.
            checkpoint = resume_from if resume_from is not None else SearchCheckpoint(
                fingerprint=self.fingerprint,
                algorithm=self.task.algorithm,
                labels_consumed=0,
                values_done=0,
                reason=stop.reason,
            )
            result = TypecheckResult(
                Verdict.INTERRUPTED,
                algorithm=self.task.algorithm,
                interruption=stop.reason,
                checkpoint=checkpoint,
            )
            result.notes.append("interrupted while planning shards; no work lost")
            return result

        if self.obs is not None and self.obs.progress is not None:
            # The planner priced every label tree (closed-form DP), so the
            # progress reporter gets an exact instance total for its ETA.
            self.obs.progress.set_total(self.plan.total_instances)

        states = self._initial_states(resume_from)
        if all(st.status == "done" for st in states):
            return self._merge(states)
        if self.workers <= 1 or len(self.plan.shards) <= 1:
            # Degraded means "parallelism was attempted and lost" — an
            # adaptive (or unsplittable) plan chose sequential up front.
            self.degraded = self.workers > 1 and not adaptive
            self._run_inprocess(states)
            result = self._merge(states)
            if adaptive:
                result.notes.append(
                    f"{self.workers} workers requested on a {cores}-core "
                    "host: ran in-process (process parallelism cannot win "
                    "when oversubscribed; pass adaptive_sequential=False "
                    "or a fault plan/pool to force workers)"
                )
            return result
        try:
            self._supervise(states)
        except _SpawnUnavailable:
            self.degraded = True
            self._run_inprocess(states)
        return self._merge(states)

    # -- setup ---------------------------------------------------------------

    def _initial_states(self, resume_from: Optional[MultiShardCheckpoint]) -> list[_ShardState]:
        plan = self.plan
        if resume_from is None:
            return [_ShardState(spec=spec) for spec in plan.shards]

        if resume_from.fingerprint != self.fingerprint:
            raise CheckpointMismatchError(
                "checkpoint was taken from a different search (query, types, "
                f"budget or algorithm differ): {resume_from.fingerprint} != {self.fingerprint}"
            )
        if (
            resume_from.total_labels != plan.total_labels
            or resume_from.total_instances != plan.total_instances
            or resume_from.capped != plan.capped
        ):
            raise CheckpointMismatchError(
                "checkpoint shard plan does not match this search's "
                f"deterministic plan ({resume_from.total_labels}/{resume_from.total_instances}"
                f"/{resume_from.capped} != {plan.total_labels}/{plan.total_instances}/{plan.capped})"
            )
        cum = [0]
        for count in plan.label_counts:
            cum.append(cum[-1] + count)
        cursors = sorted(resume_from.shards, key=lambda c: c.start_label)
        expected_start = 0
        states: list[_ShardState] = []
        for cur in cursors:
            if cur.start_label != expected_start:
                raise CheckpointMismatchError(
                    f"checkpoint shards do not tile the stream (gap at label {expected_start})"
                )
            if not 0 <= cur.start_label < cur.stop_label <= plan.total_labels:
                raise CheckpointMismatchError(
                    f"checkpoint shard [{cur.start_label}, {cur.stop_label}) out of range"
                )
            if cur.instance_base != cum[cur.start_label]:
                raise CheckpointMismatchError(
                    f"checkpoint shard at label {cur.start_label} has instance base "
                    f"{cur.instance_base}, plan says {cum[cur.start_label]}"
                )
            expected_start = cur.stop_label
            spec = ShardSpec(
                cur.start_label,
                cur.stop_label,
                cur.instance_base,
                cum[cur.stop_label] - cum[cur.start_label],
            )
            if cur.done:
                states.append(_ShardState(spec=spec, status="done", stats=dict(cur.stats)))
            elif cur.labels_consumed > cur.start_label or cur.values_done > 0:
                cursor = {
                    "labels_consumed": cur.labels_consumed,
                    "values_done": cur.values_done,
                    "stats": dict(cur.stats),
                }
                states.append(_ShardState(spec=spec, cursor=cursor))
            else:
                states.append(_ShardState(spec=spec))
        if expected_start != plan.total_labels:
            raise CheckpointMismatchError(
                f"checkpoint shards stop at label {expected_start}, "
                f"plan covers {plan.total_labels}"
            )
        self.resumed = True
        return states

    # -- supervision loop ----------------------------------------------------

    def _supervise(self, states: list[_ShardState]) -> None:
        cfg = self.config
        tracer = self.obs.tracer if self.obs is not None else NULL_TRACER
        # Parent-side periodic durability: the merged multi-shard cursor
        # is persisted on a time interval, so a supervisor crash (not
        # just a worker crash) loses at most one autosave window.
        autosave = self.control.autosave if self.control is not None else None
        max_rss = self.control.max_rss_mb if self.control is not None else None

        # Warm the parent's process-level compile memo before workers
        # start: under fork the children inherit the compiled query/DFA
        # tables copy-on-write, so "ship the tables once" costs nothing;
        # under spawn, the install command's warm-up entry compiles once
        # per worker process instead of once per range.
        if self.task.use_eval_cache:
            try:
                from repro.ql.compile import compiled_query_for

                compiled_query_for(self.engine_query, self.task.tau1.alphabet)
            except Exception:
                pass

        shared = cfg.pool is not None
        pool: WorkerPool = cfg.pool if shared else WorkerPool(
            self.workers,
            start_method=cfg.start_method,
            heartbeat_interval=cfg.heartbeat_interval,
            tracer=tracer if tracer.enabled else None,
        )
        events = self.obs.events if self.obs is not None else None
        if events is not None and pool.events is None:
            pool.events = events
        pool.ensure_started()  # PoolUnavailable propagates: run() degrades
        pool_t0 = time.perf_counter()
        base_escalations = pool.reap_escalations
        base_respawns = pool.respawns
        try:
            run_id = pool.install(
                self.task,
                self.fingerprint,
                self.fault_plan,
                max_rss,
                warm_query=self.engine_query if self.task.use_eval_cache else None,
                warm_alphabet=self.task.tau1.alphabet,
            )
        except PoolUnavailable:
            if not shared:
                pool.close()
            raise
        cancel_event = pool.cancel_event

        # member index -> (state, attempt, dispatch perf_counter): which
        # range each busy member is working.
        assigned: dict[int, tuple[_ShardState, int, float]] = {}
        evalerror: Optional[_WorkerEvalError] = None
        stop_grace_until = 0.0
        # Event-feed state: steal tally for this run and the next time a
        # search_progress event may be published (the bus analogue of the
        # progress reporter's throttle).
        steals = [0]
        supervise_t0 = time.monotonic()
        next_progress_event = [0.0]

        def barrier() -> Optional[int]:
            fails = [st.spec.start_label for st in states if st.status == "fails"]
            return min(fails) if fails else None

        def effective(st: _ShardState) -> bool:
            """Does this shard still matter for the verdict?"""
            limit = barrier()
            return limit is None or st.spec.start_label <= limit

        def settled() -> bool:
            return all(
                st.status in ("done", "fails", "interrupted", "inprocess")
                for st in states
                if effective(st)
            )

        def release(member: _PoolMember) -> None:
            member.busy = None
            member.idle_t = time.perf_counter()
            assigned.pop(member.index, None)

        def abort_running(st: _ShardState) -> None:
            """Cooperatively cancel the member working this range: it
            drops the range at the next instance boundary and stays
            alive for the next steal (its final is discarded by the
            status guard in handle_message)."""
            for member in pool.members:
                if member.busy is not None and member.busy[:2] == st.key:
                    pool.abort(member)

        def drain(member: _PoolMember) -> None:
            """Deliver every message already in this member's pipe."""
            try:
                while member.conn is not None and member.conn.poll():
                    handle_message(member, member.conn.recv())
            except (EOFError, OSError):
                member.close_conn()

        def dispatch_ready(now: float) -> None:
            """Work-stealing: hand pending ranges, in stream order, to
            idle members.  Each dispatch carries the deadline *remaining
            right now* — a persistent worker must never trust a value
            computed at pool startup."""
            idle = pool.idle_members()
            for st in states:
                if not idle:
                    break
                if st.status != "pending" or not effective(st) or now < st.ready_at:
                    continue
                member = idle.pop(0)
                deadline_seconds = None
                if self.control is not None and self.control.deadline is not None:
                    deadline_seconds = max(0.0, self.control.deadline.remaining())
                idle_t = member.idle_t
                if not pool.dispatch(member, st.spec, st.attempt, st.cursor, deadline_seconds):
                    # Died while idle; the death sweep below respawns it.
                    member.close_conn()
                    continue
                st.status = "running"
                assigned[member.index] = (st, st.attempt, time.perf_counter())
                steals[0] += 1
                if tracer.enabled:
                    # Steal latency: how long the member sat idle before
                    # pulling this range — the load-balance health signal.
                    tracer.emit(
                        "steal",
                        idle_t,
                        time.perf_counter() - idle_t,
                        start=st.spec.start_label,
                        stop=st.spec.stop_label,
                        attempt=st.attempt,
                        member=member.index,
                    )
                if events is not None:
                    events.publish(
                        "shard_stolen",
                        job_id=self.obs.job_id if self.obs is not None else None,
                        run_id=run_id,
                        member=member.index,
                        start=st.spec.start_label,
                        stop=st.spec.stop_label,
                        attempt=st.attempt,
                        steals=steals[0],
                    )

        def member_lost(member: _PoolMember, why: str, respawn: bool = True) -> None:
            """Account a member that died (or hung) mid-range, then
            respawn a fresh process into its slot (unless shutting down,
            where replacing it would be wasted churn)."""
            entry = assigned.get(member.index)
            release(member)
            if entry is not None:
                st, att, _ = entry
                if st.status == "running" and att == st.attempt:
                    if not cancel_event.is_set():
                        record_death(st, why)
                    else:
                        st.status = "pending"
            if respawn:
                pool.respawn(member)  # PoolUnavailable propagates: degrade
            else:
                pool.kill(member)

        def record_death(st: _ShardState, why: str) -> None:
            self.worker_deaths += 1
            st.status = "pending"
            st.reason = why
            st.attempt += 1
            if st.attempt > cfg.shard_retries:
                split = self.plan.split_point(st.spec.start_label, st.spec.stop_label)
                if split is None:
                    # A single label tree that keeps dying: run it where
                    # the caller can see the real failure.
                    st.status = "inprocess"
                    return
                self.resplits += 1
                left = _ShardState(spec=self.plan.subrange(st.spec.start_label, split))
                right = _ShardState(spec=self.plan.subrange(split, st.spec.stop_label))
                # A carried resume cursor stays valid only for the child that
                # shares the original start (same instance base, same local
                # stats); a cursor past the split would need per-child stats
                # we don't have, so both halves restart from scratch then.
                if st.cursor is not None and int(st.cursor["labels_consumed"]) < split:
                    left.cursor = st.cursor
                idx = states.index(st)
                states[idx : idx + 1] = [left, right]
            else:
                self.retries += 1
                delay = min(cfg.backoff_cap, cfg.backoff_base * (2 ** (st.attempt - 1)))
                st.ready_at = time.monotonic() + delay

        def handle_message(member: _PoolMember, msg: tuple) -> None:
            nonlocal evalerror
            kind, msg_run, start, stop, attempt, payload = msg
            member.last_seen = time.monotonic()
            if kind == "hb":
                if msg_run != run_id:
                    return  # straggler heartbeat from a previous run
                st = next((s for s in states if s.key == (start, stop)), None)
                if st is not None and attempt == st.attempt and isinstance(payload, dict):
                    st.hb = payload
                return
            # Any final frees the member for the next steal — even one
            # for a range this run no longer cares about.
            entry = assigned.get(member.index)
            release(member)
            if msg_run != run_id:
                return  # straggler final from a previous run of a shared pool
            st = next((s for s in states if s.key == (start, stop)), None)
            if st is None or attempt != st.attempt:
                return  # stale: a killed or re-split attempt
            if st.status != "running":
                return  # aborted (first-FAILS-wins) or already judged dead
            if kind in ("done", "fails", "interrupted") and isinstance(payload, dict):
                if payload.get("telemetry"):
                    st.telemetry = payload["telemetry"]
                if tracer.enabled and entry is not None:
                    # The worker cannot write the parent's trace file; the
                    # shard span is the parent-side view (steal dispatch
                    # to final message, range start-up included).
                    tracer.emit(
                        "shard",
                        entry[2],
                        time.perf_counter() - entry[2],
                        start=st.spec.start_label,
                        stop=st.spec.stop_label,
                        attempt=attempt,
                        status=kind,
                    )
            if kind == "done":
                st.status = "done"
                st.stats = dict(payload["stats"])
            elif kind == "fails":
                st.status = "fails"
                st.stats = dict(payload["stats"])
                st.fails = payload
                limit = st.spec.start_label
                for other in states:
                    if other.spec.start_label > limit and other.status == "running":
                        abort_running(other)
                        other.status = "pending"
                        other.cursor = None
            elif kind == "interrupted":
                st.status = "interrupted"
                st.cursor = dict(payload["cursor"])
                st.stats = dict(payload["cursor"].get("stats", {}))
                st.reason = payload.get("reason", "interrupted")
                if self.stop_reason_text is None:
                    self.stop_reason_text = st.reason
            elif kind == "evalerror":
                st.status = "interrupted"
                if payload.get("cursor"):
                    st.cursor = dict(payload["cursor"])
                    st.stats = dict(payload["cursor"].get("stats", {}))
                st.reason = f"evaluator failure: {payload.get('cause', '?')}"
                if evalerror is None:
                    evalerror = _WorkerEvalError(payload)
            elif kind == "error":
                record_death(st, payload.get("message", "worker error"))

        def update_progress() -> None:
            reporter = self.obs.progress if self.obs is not None else None
            if reporter is None and events is None:
                return
            # Settled shards report exact stats; running ones their latest
            # heartbeat snapshot.  The reporter throttles itself.
            done = hits = misses = 0
            for st in states:
                if st.status == "running" and st.hb:
                    done += int(st.hb.get("i", 0))
                    hits += int(st.hb.get("ch", 0))
                    misses += int(st.hb.get("cm", 0))
                elif st.stats:
                    done += int(st.stats.get("valued_trees_checked", 0))
                    hits += int(st.stats.get("cache_hits", 0))
                    misses += int(st.stats.get("cache_misses", 0))
            if reporter is not None:
                reporter.maybe_update(
                    done, SimpleNamespace(cache_hits=hits, cache_misses=misses)
                )
            if events is not None:
                # The {"i","ch","cm"} heartbeats, forwarded: per-run
                # progress with the DP-priced instance total, so the ETA
                # is exact, not a budget bound.
                now = time.monotonic()
                if now >= next_progress_event[0]:
                    next_progress_event[0] = now + 0.25
                    events.publish(
                        "search_progress",
                        job_id=self.obs.job_id if self.obs is not None else None,
                        run_id=run_id,
                        total_kind="priced",
                        workers=len(pool.members),
                        steals=steals[0],
                        **progress_snapshot(
                            done,
                            now - supervise_t0,
                            total=self.plan.total_instances,
                            hits=hits,
                            misses=misses,
                        ),
                    )

        try:
            while True:
                now = time.monotonic()
                if self.stop_reason_text is None and self.control is not None:
                    reason = self.control.stop_reason()
                    if reason is not None:
                        self.stop_reason_text = reason
                        cancel_event.set()
                        stop_grace_until = now + max(1.0, cfg.hang_timeout)
                if evalerror is not None and not cancel_event.is_set():
                    cancel_event.set()
                    stop_grace_until = now + max(1.0, cfg.hang_timeout)

                stopping = cancel_event.is_set()
                if not stopping:
                    if self.worker_deaths >= cfg.max_total_failures:
                        # Workers keep dying: stop burning processes and
                        # fall back to the in-process path for the rest.
                        for member in pool.members:
                            if member.busy is not None:
                                pool.abort(member)
                            release(member)
                        for st in states:
                            if st.status in ("pending", "running"):
                                st.status = "inprocess"
                        self.degraded = True
                        break
                    dispatch_ready(now)
                    if not assigned and settled():
                        break
                    if not assigned and all(
                        st.status != "pending" for st in states if effective(st)
                    ):
                        break  # only in-process work left
                else:
                    if not assigned:
                        break
                    if now > stop_grace_until:
                        # Past the grace window: members still mid-range
                        # are wedged; their ranges restart on resume.
                        for entry in list(assigned.values()):
                            st, att, _ = entry
                            if st.status == "running" and att == st.attempt:
                                st.status = "pending"
                                st.reason = "killed during shutdown"
                        for member in pool.members:
                            if member.busy is not None:
                                pool.kill(member)
                                release(member)
                        break

                conns = [m.conn for m in pool.members if m.conn is not None]
                if conns:
                    try:
                        ready = mp_connection.wait(conns, timeout=cfg.poll_interval)
                    except OSError:
                        ready = []
                else:
                    time.sleep(cfg.poll_interval)
                    ready = []
                for conn in ready:
                    member = next((m for m in pool.members if m.conn is conn), None)
                    if member is not None:
                        drain(member)
                update_progress()
                if autosave is not None and autosave.due_now():
                    autosave.save(self._checkpoint(states, "autosave"))

                now = time.monotonic()
                for member in list(pool.members):
                    if member.conn is None or not member.proc.is_alive():
                        # Dead without a final message — unless one is
                        # still in its pipe; drain once more before judging.
                        drain(member)
                        code = member.proc.exitcode
                        member_lost(
                            member,
                            f"worker died (exit code {code})",
                            respawn=not cancel_event.is_set(),
                        )
                        continue
                    if member.busy is not None and now - member.last_seen > cfg.hang_timeout:
                        member_lost(
                            member,
                            "hang detected (heartbeat timeout)",
                            respawn=not cancel_event.is_set(),
                        )
        finally:
            try:
                # A shared pool survives for the next run (quiesced so no
                # straggler range bleeds compute into it); a private pool
                # shuts down here — the no-leaked-children guarantee.
                if shared:
                    pool.quiesce()
                else:
                    pool.close()
            finally:
                delta = pool.reap_escalations - base_escalations
                if delta > 0 and self.obs is not None and self.obs.telemetry is not None:
                    # Escalated reaps are the "leaked child" signal the
                    # old join-and-drop reap silently swallowed.
                    self.obs.telemetry.count("supervisor.reap_escalations", delta)
                if tracer.enabled:
                    tracer.emit(
                        "pool",
                        pool_t0,
                        time.perf_counter() - pool_t0,
                        workers=pool.workers,
                        shared=shared,
                        respawns=pool.respawns - base_respawns,
                        reap_escalations=delta,
                    )

        if evalerror is not None:
            self._raise_eval_error(states, evalerror)

        # Anything parked for in-process execution (poison shards,
        # degradation) runs now, unless we are shutting down.
        if self.stop_reason_text is None and any(st.status == "inprocess" for st in states):
            self._run_inprocess(states)

    # -- in-process fallback -------------------------------------------------

    def _run_inprocess(self, states: list[_ShardState]) -> None:
        """Run every unfinished shard in this process, in stream order.

        Semantics are identical to the workers' (same cursors, same
        global indices); this is both the degradation path and the
        ``workers <= 1`` path."""
        from repro.typecheck.errors import EvaluationError
        from repro.typecheck.result import Verdict

        autosave = self.control.autosave if self.control is not None else None
        for st in sorted(states, key=lambda s: s.spec.start_label):
            if st.status in ("done", "fails", "interrupted"):
                continue
            if any(
                other.status == "fails" and other.spec.start_label < st.spec.start_label
                for other in states
            ):
                break  # first-FAILS-wins: later ranges are irrelevant
            resume = None
            if st.cursor:
                resume = SearchCheckpoint(
                    fingerprint=self.fingerprint,
                    algorithm=self.task.algorithm,
                    labels_consumed=int(st.cursor["labels_consumed"]),
                    values_done=int(st.cursor["values_done"]),
                    stats=dict(st.cursor.get("stats", {})),
                    reason="shard resume",
                )
            shard_obs = None
            if self.obs is not None:
                # Per-shard registry (folded by _merge like a worker's) so
                # in-process and worker execution account identically; the
                # tracer and progress reporter are shared — an in-process
                # shard gets real engine spans, not a parent-side estimate.
                shard_obs = Observability(
                    tracer=self.obs.tracer if self.obs.tracer.enabled else None,
                    telemetry=Telemetry() if self.obs.telemetry is not None else None,
                    progress=self.obs.progress,
                )
            try:
                result = _run_task(
                    self.task,
                    control=self.control,
                    resume_from=resume,
                    shard=st.spec,
                    obs=shard_obs,
                )
            except EvaluationError as exc:
                if exc.checkpoint is not None:
                    st.cursor = {
                        "labels_consumed": exc.checkpoint.labels_consumed,
                        "values_done": exc.checkpoint.values_done,
                        "stats": dict(exc.checkpoint.stats),
                    }
                st.status = "interrupted"
                st.reason = f"evaluator failure: {exc}"
                exc.checkpoint = self._checkpoint(states, st.reason)
                raise
            stats = {k: getattr(result.stats, k) for k in _STAT_KEYS}
            if shard_obs is not None and shard_obs.telemetry is not None:
                st.telemetry = shard_obs.telemetry.to_dict()
            if result.verdict is Verdict.FAILS:
                st.status = "fails"
                st.stats = stats
                st.fails = {
                    "stats": stats,
                    "counterexample": result.counterexample,
                    "output": result.output,
                    "violation": result.violation,
                }
            elif result.verdict is Verdict.INTERRUPTED:
                st.status = "interrupted"
                st.cursor = {
                    "labels_consumed": result.checkpoint.labels_consumed,
                    "values_done": result.checkpoint.values_done,
                    "stats": dict(result.checkpoint.stats),
                }
                st.stats = dict(result.checkpoint.stats)
                st.reason = result.interruption or "interrupted"
                if self.stop_reason_text is None:
                    self.stop_reason_text = st.reason
                break  # the control tripped; remaining shards stay pending
            else:
                st.status = "done"
                st.stats = stats
            if autosave is not None and autosave.due_now():
                autosave.save(self._checkpoint(states, "autosave"))

    # -- merge ---------------------------------------------------------------

    def _checkpoint(self, states: list[_ShardState], reason: str) -> MultiShardCheckpoint:
        plan = self.plan
        return MultiShardCheckpoint(
            fingerprint=self.fingerprint,
            algorithm=self.task.algorithm,
            total_labels=plan.total_labels,
            total_instances=plan.total_instances,
            capped=plan.capped,
            shards=[st.cursor_entry() for st in sorted(states, key=lambda s: s.spec.start_label)],
            reason=reason,
            elapsed_seconds=self._prior_elapsed + (time.monotonic() - self._t0),
        )

    def _raise_eval_error(self, states: list[_ShardState], error: _WorkerEvalError) -> None:
        from repro.typecheck.errors import EvaluationError

        payload = error.payload
        exc = EvaluationError(
            str(payload.get("phase", "query evaluation")),
            int(payload.get("instance_index", -1)),
            payload.get("tree"),
            RuntimeError(str(payload.get("cause", "worker evaluation failure"))),
        )
        exc.checkpoint = self._checkpoint(
            states, f"evaluator failure on instance #{payload.get('instance_index')}"
        )
        raise exc

    def _sharding_stats(self, states: list[_ShardState]) -> Any:
        from repro.typecheck.result import ShardingStats

        return ShardingStats(
            workers=self.workers,
            shards_total=len(states),
            shards_completed=sum(1 for st in states if st.status in ("done", "fails")),
            worker_deaths=self.worker_deaths,
            retries=self.retries,
            resplits=self.resplits,
            degraded=self.degraded,
        )

    def _merge(self, states: list[_ShardState]) -> Any:
        from repro.typecheck.result import SearchStats, TypecheckResult, Verdict
        from repro.typecheck.search import conclude_bounded_search

        budget = self.task.budget
        stats = SearchStats(
            theoretical_bound=self.theoretical_bound,
            budget_max_size=budget.max_size,
            budget_max_instances=budget.max_instances,
        )
        stats.resumed_from_checkpoint = self.resumed
        stats.sharding = self._sharding_stats(states)
        # Wall clock is the supervisor's own (parallel shards overlap, so
        # summing per-shard clocks would overstate it), plus any earlier
        # interrupted runs' from the resumed checkpoint.
        stats.elapsed_seconds = self._prior_elapsed + (time.monotonic() - self._t0)
        telemetry = self.obs.telemetry if self.obs is not None else None

        def add(st: _ShardState) -> None:
            shard_stats = st.stats
            stats.label_trees_checked += int(shard_stats.get("label_trees_checked", 0))
            stats.valued_trees_checked += int(shard_stats.get("valued_trees_checked", 0))
            stats.max_size_reached = max(
                stats.max_size_reached, int(shard_stats.get("max_size_reached", 0))
            )
            # Cache events are counted per label tree, so disjoint ranges
            # sum to exactly the sequential totals (failed worker attempts
            # report nothing; the succeeding attempt redoes the full range).
            stats.cache_hits += int(shard_stats.get("cache_hits", 0))
            stats.cache_misses += int(shard_stats.get("cache_misses", 0))
            # The shard's registry folds in exactly when its stats do —
            # same subset, so merged telemetry counters equal the
            # sequential run's (killed attempts shipped no registry; the
            # surviving attempt's covers its full range).
            if telemetry is not None and st.telemetry:
                telemetry.merge(Telemetry.from_dict(st.telemetry))

        ordered = sorted(states, key=lambda s: s.spec.start_label)
        failing = next((st for st in ordered if st.status == "fails"), None)

        if failing is not None:
            lower = [st for st in ordered if st.spec.start_label <= failing.spec.start_label]
            if all(st.status in ("done", "fails") for st in lower):
                # The sequential run would have evaluated exactly: every
                # range before the failing shard, then the failing
                # shard's prefix up to the violation.
                for st in lower:
                    add(st)
                result = TypecheckResult(
                    Verdict.FAILS,
                    counterexample=failing.fails["counterexample"],
                    output=failing.fails["output"],
                    violation=failing.fails["violation"],
                    stats=stats,
                    algorithm=self.task.algorithm,
                )
                return result
            # A lower range never finished (interrupted mid-run): the
            # failure is not yet provably the earliest one.  Record the
            # failing range as unfinished — determinism re-finds the
            # violation on resume.
            failing.status = "pending"
            failing.cursor = None

        incomplete = [st for st in ordered if st.status != "done"]
        if incomplete:
            reason = self.stop_reason_text or next(
                (st.reason for st in incomplete if st.reason), "interrupted"
            )
            for st in ordered:
                if st.status in ("done",) or st.stats:
                    add(st)
            checkpoint = self._checkpoint(ordered, reason)
            result = TypecheckResult(
                Verdict.INTERRUPTED,
                stats=stats,
                algorithm=self.task.algorithm,
                interruption=reason,
                checkpoint=checkpoint,
            )
            result.notes.append(
                f"sharded search interrupted with {len(incomplete)} of "
                f"{len(ordered)} shards unfinished; resume with "
                "find_counterexample(..., resume_from=result.checkpoint) or the "
                "same CLI command"
            )
            return result

        for st in ordered:
            add(st)
        exhausted_sizes = not self.plan.capped
        result = conclude_bounded_search(
            stats,
            self.task.tau1,
            budget,
            self.theoretical_bound,
            self.plan.needs_values,
            exhausted_sizes,
            self.task.algorithm,
        )
        return result
