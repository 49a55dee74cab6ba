"""Persistent worker pool: reuse across runs, leak-free teardown,
escalating reap, per-range deadlines, and the supporting fixes
(thread-safe compile memo, in-flight checkpoint cursors).

The pool's correctness contract is inherited wholesale from the
supervisor suite (exactness under kills, first-FAILS-wins, resume);
this file covers what is *new* in the pooled design: worker processes
that outlive one ``typecheck()`` call, the no-leaked-children teardown
guarantee, and deadlines carried per stolen range instead of per worker
lifetime.
"""

import multiprocessing
import os
import signal
import threading
import time

from repro.dtd import DTD
from repro.ql.ast import ConstructNode, Edge, Query, Where
from repro.runtime import FaultInjector, FaultPlan, RuntimeControl, WorkerKill
from repro.runtime.checkpoint import ShardCursor
from repro.runtime.control import Deadline
from repro.runtime.faults import ANY_SHARD
from repro.runtime.pool import WorkerPool, reap_process
from repro.typecheck import Verdict, typecheck
from repro.typecheck.search import SearchBudget


def copy_query() -> Query:
    return Query(
        where=Where.of("root", [Edge.of(None, "X", "a")]),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )


TAU1 = DTD("root", {"root": "a*"})
TAU1_WIDE = DTD("root", {"root": "(a + b)*"})
TAU2 = DTD("out", {"out": "(item.item)*.item?"})
BUDGET = SearchBudget(max_size=5)


def assert_no_pool_children():
    """No worker process survives teardown (the pool-leak CI check).
    active_children() joins finished processes as a side effect."""
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestPoolReuse:
    def test_same_processes_serve_consecutive_typechecks(self):
        seq = typecheck(copy_query(), TAU1, TAU2, BUDGET, assume_projection_free=True)
        with WorkerPool(2) as pool:
            pids = sorted(m.proc.pid for m in pool.members)
            first = typecheck(
                copy_query(), TAU1, TAU2, BUDGET,
                assume_projection_free=True, pool=pool,
            )
            second = typecheck(
                copy_query(), TAU1, TAU2, BUDGET,
                assume_projection_free=True, pool=pool,
            )
            # Both runs are exact, and neither replaced a single process:
            # the whole point of the pool is that workers (and their
            # compiled tables) survive across calls.
            assert sorted(m.proc.pid for m in pool.members) == pids
            assert pool.respawns == 0
        for result in (first, second):
            assert result.verdict is seq.verdict
            assert result.stats.valued_trees_checked == seq.stats.valued_trees_checked
            assert result.stats.sharding is not None
            assert not result.stats.sharding.degraded
            assert result.stats.sharding.worker_deaths == 0
        assert_no_pool_children()

    def test_shared_pool_survives_worker_kills(self):
        seq = typecheck(copy_query(), TAU1, TAU2, BUDGET, assume_projection_free=True)
        control = RuntimeControl(
            faults=FaultInjector(
                FaultPlan(worker_kills=frozenset({WorkerKill(ANY_SHARD, 0, 0, "kill")}))
            )
        )
        with WorkerPool(2) as pool:
            killed = typecheck(
                copy_query(), TAU1, TAU2, BUDGET,
                assume_projection_free=True, control=control, pool=pool,
            )
            assert killed.stats.sharding.worker_deaths >= 1
            assert pool.respawns >= 1
            # The pool is still whole and still exact on the next run.
            clean = typecheck(
                copy_query(), TAU1, TAU2, BUDGET,
                assume_projection_free=True, pool=pool,
            )
        assert killed.verdict is seq.verdict
        assert killed.stats.valued_trees_checked == seq.stats.valued_trees_checked
        assert clean.verdict is seq.verdict
        assert clean.stats.valued_trees_checked == seq.stats.valued_trees_checked
        assert_no_pool_children()


class TestPoolTeardown:
    def test_private_pool_leaves_no_children(self):
        from repro.runtime.supervisor import SupervisorConfig

        # No explicit pool: the supervisor starts one and must close it.
        # adaptive_sequential=False forces real worker processes even on
        # a 1-core host — this test is about their teardown.
        result = typecheck(
            copy_query(), TAU1, TAU2, BUDGET,
            assume_projection_free=True,
            supervisor=SupervisorConfig(workers=2, adaptive_sequential=False),
        )
        assert result.stats.sharding is not None
        assert result.stats.sharding.workers == 2
        assert_no_pool_children()

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.ensure_started()
        assert len(pool.members) == 2
        pool.close()
        pool.close()
        assert pool.members == []
        assert_no_pool_children()


def _exit_quietly():
    os._exit(0)


def _ignore_sigterm_and_sleep():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(3600)


class TestReapEscalation:
    """The old reap did ``join(timeout=1.0)`` and dropped the handle even
    on timeout, silently leaking a live child.  ``reap_process`` must
    escalate terminate -> kill with bounded re-joins and report it."""

    def test_exited_process_needs_no_escalation(self):
        proc = multiprocessing.Process(target=_exit_quietly)
        proc.start()
        proc.join()
        assert reap_process(proc) == 0
        assert not proc.is_alive()

    def test_sigterm_immune_process_is_killed_not_leaked(self):
        proc = multiprocessing.Process(target=_ignore_sigterm_and_sleep, daemon=True)
        proc.start()
        # Wait for the SIGTERM handler to be installed; the parent can't
        # observe it directly, so give the child a beat.
        time.sleep(0.3)
        steps = reap_process(proc, join_timeout=0.2)
        assert steps == 2  # join timed out, terminate ignored, kill worked
        assert not proc.is_alive()

    def test_escalation_increments_pool_counter(self):
        pool = WorkerPool(1)
        pool.ensure_started()
        member = pool.members[0]
        # Simulate a wedged worker: replace its process with one that
        # ignores SIGTERM, then close the pool.
        member.proc.kill()
        member.proc.join()
        stubborn = multiprocessing.Process(target=_ignore_sigterm_and_sleep, daemon=True)
        stubborn.start()
        time.sleep(0.3)
        member.proc = stubborn
        pool.close()
        assert pool.reap_escalations >= 1
        assert not stubborn.is_alive()
        assert_no_pool_children()


class GrantedDeadline(Deadline):
    """A deadline the test scripts per dispatch: the supervisor reads
    ``remaining()`` once for each range it hands to a pooled worker, and
    the n-th read returns ``grants[n]`` (0 once they run out).  Its own
    clock never expires, so every interruption comes from a worker's
    per-range deadline, inside the range, whatever the timing."""

    def __init__(self, *grants: float) -> None:
        super().__init__(float("inf"))
        self.grants = list(grants)

    def expired(self) -> bool:
        return False

    def remaining(self) -> float:
        return self.grants.pop(0) if self.grants else 0.0


class TestPerRangeDeadlines:
    """Satellite: ``deadline_seconds`` used to be computed once at worker
    start; a pooled worker outliving one run would hold a stale value.
    Deadlines now ride each steal dispatch."""

    def test_deadline_expiring_mid_pool_lifetime_is_exact(self):
        big_budget = SearchBudget(max_size=8)
        seq = typecheck(
            copy_query(), TAU1_WIDE, TAU2, big_budget, assume_projection_free=True
        )
        with WorkerPool(2) as pool:
            # Run 1: no deadline at all — if deadlines were captured at
            # pool startup, this run would pin "no deadline" forever.
            warm = typecheck(
                copy_query(), TAU1, TAU2, BUDGET,
                assume_projection_free=True, pool=pool,
            )
            assert warm.verdict is not Verdict.INTERRUPTED
            # Run 2, same workers: the first range is granted an hour and
            # finishes; every later range is dispatched with 0 s left and
            # must stop at its first instance with a resumable cursor.
            granted = RuntimeControl(deadline=GrantedDeadline(3600.0))
            interrupted = typecheck(
                copy_query(), TAU1_WIDE, TAU2, big_budget,
                assume_projection_free=True, control=granted, pool=pool,
            )
            assert interrupted.verdict is Verdict.INTERRUPTED
            assert interrupted.interruption == "deadline expired"
            assert interrupted.checkpoint is not None
            assert 0 < interrupted.stats.valued_trees_checked < seq.stats.valued_trees_checked
            # Run 3, same workers again: resuming finishes the search
            # with exactly the sequential totals — the cursor was exact.
            resumed = typecheck(
                copy_query(), TAU1_WIDE, TAU2, big_budget,
                assume_projection_free=True,
                resume_from=interrupted.checkpoint, pool=pool,
            )
        assert resumed.verdict is seq.verdict
        # Shard cursors carry cumulative per-shard stats, so the resumed
        # run's merged totals already equal the sequential run's.
        assert resumed.stats.valued_trees_checked == seq.stats.valued_trees_checked
        assert resumed.stats.label_trees_checked == seq.stats.label_trees_checked
        assert_no_pool_children()


class TestCompileMemoThreadSafety:
    """Satellite: the process-level compile memo is hit concurrently by
    the service scheduler's slice threads; the LRU bookkeeping must not
    corrupt or raise under contention."""

    def test_concurrent_lookups_and_evictions(self):
        from repro.ql.compile import _MEMO_MAX, _memo, compiled_query_for

        def query_n(n: int) -> Query:
            return Query(
                where=Where.of("root", [Edge.of(None, "X", f"a{n}")]),
                construct=ConstructNode("out", (), (ConstructNode(f"item{n}", ("X",)),)),
            )

        # More distinct keys than the LRU holds, so eviction churns.
        queries = [query_n(n) for n in range(_MEMO_MAX * 2)]
        alphabets = [frozenset({f"a{n}", "out", f"item{n}"}) for n in range(len(queries))]
        errors: list[BaseException] = []
        start = threading.Barrier(8)

        def hammer(seed: int) -> None:
            try:
                start.wait(timeout=10)
                for i in range(300):
                    n = (seed * 7 + i) % len(queries)
                    compiled = compiled_query_for(queries[n], alphabets[n])
                    assert compiled.query == queries[n]
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(_memo) <= _MEMO_MAX

    def test_racing_threads_share_one_compilation(self):
        from repro.ql.compile import compiled_query_for

        query = copy_query()
        alphabet = frozenset({"a", "out", "item"})
        results = []
        start = threading.Barrier(4)

        def fetch() -> None:
            start.wait(timeout=10)
            results.append(compiled_query_for(query, alphabet))

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 4
        # First insert wins: every caller got the same object, so eval
        # caches are shared rather than split across duplicates.
        assert all(r is results[0] for r in results)


class TestInFlightCursor:
    """The version-2 checkpoint extension: ranges dispatched but
    unfinished are flagged, compatibly in both directions."""

    def test_round_trip(self):
        cursor = ShardCursor(3, 7, 12, labels_consumed=5, values_done=2, in_flight=True)
        revived = ShardCursor.from_dict(cursor.to_dict())
        assert revived == cursor
        assert revived.in_flight is True

    def test_old_documents_default_to_not_in_flight(self):
        # A pre-pool version-2 document has no in_flight key.
        legacy = {
            "start_label": 0,
            "stop_label": 4,
            "instance_base": 0,
            "done": False,
            "labels_consumed": 2,
            "values_done": 1,
            "stats": {},
        }
        revived = ShardCursor.from_dict(legacy)
        assert revived.in_flight is False

    def test_autosave_marks_running_ranges(self):
        from repro.runtime.supervisor import _ShardState
        from repro.runtime.shard import ShardSpec

        running = _ShardState(spec=ShardSpec(2, 5, 9, 4), status="running")
        entry = running.cursor_entry()
        assert entry.in_flight is True
        assert entry.labels_consumed == 2  # restart-from-scratch cursor
        done = _ShardState(spec=ShardSpec(0, 2, 0, 9), status="done", stats={"x": 1})
        assert done.cursor_entry().in_flight is False
