"""Fault-tolerant sharded search: exactness under crashes, hangs,
cancellation, and degradation.

The load-bearing property (ISSUE 2 acceptance): with ``workers=4`` and a
deterministic ``worker_kill`` fault plan, every decision procedure
(Theorems 3.1, 3.2, 3.5) returns the *identical* verdict and the
*identical* ``stats.valued_trees_checked`` as an uninterrupted sequential
run — worker deaths cost retries, never correctness.
"""

import pytest

from repro.dtd import DTD
from repro.dtd.generate import count_instances
from repro.ql.ast import Condition, Const, ConstructNode, Edge, Query, Where
from repro.runtime import (
    CheckpointMismatchError,
    FaultInjector,
    FaultPlan,
    MultiShardCheckpoint,
    RuntimeControl,
    SearchCheckpoint,
    WorkerKill,
    plan_shards,
    search_fingerprint,
)
from repro.runtime.checkpoint import checkpoint_from_json
from repro.runtime.control import OperationInterrupted
from repro.runtime.faults import ANY_SHARD
from repro.runtime.shard import ShardSpec, cut_shards, price_by_walk
from repro.runtime.supervisor import ShardedSearch, SupervisorConfig
from repro.trees.data_tree import Node
from repro.typecheck import (
    EvaluationError,
    Verdict,
    typecheck,
    typecheck_regular,
    typecheck_starfree,
    typecheck_unordered,
)
from repro.typecheck.search import SearchBudget, find_counterexample


def copy_query() -> Query:
    return Query(
        where=Where.of("root", [Edge.of(None, "X", "a")]),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )


def condition_query() -> Query:
    return Query(
        where=Where.of("root", [Edge.of(None, "X", "a")], [Condition("X", "=", Const(1))]),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )


# The structure-sharded benchmark's input type: ordered, so no dedupe.
SHARDED_TAU1 = DTD("root", {"root": "(a + b)*", "a": "c*"})
TAU1_UNORDERED = DTD("root", {"root": "a^>=0"}, unordered=True)
TAU2_PERMISSIVE = DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"})
TAU2_STRICT = DTD("out", {"out": "item^=1"}, unordered=True, alphabet={"out", "item"})
BUDGET = SearchBudget(max_size=5)

KILL_EVERY_FIRST_ATTEMPT = RuntimeControl(
    faults=FaultInjector(
        FaultPlan(worker_kills=frozenset({WorkerKill(ANY_SHARD, 0, 2, "kill")}))
    )
)


def kill_control(*kills: WorkerKill) -> RuntimeControl:
    return RuntimeControl(faults=FaultInjector(FaultPlan(worker_kills=frozenset(kills))))


def cancel_control(after: int) -> RuntimeControl:
    return RuntimeControl(faults=FaultInjector(FaultPlan(cancel_after_instances=after)))


def assert_equivalent(sequential, parallel):
    assert parallel.verdict is sequential.verdict
    assert parallel.stats.valued_trees_checked == sequential.stats.valued_trees_checked
    assert parallel.stats.label_trees_checked == sequential.stats.label_trees_checked
    assert parallel.stats.max_size_reached == sequential.stats.max_size_reached


class TestExactnessUnderWorkerKills:
    """Acceptance: identical verdict + identical instance totals vs the
    sequential run, with every shard's first attempt hard-killed."""

    def test_thm31_unordered(self):
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        par = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=kill_control(WorkerKill(ANY_SHARD, 0, 2, "kill")),
            workers=4,
        )
        assert_equivalent(seq, par)
        assert par.stats.sharding is not None
        assert par.stats.sharding.worker_deaths >= 1
        assert par.stats.sharding.retries >= 1

    def test_thm32_starfree(self):
        tau1 = DTD("root", {"root": "a*"})
        tau2 = DTD("out", {"out": "item*"})
        budget = SearchBudget(max_size=6)
        seq = typecheck_starfree(copy_query(), tau1, tau2, budget)
        par = typecheck_starfree(
            copy_query(),
            tau1,
            tau2,
            budget,
            # Single-instance shards: the kill must fire at local index 0,
            # before the only instance, or it never triggers.
            control=kill_control(WorkerKill(ANY_SHARD, 0, 0, "kill")),
            workers=4,
        )
        assert_equivalent(seq, par)
        assert par.stats.sharding.worker_deaths >= 1

    def test_thm35_regular_fails_same_witness(self):
        tau1 = DTD("root", {"root": "a*"})
        tau2 = DTD("out", {"out": "(item.item)*"})  # even item counts only
        budget = SearchBudget(max_size=4)
        seq = typecheck_regular(
            copy_query(), tau1, tau2, budget, assume_projection_free=True
        )
        assert seq.verdict is Verdict.FAILS
        par = typecheck_regular(
            copy_query(),
            tau1,
            tau2,
            budget,
            assume_projection_free=True,
            control=kill_control(WorkerKill(ANY_SHARD, 0, 0, "kill")),
            workers=4,
        )
        assert_equivalent(seq, par)
        assert par.counterexample == seq.counterexample
        assert par.violation == seq.violation

    def test_sequential_run_ignores_worker_kills(self):
        """Worker faults are inert outside supervisor workers: the same
        control threads through a plain sequential run unharmed."""
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        with_plan = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=kill_control(WorkerKill(ANY_SHARD, 0, 0, "kill")),
        )
        assert_equivalent(seq, with_plan)


class TestExactnessPlain:
    def test_parallel_matches_sequential(self):
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        par = typecheck_unordered(
            condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET, workers=4
        )
        assert_equivalent(seq, par)
        assert par.stats.sharding.worker_deaths == 0
        assert not par.stats.sharding.degraded

    def test_first_fails_wins(self):
        """The parallel FAILS witness and its statistics are exactly the
        sequential run's earliest counterexample."""
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_STRICT, BUDGET)
        assert seq.verdict is Verdict.FAILS
        par = typecheck_unordered(
            condition_query(), TAU1_UNORDERED, TAU2_STRICT, BUDGET, workers=4
        )
        assert_equivalent(seq, par)
        assert repr(par.counterexample) == repr(seq.counterexample)
        assert par.violation == seq.violation

    def test_typechecks_proof_survives_sharding(self):
        """A finite space exhausted across shards is still a proof."""
        tau1 = DTD("root", {"root": "a.a?"})
        budget = SearchBudget(max_size=3)
        seq = typecheck_unordered(condition_query(), tau1, TAU2_PERMISSIVE, budget)
        assert seq.verdict is Verdict.TYPECHECKS
        par = typecheck_unordered(
            condition_query(), tau1, TAU2_PERMISSIVE, budget, workers=3
        )
        assert_equivalent(seq, par)
        assert par.stats.exhausted_space

    def test_instance_budget_cap_respected(self):
        budget = SearchBudget(max_size=5, max_instances=40)
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, budget)
        par = typecheck_unordered(
            condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, budget, workers=4
        )
        assert_equivalent(seq, par)
        assert par.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND


class TestShardPlan:
    def test_plan_totals_match_sequential_stats(self):
        query, tau1, tau2 = condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE
        seq = find_counterexample(query, tau1, tau2, budget=BUDGET, algorithm="plan-probe")
        fp = search_fingerprint(query, tau1, tau2, BUDGET, "plan-probe", True)
        plan = plan_shards(query, tau1, tau2, BUDGET, fingerprint=fp, target_shards=7)
        assert plan.total_instances == seq.stats.valued_trees_checked
        assert sum(1 for c in plan.label_counts if c > 0) == seq.stats.label_trees_checked
        # Shards tile [0, total_labels) and partition the instance count.
        assert plan.shards[0].start_label == 0
        assert plan.shards[-1].stop_label == plan.total_labels
        for left, right in zip(plan.shards, plan.shards[1:]):
            assert left.stop_label == right.start_label
        assert sum(s.instance_count for s in plan.shards) == plan.total_instances
        for spec in plan.shards:
            assert spec.instance_base == plan.instance_base_at(spec.start_label)

    def test_capped_plan_never_claims_exhaustion(self):
        budget = SearchBudget(max_size=3, max_instances=5)
        tau1 = DTD("root", {"root": "a.a?"})
        query = condition_query()
        fp = search_fingerprint(query, tau1, TAU2_PERMISSIVE, budget, "x", True)
        plan = plan_shards(query, tau1, TAU2_PERMISSIVE, budget, fingerprint=fp, target_shards=4)
        assert plan.capped
        # The walk may end inside an over-budget tree (the engine breaks
        # at that tree's next candidate), so the planned total can exceed
        # the cap — what matters is that the plan *knows* it is capped.
        assert plan.total_instances >= budget.max_instances

    @pytest.mark.parametrize("cap_shift", [None, 0, -1])
    def test_count_priced_plan_equals_the_walked_plan(self, cap_shift, monkeypatch):
        """Without conditions or dedupe the plan comes from the count;
        the walk, kept for the other searches, is its oracle — including
        an instance budget of exactly N and N - 1 trees."""
        query, tau1, tau2 = copy_query(), SHARDED_TAU1, TAU2_PERMISSIVE
        n = count_instances(tau1, 7)
        max_instances = 200_000 if cap_shift is None else n + cap_shift
        budget = SearchBudget(max_size=7, max_instances=max_instances)
        walked, walked_capped = price_by_walk(query, tau1, tau2, budget)
        fp = search_fingerprint(query, tau1, tau2, budget, f"count-{cap_shift}", True)

        def no_walk(*args, **kwargs):
            raise AssertionError("a condition-free plan must not walk the stream")

        monkeypatch.setattr("repro.dtd.generate.enumerate_instances", no_walk)
        plan = plan_shards(query, tau1, tau2, budget, fingerprint=fp, target_shards=5)
        assert plan.label_counts == walked
        assert plan.capped is walked_capped is (cap_shift == -1)
        assert plan.shards == cut_shards(walked, 5)
        assert plan.total_labels == len(walked) and plan.total_instances == sum(walked)

    def test_split_point_halves_instances(self):
        query, tau1, tau2 = condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE
        fp = search_fingerprint(query, tau1, tau2, BUDGET, "x", True)
        plan = plan_shards(query, tau1, tau2, BUDGET, fingerprint=fp, target_shards=1)
        assert len(plan.shards) == 1
        whole = plan.shards[0]
        mid = plan.split_point(whole.start_label, whole.stop_label)
        assert mid is not None and whole.start_label < mid < whole.stop_label
        left = plan.subrange(whole.start_label, mid)
        right = plan.subrange(mid, whole.stop_label)
        assert left.instance_count + right.instance_count == whole.instance_count
        assert right.instance_base == left.instance_base + left.instance_count
        # A single label tree cannot split further.
        assert plan.split_point(0, 1) is None


class TestInterruptAndResume:
    @pytest.mark.parametrize("cut", [0, 1, 17, 100])
    def test_parallel_interrupt_then_parallel_resume(self, cut):
        full = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        r1 = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=cancel_control(cut),
            workers=4,
        )
        assert r1.verdict is Verdict.INTERRUPTED
        # Workers see *global* instance indices, so the injected cut
        # reproduces the sequential interruption point exactly.
        assert r1.stats.valued_trees_checked == cut
        r2 = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            resume_from=r1.checkpoint,
            workers=4,
        )
        assert_equivalent(full, r2)
        assert r2.stats.resumed_from_checkpoint

    def test_starfree_interrupt_then_resume(self):
        """Thm 3.2 acceptance: interrupted + resumed sharded search ==
        uninterrupted sequential, through the relabeling compilation."""
        tau1 = DTD("root", {"root": "a*"})
        tau2 = DTD("out", {"out": "item*"})
        budget = SearchBudget(max_size=6)
        full = typecheck_starfree(copy_query(), tau1, tau2, budget)
        r1 = typecheck_starfree(
            copy_query(), tau1, tau2, budget, control=cancel_control(3), workers=4
        )
        assert r1.verdict is Verdict.INTERRUPTED
        assert r1.stats.valued_trees_checked == 3
        r2 = typecheck_starfree(
            copy_query(), tau1, tau2, budget, resume_from=r1.checkpoint, workers=4
        )
        assert_equivalent(full, r2)
        assert r2.stats.resumed_from_checkpoint

    def test_regular_interrupt_then_resume(self):
        """Thm 3.5 acceptance: same drill through the profile-decomposition
        procedure (an all-counts-accepting DTD, so the search exhausts)."""
        tau1 = DTD("root", {"root": "a*"})
        tau2 = DTD("out", {"out": "(item.item)*.item?"})
        budget = SearchBudget(max_size=5)
        full = typecheck_regular(
            condition_query(), tau1, tau2, budget, assume_projection_free=True
        )
        r1 = typecheck_regular(
            condition_query(),
            tau1,
            tau2,
            budget,
            assume_projection_free=True,
            control=cancel_control(20),
            workers=4,
        )
        assert r1.verdict is Verdict.INTERRUPTED
        assert r1.stats.valued_trees_checked == 20
        r2 = typecheck_regular(
            condition_query(),
            tau1,
            tau2,
            budget,
            assume_projection_free=True,
            resume_from=r1.checkpoint,
            workers=4,
        )
        assert_equivalent(full, r2)
        assert r2.stats.resumed_from_checkpoint

    def test_multi_checkpoint_survives_json(self):
        r1 = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=cancel_control(40),
            workers=4,
        )
        ckpt = r1.checkpoint
        if isinstance(ckpt, SearchCheckpoint):
            pytest.skip("cut fell during planning; nothing sharded to round-trip")
        revived = checkpoint_from_json(ckpt.to_json())
        assert isinstance(revived, MultiShardCheckpoint)
        assert revived == ckpt

    def test_sharded_checkpoint_resumes_sequentially(self):
        """Cross-version degradation: a multi-shard checkpoint handed to
        a sequential run finishes in-process with identical totals."""
        full = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        r1 = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=cancel_control(60),
            workers=4,
        )
        assert isinstance(r1.checkpoint, MultiShardCheckpoint)
        r2 = typecheck_unordered(
            condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET,
            resume_from=r1.checkpoint,
        )
        assert_equivalent(full, r2)

    def test_v1_checkpoint_degrades_parallel_run(self):
        """The mirror-image degradation: a sequential checkpoint handed
        to a parallel run finishes sequentially (with a note), exactly."""
        full = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        r1 = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=cancel_control(30),
        )
        assert isinstance(r1.checkpoint, SearchCheckpoint)
        r2 = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            resume_from=r1.checkpoint,
            workers=4,
        )
        assert_equivalent(full, r2)
        assert any("sequential" in note for note in r2.notes)

    def test_mismatched_checkpoint_rejected(self):
        r1 = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=cancel_control(60),
            workers=4,
        )
        assert isinstance(r1.checkpoint, MultiShardCheckpoint)
        with pytest.raises(CheckpointMismatchError):
            typecheck_unordered(
                condition_query(),
                TAU1_UNORDERED,
                TAU2_PERMISSIVE,
                SearchBudget(max_size=4),  # different budget, different search
                resume_from=r1.checkpoint,
                workers=4,
            )

    def test_expired_deadline_interrupts_planning_losslessly(self):
        control = RuntimeControl.with_deadline(0)
        res = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=control,
            workers=4,
        )
        assert res.verdict is Verdict.INTERRUPTED
        assert res.interruption == "deadline expired"
        assert res.checkpoint is not None
        assert res.stats.valued_trees_checked == 0

    def test_expired_deadline_interrupts_count_priced_planning_losslessly(self):
        """The condition-free twin: the plan is priced by the count, not
        by a walk, and must still poll ``control``."""
        tau1 = DTD("root", {"root": "a*.b?"})
        budget = SearchBudget(max_size=5, max_instances=4_321)  # a fresh plan
        fp = search_fingerprint(copy_query(), tau1, TAU2_PERMISSIVE, budget, "twin", True)
        with pytest.raises(OperationInterrupted):
            plan_shards(
                copy_query(), tau1, TAU2_PERMISSIVE, budget, fingerprint=fp,
                target_shards=4, control=RuntimeControl.with_deadline(0),
            )
        res = typecheck(
            copy_query(), tau1, TAU2_PERMISSIVE, budget,
            assume_projection_free=True, control=RuntimeControl.with_deadline(0), workers=4,
        )
        assert res.verdict is Verdict.INTERRUPTED
        assert res.interruption == "deadline expired"
        assert res.checkpoint is not None
        assert res.stats.valued_trees_checked == 0


class _RootCounter(Node):
    """A ``Node`` that counts how many roots the enumerator builds."""

    __slots__ = ()
    built = 0

    def __init__(self, label, children=None, value=None):
        if label == "root":
            type(self).built += 1
        super().__init__(label, children, value)


class TestSeekingRanges:
    """A shard range or a resume starts the label-tree stream at its
    cursor: no tree before it is built."""

    def _spy(self, monkeypatch):
        _RootCounter.built = 0
        monkeypatch.setattr("repro.dtd.generate.Node", _RootCounter)
        return _RootCounter

    def test_shard_builds_only_its_range(self, monkeypatch):
        budget = SearchBudget(max_size=7)
        spy = self._spy(monkeypatch)
        res = find_counterexample(
            copy_query(), SHARDED_TAU1, TAU2_PERMISSIVE, budget=budget,
            shard=ShardSpec(100, 140, 100, 40),
        )
        assert res.stats.label_trees_checked == 40
        assert spy.built == 40

    def test_resume_builds_only_from_its_cursor(self, monkeypatch):
        budget = SearchBudget(max_size=7)
        n = count_instances(SHARDED_TAU1, 7)
        cut = find_counterexample(
            copy_query(), SHARDED_TAU1, TAU2_PERMISSIVE, budget=budget,
            control=cancel_control(150),
        )
        assert cut.verdict is Verdict.INTERRUPTED
        assert cut.checkpoint.labels_consumed == 150
        spy = self._spy(monkeypatch)
        resumed = find_counterexample(
            copy_query(), SHARDED_TAU1, TAU2_PERMISSIVE, budget=budget,
            resume_from=cut.checkpoint,
        )
        assert spy.built == n - 150
        assert resumed.stats.label_trees_checked == n


class TestHangDetectionAndDegradation:
    def test_hung_worker_is_killed_and_shard_retried(self):
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        par = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=kill_control(WorkerKill(0, 0, 1, "hang")),  # first shard only
            workers=2,
            supervisor=SupervisorConfig(
                workers=2, heartbeat_interval=0.05, hang_timeout=0.6
            ),
        )
        assert_equivalent(seq, par)
        assert par.stats.sharding.worker_deaths >= 1

    def test_poison_shard_resplits_until_inprocess(self):
        """Kill attempts 0 and 1 of every shard with shard_retries=1:
        shards re-split, their halves die again, and the leftover label
        trees finish in-process — still exact."""
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        par = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=kill_control(
                WorkerKill(ANY_SHARD, 0, 0, "kill"), WorkerKill(ANY_SHARD, 1, 0, "kill")
            ),
            workers=2,
            supervisor=SupervisorConfig(
                workers=2, shard_retries=1, shards_per_worker=2, max_total_failures=1000
            ),
        )
        assert_equivalent(seq, par)
        assert par.stats.sharding.resplits >= 1

    def test_too_many_deaths_degrades_to_inprocess(self):
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        par = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=kill_control(
                *(WorkerKill(ANY_SHARD, a, 0, "kill") for a in range(8))
            ),
            workers=2,
            supervisor=SupervisorConfig(workers=2, max_total_failures=2),
        )
        assert_equivalent(seq, par)
        assert par.stats.sharding.degraded

    def test_workers_one_runs_inprocess(self):
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        par = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            supervisor=SupervisorConfig(workers=1),
        )
        # workers=1 short-circuits the supervisor entirely; the plain
        # sequential engine runs (no sharding stats attached).
        assert_equivalent(seq, par)


class TestWorkerEvaluatorErrors:
    def test_evaluator_failure_relayed_with_checkpoint(self):
        """An evaluator exception inside a worker surfaces in the parent
        as the same structured EvaluationError, carrying a multi-shard
        checkpoint that resumes past-and-around the failure."""
        control = RuntimeControl(
            faults=FaultInjector(FaultPlan(fail_instances=frozenset({25})))
        )
        with pytest.raises(EvaluationError) as info:
            typecheck_unordered(
                condition_query(),
                TAU1_UNORDERED,
                TAU2_PERMISSIVE,
                BUDGET,
                control=control,
                workers=4,
            )
        exc = info.value
        assert exc.instance_index == 25
        assert isinstance(exc.checkpoint, MultiShardCheckpoint)
        # Resume without the fault: the search completes exactly.
        full = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        resumed = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            resume_from=exc.checkpoint,
            workers=4,
        )
        assert_equivalent(full, resumed)


class TestApiAndTaskPlumbing:
    def test_typecheck_front_door_accepts_workers(self):
        seq = typecheck(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, budget=BUDGET)
        par = typecheck(
            condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, budget=BUDGET, workers=3
        )
        assert_equivalent(seq, par)
        assert par.stats.sharding.workers == 3

    def test_summary_mentions_sharding(self):
        par = typecheck_unordered(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=kill_control(WorkerKill(ANY_SHARD, 0, 2, "kill")),
            workers=4,
        )
        text = par.summary()
        assert "sharded over 4 workers" in text
        assert "worker deaths" in text

    def test_sharded_search_direct(self):
        from repro.runtime.shard import SearchTask

        task = SearchTask(
            algorithm="thm-3.1-unordered",
            query=condition_query(),
            tau1=TAU1_UNORDERED,
            tau2=TAU2_PERMISSIVE,
            budget=BUDGET,
        )
        seq = typecheck_unordered(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        res = ShardedSearch(task, config=SupervisorConfig(workers=2)).run()
        assert_equivalent(seq, res)


class TestHeartbeatTimeoutOverride:
    """`typecheck(..., heartbeat_timeout=)` — the hang-detection
    threshold as a first-class API knob (mirrored by the CLI's
    ``--heartbeat-timeout``)."""

    def test_slow_worker_is_reaped_and_run_stays_exact(self):
        seq = typecheck(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        par = typecheck(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=kill_control(WorkerKill(0, 0, 1, "hang")),
            workers=2,
            supervisor=SupervisorConfig(workers=2, heartbeat_interval=0.05),
            heartbeat_timeout=0.6,
        )
        assert_equivalent(seq, par)
        assert par.stats.sharding.worker_deaths >= 1

    def test_overrides_explicit_supervisor_config(self):
        seq = typecheck(condition_query(), TAU1_UNORDERED, TAU2_PERMISSIVE, BUDGET)
        # The config says "wait an hour"; the argument wins and the hung
        # worker is reaped fast enough for this test to finish.
        par = typecheck(
            condition_query(),
            TAU1_UNORDERED,
            TAU2_PERMISSIVE,
            BUDGET,
            control=kill_control(WorkerKill(0, 0, 1, "hang")),
            workers=2,
            supervisor=SupervisorConfig(
                workers=2, heartbeat_interval=0.05, hang_timeout=3600.0
            ),
            heartbeat_timeout=0.6,
        )
        assert_equivalent(seq, par)
        assert par.stats.sharding.worker_deaths >= 1

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            typecheck(
                condition_query(),
                TAU1_UNORDERED,
                TAU2_PERMISSIVE,
                BUDGET,
                heartbeat_timeout=0.0,
            )
