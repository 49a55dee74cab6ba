"""The bounded counterexample search engine.

Every decidable case in the paper is proved by the same schema: *if the
query ever violates the output type, it does so on an input no larger than
a computable bound* — then "we simply guess a T0 ... and verify".  This
module is the verifier made real: enumerate ``inst(tau1)`` in increasing
size, layer the semantically distinct data-value assignments on top
(DTDs never constrain values, but queries test them), evaluate the query,
validate the output.

The verdict is exact about what was proven:

* a violation is re-verified and returned as ``FAILS`` with the witness;
* ``TYPECHECKS`` is returned only when the search provably exhausted the
  space — either all of ``inst(tau1)`` (finite instance space) or the
  theoretical bound — with a complete value palette;
* ``INTERRUPTED`` is returned when a :class:`~repro.runtime.RuntimeControl`
  (deadline, cancellation, memory ceiling) stopped the search early; the
  result carries a resumable :class:`~repro.runtime.SearchCheckpoint`;
* otherwise ``NO_COUNTEREXAMPLE_FOUND``.

Resumability rests on determinism: the search sequence (label trees in
increasing size, then value assignments per tree) is a fixed order, so a
checkpoint is a cursor ``(labels_consumed, values_done)`` into it.
``resume_from=`` starts the label-tree stream at the cursor (it seeks;
only sibling-order dedupe replays the trees before it, without
evaluating anything, to rebuild its set of shapes already seen) and
continues, making an interrupted-then-resumed run perform exactly the
evaluations — and reach exactly the verdict and statistics — of an
uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Callable, Optional, Union

from repro.dtd.content import ContentKind, SLContent
from repro.dtd.core import DTD, ValidationResult
from repro.dtd.generate import enumerate_instances, max_instance_size
from repro.dtd.specialized import SpecializedDTD
from repro.obs import Observability
from repro.obs.trace import NULL_TRACER
from repro.ql.analysis import constants_used, has_data_conditions, value_relevant_tags
from repro.ql.ast import Query
from repro.ql.compile import BoundTree, compiled_query_for
from repro.ql.eval import evaluate
from repro.runtime.checkpoint import (
    CheckpointMismatchError,
    MultiShardCheckpoint,
    SearchCheckpoint,
    search_fingerprint,
)
from repro.runtime.control import OperationInterrupted, RuntimeControl
from repro.runtime.shard import SearchTask, ShardSpec, plan_shards
from repro.trees.data_tree import DataTree, Node
from repro.trees.values import assign_values, value_decoder, walk_value_codes
from repro.typecheck.errors import EvaluationError, WitnessVerificationError
from repro.typecheck.result import SearchStats, TypecheckResult, Verdict

OutputValidator = Callable[[DataTree], ValidationResult]


@dataclass(slots=True)
class SearchBudget:
    """Practical limits for the anytime search."""

    max_size: int = 8
    """Largest input label tree considered (node count)."""

    max_value_classes: Optional[int] = None
    """Cap on distinct anonymous data values per tree (``None`` = as many
    as there are nodes — complete)."""

    max_instances: int = 200_000
    """Cap on the total number of valued inputs evaluated (enforced
    *before* evaluation: the engine never evaluates instance number
    ``max_instances + 1``)."""

    prune_value_tags: bool = True
    """Enumerate value assignments only over nodes whose tags condition
    variables can bind to (sound and complete; see
    :func:`_value_relevant_tags`).  Disable for the ablation benchmark."""

    dedupe_sibling_order: bool = True
    """Skip sibling reorderings of already-checked label trees when both
    the input DTD and the output type are unordered (sound; see
    :func:`_order_insensitive`).  Disable for the ablation benchmark."""


def _validator_for(output_type: Union[DTD, SpecializedDTD, OutputValidator]) -> OutputValidator:
    if isinstance(output_type, (DTD, SpecializedDTD)):
        return output_type.validate
    return output_type


# The analysis moved to :func:`repro.ql.analysis.value_relevant_tags` so
# the compile layer can share it without importing the typecheck package;
# the old private name stays importable (the shard planner uses it).
_value_relevant_tags = value_relevant_tags


# Interning table for canonical label structures: (label, sorted child
# ids) -> small int.  Process-wide on purpose — ids must compare equal
# across separately canonicalized trees, and the dedupe sets that consume
# them are rebuilt from scratch on checkpoint resume.
_canonical_ids: dict[tuple, int] = {}


def _unordered_canonical(node: Node) -> int:
    """Label-structure key invariant under sibling reordering.

    Iterative (explicit post-order) AND hash-consed: each distinct shape
    is interned to a flat integer, so trees deeper than the Python
    recursion limit — which the enumerator can legitimately produce for
    chain-shaped DTDs — neither blow the stack during construction nor
    during the (otherwise deeply recursive) tuple hashing/comparison that
    set membership would trigger.
    """
    ids: dict[int, int] = {}
    for n in node.iter_postorder():
        shape = (n.label, tuple(sorted(ids[id(c)] for c in n.children)))
        interned = _canonical_ids.get(shape)
        if interned is None:
            interned = len(_canonical_ids)
            _canonical_ids[shape] = interned
        ids[id(n)] = interned
    return ids[id(node)]


def _order_insensitive(tau1: DTD, output_type) -> bool:
    """Whether the search may consider label trees modulo sibling order:
    sound when the input DTD is unordered (SL content everywhere, so the
    reordered tree is also an instance) and the output type is unordered
    (validation never reads sibling order).  Query bindings are
    order-insensitive by construction (paths are vertical)."""
    if tau1.kind() is not ContentKind.UNORDERED:
        return False
    if isinstance(output_type, DTD):
        return output_type.kind() is ContentKind.UNORDERED
    if isinstance(output_type, SpecializedDTD):
        return output_type.dtd_prime.kind() is ContentKind.UNORDERED
    return False


# The walk of a condition-free label tree: its one (empty) code vector.
_NO_CODES = ((0, ()),)


@lru_cache(maxsize=64)
def _fresh_decoder(n_nodes: int) -> Callable[[tuple], tuple]:
    """The decoder of a condition-free search for trees of ``n_nodes``
    nodes: every node a distinct fresh value, one filler per size."""
    filler = tuple(f"_v{i}" for i in range(n_nodes))
    return lambda codes: filler


def _value_codes(
    labels: DataTree, needs_values: bool, constants, max_classes, relevant_tags, start: int = 0
):
    """The value-code walk of a label tree (from position ``start``) and
    its decoder.

    The walk (:func:`~repro.trees.values.walk_value_codes`) yields
    ``(first changed position, codes)``; the codes cover the nodes whose
    tags the query can compare (``relevant_tags``, ``None`` = all of
    them), listed in ``positions``; ``decode(codes)`` builds the full
    document-order value vector, giving every other node a unique fresh
    value.  Without data conditions the walk is one empty code vector that
    decodes to all-distinct values — the coarsest assignment satisfying
    every != and no =, the same candidate as fresh_values().

    This is the *shared* enumeration order of the cached and uncached
    evaluation paths — checkpoints, shard cursors, and fault-injection
    indices count the same stream either way."""
    if not needs_values:
        return [], _NO_CODES[start:], _fresh_decoder(labels.size())
    nodes = labels.nodes()
    if relevant_tags is None:
        positions = list(range(len(nodes)))
    else:
        positions = [i for i, n in enumerate(nodes) if n.label in relevant_tags]
    table = value_decoder(len(positions), constants, max_classes)
    filler = [f"_u{i}" for i in range(len(nodes))]

    def decode(codes: tuple[int, ...]) -> tuple:
        values = list(filler)
        for i, code in zip(positions, codes):
            values[i] = table[code]
        return tuple(values)

    walk = walk_value_codes(len(positions), len(dict.fromkeys(constants)), max_classes, start)
    return positions, walk, decode


def _stop_reason(control: Optional[RuntimeControl], next_instance_index: int) -> Optional[str]:
    """The cooperative per-instance poll: deadline/cancel/memory first,
    then any fault-injection plan (tests).  ``next_instance_index`` is
    *global* (shard ``instance_base`` included), so fault plans address
    the same tree in sequential, resumed, and sharded runs."""
    if control is None:
        return None
    if control.on_tick is not None:
        control.on_tick(next_instance_index)
    reason = control.stop_reason()
    if reason is not None:
        return reason
    faults = control.faults
    if faults is not None:
        return faults.stop_reason(next_instance_index)
    return None


def conclude_bounded_search(
    stats: SearchStats,
    tau1: DTD,
    budget: SearchBudget,
    theoretical_bound: Optional[int | float],
    needs_values: bool,
    exhausted_sizes: bool,
    algorithm: str,
) -> TypecheckResult:
    """Decide what a violation-free exploration proved.

    Shared verbatim by the sequential engine and the sharded supervisor's
    merge step, so a parallel run can never claim more (or less) than the
    equivalent sequential run would."""
    space_bound = max_instance_size(tau1)
    covered_all_label_trees = exhausted_sizes and (
        (space_bound is not None and space_bound <= budget.max_size)
        or (theoretical_bound is not None and theoretical_bound <= budget.max_size)
    )
    values_complete = (not needs_values) or budget.max_value_classes is None
    stats.exhausted_space = covered_all_label_trees and values_complete

    if stats.exhausted_space:
        return TypecheckResult(Verdict.TYPECHECKS, stats=stats, algorithm=algorithm)
    result = TypecheckResult(
        Verdict.NO_COUNTEREXAMPLE_FOUND, stats=stats, algorithm=algorithm
    )
    if theoretical_bound is not None and theoretical_bound > budget.max_size:
        result.notes.append(
            f"budget max_size={budget.max_size} is below the theoretical bound; "
            "the verdict is not a completeness proof"
        )
    return result


def find_counterexample(
    query: Query,
    tau1: DTD,
    output_type: Union[DTD, SpecializedDTD, OutputValidator],
    budget: Optional[SearchBudget] = None,
    theoretical_bound: Optional[int | float] = None,
    vacuous_output_ok: bool = True,
    algorithm: str = "bounded-search",
    control: Optional[RuntimeControl] = None,
    resume_from: Optional[SearchCheckpoint] = None,
    shard: Optional[ShardSpec] = None,
    use_eval_cache: bool = True,
    obs: Optional[Observability] = None,
) -> TypecheckResult:
    """Search ``inst(tau1)`` (up to the budget) for a tree whose query
    output violates the output type.

    ``obs`` attaches telemetry (:class:`repro.obs.Observability`): span
    tracing, phase histograms, and live progress.  Like the eval cache it
    changes *nothing observable* in the verdict or statistics; disabled
    (the default ``None``) it costs one attribute check per instance.

    ``use_eval_cache`` selects the compile-once evaluation path
    (:mod:`repro.ql.compile`): edge DFAs compiled once per run over the
    DTD alphabet, per-tree structure cached across value assignments, no
    per-assignment tree copy.  The flag changes *nothing observable* —
    verdicts, witnesses, statistics, enumeration order, and checkpoint
    fingerprints are identical either way (so a checkpoint taken with the
    cache on resumes with it off and vice versa); it exists for ablation
    benchmarks and as a cross-check in CI.  Reported witnesses are always
    re-verified through the uncached reference evaluator.

    ``vacuous_output_ok`` controls the corner case of inputs on which the
    where clause has no binding at all, so no output tree exists; the
    paper's definition quantifies over answers, so "no answer" cannot
    violate the output DTD (the default).

    ``control`` makes the search interruptible (see
    :class:`repro.runtime.RuntimeControl`); an interrupted search returns
    ``INTERRUPTED`` with a checkpoint, and ``resume_from=`` continues it
    with identical semantics to an uninterrupted run.

    ``shard`` restricts the run to one cursor range of the deterministic
    stream (see :class:`repro.runtime.shard.ShardSpec`): the stream starts
    at the range (only sibling-order dedupe replays the trees below it,
    for its bookkeeping), the run stops at the range's end, statistics
    are shard-local, and every index reported to fault plans and the
    ``max_instances`` budget is *global*
    (``instance_base`` + local count) — which is what lets a supervisor
    merge shard results into exactly the sequential outcome.
    """
    if not query.is_program():
        raise ValueError("typechecking applies to outermost queries (no free variables)")
    if shard is None and isinstance(resume_from, MultiShardCheckpoint):
        # A sharded checkpoint resumes through the supervisor (even
        # in-process), which finishes each shard and re-merges.
        return run_search(
            query,
            tau1,
            output_type,
            budget=budget,
            theoretical_bound=theoretical_bound,
            vacuous_output_ok=vacuous_output_ok,
            algorithm=algorithm,
            control=control,
            resume_from=resume_from,
            use_eval_cache=use_eval_cache,
            obs=obs,
        )
    budget = budget or SearchBudget()
    validate = _validator_for(output_type)
    fingerprint = search_fingerprint(
        query, tau1, output_type, budget, algorithm, vacuous_output_ok
    )

    stats = SearchStats(
        theoretical_bound=theoretical_bound,
        budget_max_size=budget.max_size,
        budget_max_instances=budget.max_instances,
    )
    # Observability unpacked to locals once: the disabled path must cost
    # nothing measurable in the per-instance loop (see
    # benchmarks/bench_obs_overhead.py).
    tracer = obs.tracer if obs is not None else NULL_TRACER
    tracing = tracer.enabled
    telemetry = obs.telemetry if obs is not None else None
    progress = obs.progress if obs is not None else None
    timing = tracing or telemetry is not None
    if obs is not None:
        # Out-of-band readers (worker heartbeats) snapshot live progress
        # from here instead of a callback in the hot loop.
        obs.live_stats = stats
    t0 = perf_counter()
    prior_elapsed = 0.0
    instance_base = shard.instance_base if shard is not None else 0
    resume_labels = 0
    resume_values = 0
    if resume_from is not None:
        if resume_from.fingerprint != fingerprint:
            raise CheckpointMismatchError(
                "checkpoint was taken from a different search (query, types, "
                f"budget or algorithm differ): {resume_from.fingerprint} != {fingerprint}"
            )
        resume_labels = resume_from.labels_consumed
        resume_values = resume_from.values_done
        stats.label_trees_checked = int(resume_from.stats.get("label_trees_checked", 0))
        stats.valued_trees_checked = int(resume_from.stats.get("valued_trees_checked", 0))
        stats.max_size_reached = int(resume_from.stats.get("max_size_reached", 0))
        stats.cache_hits = int(resume_from.stats.get("cache_hits", 0))
        stats.cache_misses = int(resume_from.stats.get("cache_misses", 0))
        prior_elapsed = float(resume_from.stats.get("elapsed_seconds", 0.0))
        stats.resumed_from_checkpoint = True

    root_span = (
        tracer.begin(
            "shard" if shard is not None else "search",
            algorithm=algorithm,
            max_size=budget.max_size,
            **(
                {"start": shard.start_label, "stop": shard.stop_label}
                if shard is not None
                else {}
            ),
        )
        if tracing
        else None
    )

    # Compiled once per run (and memoized per process, so a supervisor
    # worker compiles once, not once per shard).  The cache flag is not
    # part of the fingerprint: it cannot change any observable outcome.
    if not use_eval_cache:
        compiled = None
    elif tracing:
        with tracer.span("compile") as compile_span:
            compiled = compiled_query_for(query, tau1.alphabet)
            compile_span.attrs["build_s"] = round(compiled.compile_seconds, 9)
    else:
        compiled = compiled_query_for(query, tau1.alphabet)
    if telemetry is not None and compiled is not None:
        telemetry.observe("compile", compiled.compile_seconds)

    needs_values = has_data_conditions(query)
    constants = sorted(constants_used(query), key=repr)
    if needs_values and budget.prune_value_tags:
        relevant_tags = (
            compiled.relevant_tags if compiled is not None else _value_relevant_tags(query)
        )
    elif needs_values:
        relevant_tags = None  # ablation: every node's value is enumerated
    else:
        relevant_tags = frozenset()
    dedupe_order = budget.dedupe_sibling_order and _order_insensitive(tau1, output_type)
    # Verdict memo (per label tree, see BoundTree.step_key): exact only
    # for validators that read nothing but labels, so a callable output
    # type (or a subclass with its own validate), which may inspect data
    # values, always evaluates in full.
    memo_ok = type(output_type) in (DTD, SpecializedDTD)
    seen_canonical: set[tuple] = set()

    def make_checkpoint(reason: str, labels_consumed: int, values_done: int) -> SearchCheckpoint:
        return SearchCheckpoint(
            fingerprint=fingerprint,
            algorithm=algorithm,
            labels_consumed=labels_consumed,
            values_done=values_done,
            stats={
                "label_trees_checked": stats.label_trees_checked,
                "valued_trees_checked": stats.valued_trees_checked,
                "max_size_reached": stats.max_size_reached,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                # Wall clock is carried in the checkpoint so a resumed
                # run's instances/sec figure covers all attempts.
                "elapsed_seconds": prior_elapsed + (perf_counter() - t0),
            },
            reason=reason,
        )

    def interrupted(reason: str, labels_consumed: int, values_done: int) -> TypecheckResult:
        checkpoint = make_checkpoint(reason, labels_consumed, values_done)
        result = TypecheckResult(
            Verdict.INTERRUPTED,
            stats=stats,
            algorithm=algorithm,
            interruption=reason,
            checkpoint=checkpoint,
        )
        result.notes.append(
            "search interrupted before the budget was spent; resume with "
            "find_counterexample(..., resume_from=result.checkpoint)"
        )
        return result

    # Periodic durable checkpointing (crash safety).  Shard runs never
    # autosave from here: a shard-local cursor is not a whole-search
    # checkpoint — the supervisor persists the merged multi-shard
    # document itself.
    autosave = control.autosave if control is not None and shard is None else None

    # Trees below a shard's range were (or will be) evaluated by other
    # shards, and trees below a resume cursor already were: the stream
    # seeks past them.  Sibling-order dedupe alone must replay them, to
    # rebuild its set of canonical shapes already seen.
    skip_labels = max(resume_labels, shard.start_label if shard is not None else 0)
    stream_start = 0 if dedupe_order else skip_labels
    stream_limit = shard.stop_label - stream_start if shard is not None else None

    exhausted_sizes = True
    budget_hit = False
    tree_span = None  # open label_tree span (tracing only)
    raw_index = stream_start  # position in the deterministic label-tree stream
    try:
        for labels in enumerate_instances(
            tau1, budget.max_size, limit=stream_limit, start=stream_start
        ):
            if dedupe_order:
                key = _unordered_canonical(labels.root)
                if key in seen_canonical:
                    raw_index += 1
                    continue
            else:
                key = None
            if raw_index < skip_labels:
                # Dedupe replay of a resumed or sharded search: this tree's
                # candidates were (or will be) evaluated and counted
                # elsewhere; only the dedupe set needs it.
                seen_canonical.add(key)
                raw_index += 1
                continue

            if tracing:
                tree_span = tracer.begin(
                    "label_tree", index=raw_index, size=labels.size()
                )
            values_done = 0
            if raw_index == resume_labels and resume_values > 0:
                # The tree the interruption fell on: skip what was already
                # evaluated (its bookkeeping is in the restored stats).
                values_done = resume_values
                if dedupe_order:
                    # The original run booked this tree with its first counted
                    # candidate; replay that part of the bookkeeping.
                    seen_canonical.add(key)
            positions, walk, decode = _value_codes(
                labels,
                needs_values,
                constants,
                budget.max_value_classes,
                relevant_tags,
                start=values_done,
            )
            if compiled is not None:
                # One working copy per label tree; every assignment below is
                # written onto it in place (no per-assignment tree.copy()).
                slots = positions if memo_ok else None
                if timing:
                    t_bind = perf_counter()
                    bound: Optional[BoundTree] = compiled.bind(labels, stats, slots)
                    dt_bind = perf_counter() - t_bind
                    if telemetry is not None:
                        telemetry.observe("bind", dt_bind)
                    if tracing:
                        tracer.emit("bind", t_bind, dt_bind)
                else:
                    bound = compiled.bind(labels, stats, slots)
                passing = bound.passing
            else:
                bound = None
                passing = None

            def count_instance() -> None:
                # Per-tree bookkeeping rides with the first *counted* candidate
                # so that a cursor with values_done == 0 means "nothing of this
                # tree happened yet" — checkpoints taken at any point stay
                # consistent with the restored statistics.
                nonlocal values_done
                if values_done == 0:
                    if dedupe_order:
                        seen_canonical.add(key)
                    stats.label_trees_checked += 1
                    stats.max_size_reached = max(stats.max_size_reached, labels.size())
                stats.valued_trees_checked += 1
                values_done += 1
                if progress is not None:
                    progress.maybe_update(
                        instance_base + stats.valued_trees_checked, stats
                    )
                if autosave is not None and autosave.due(stats.valued_trees_checked):
                    # The cursor is *after* this instance, matching what an
                    # interruption here would record; a failed write is
                    # counted by the autosave and never stops the search.
                    autosave.save(
                        make_checkpoint("autosave", raw_index, values_done),
                        stats.valued_trees_checked,
                    )

            for first, codes in walk:
                reason = _stop_reason(control, instance_base + stats.valued_trees_checked)
                if reason is not None:
                    return interrupted(reason, raw_index, values_done)
                if instance_base + stats.valued_trees_checked >= budget.max_instances:
                    # Budget enforced *before* evaluation, on the *global*
                    # instance number: never evaluate instance number
                    # max_instances + 1 — in any shard.
                    budget_hit = True
                    break
                instance_index = instance_base + stats.valued_trees_checked
                injected = None
                if control is not None and control.faults is not None:
                    injected = control.faults.evaluator_fault(instance_index)
                # The counters move only after the instance is fully processed,
                # so a failure checkpoint (cursor *at* the failing instance,
                # instance uncounted) resumes by retrying it — no double count.
                # The key is computed only here, after the polls, so an
                # instance that is never processed costs nothing.  A memo
                # miss selects rows by the key's masks; values are decoded
                # only to write val(x), and the valued tree is
                # materialized only off the hot path (error reports,
                # witnesses) — the cached evaluator works in place.
                memo_key = None
                try:
                    if injected is not None:
                        raise injected
                    if timing:
                        t_eval = perf_counter()
                    if passing is not None:
                        memo_key = bound.step_key(first, codes)
                    hit = memo_key is not None and memo_key in passing
                    if not hit:
                        values = decode(codes)
                        if bound is not None:
                            output = bound.evaluate(values, memo_key)
                        else:
                            tree = assign_values(labels, values)
                            output = evaluate(query, tree, telemetry=telemetry)
                    if timing:
                        dt_eval = perf_counter() - t_eval
                        if telemetry is not None:
                            telemetry.observe("evaluate", dt_eval)
                        if tracing:
                            tracer.emit("evaluate", t_eval, dt_eval, i=instance_index)
                except Exception as exc:
                    error = EvaluationError(
                        "query evaluation",
                        instance_index,
                        assign_values(labels, decode(codes)),
                        exc,
                    )
                    error.checkpoint = make_checkpoint(
                        f"evaluator failure on instance #{instance_index}",
                        raw_index,
                        values_done,
                    )
                    raise error from exc
                if hit:
                    # An assignment with the same surviving rows already
                    # passed: same output shape, same verdict.
                    stats.cache_hits += 1
                    count_instance()
                    continue
                if memo_key is not None:
                    stats.cache_misses += 1
                if output is None:
                    count_instance()
                    if vacuous_output_ok:
                        if memo_key is not None:
                            passing.add(memo_key)
                        continue
                    return TypecheckResult(
                        Verdict.FAILS,
                        counterexample=assign_values(labels, values),
                        output=None,
                        violation="query produces no output tree on this input",
                        stats=stats,
                        algorithm=algorithm,
                    )
                try:
                    result = validate(output)
                except Exception as exc:
                    error = EvaluationError(
                        "output validation", instance_index, assign_values(labels, values), exc
                    )
                    error.checkpoint = make_checkpoint(
                        f"validator failure on instance #{instance_index}",
                        raw_index,
                        values_done,
                    )
                    raise error from exc
                count_instance()
                if result.ok:
                    if memo_key is not None:
                        passing.add(memo_key)
                else:
                    # Re-verification always goes through the uncached
                    # reference evaluator on a fresh tree — with the cache on
                    # this doubles as a per-witness cross-check of the
                    # compiled path.
                    witness = assign_values(labels, values)
                    if timing:
                        t_verify = perf_counter()
                    recheck_output = evaluate(query, witness, telemetry=telemetry)
                    recheck = (
                        validate(recheck_output) if recheck_output is not None else None
                    )
                    if timing:
                        dt_verify = perf_counter() - t_verify
                        if telemetry is not None:
                            telemetry.observe("verify_witness", dt_verify)
                        if tracing:
                            tracer.emit(
                                "verify_witness", t_verify, dt_verify, i=instance_index
                            )
                    if recheck is None or recheck.ok:
                        # Not stripped under ``python -O`` (the assert-based
                        # predecessor was): a witness that fails re-verification
                        # means the engine itself is unsound.
                        raise WitnessVerificationError(
                            witness,
                            "validator accepted the output on re-evaluation"
                            if recheck is not None
                            else "query produced no output on re-evaluation",
                        )
                    return TypecheckResult(
                        Verdict.FAILS,
                        counterexample=witness,
                        output=recheck_output,
                        violation=str(result.error),
                        stats=stats,
                        algorithm=algorithm,
                    )
            if tree_span is not None:
                tracer.end(tree_span, instances=values_done)
                tree_span = None
            if budget_hit:
                exhausted_sizes = False
                break
            raw_index += 1

        if shard is not None:
            # A shard never concludes on its own: whether the whole space was
            # exhausted is the supervisor's call, made from the merged plan.
            result = TypecheckResult(
                Verdict.NO_COUNTEREXAMPLE_FOUND, stats=stats, algorithm=algorithm
            )
            result.notes.append(
                f"shard [{shard.start_label}, {shard.stop_label}) complete"
            )
            return result

        # Decide whether the exploration was complete.
        return conclude_bounded_search(
            stats, tau1, budget, theoretical_bound, needs_values, exhausted_sizes, algorithm
        )
    finally:
        # Every exit path — verdicts, interruptions, evaluator failures —
        # stamps honest wall clock (the result's stats object is this
        # one) and closes any span still open.
        stats.elapsed_seconds = prior_elapsed + (perf_counter() - t0)
        if tree_span is not None:
            tracer.end(tree_span)
        if root_span is not None:
            tracer.end(
                root_span,
                instances=stats.valued_trees_checked,
                label_trees=stats.label_trees_checked,
            )


def run_search(
    query: Query,
    tau1: DTD,
    output_type: Union[DTD, SpecializedDTD, OutputValidator],
    *,
    algorithm: str,
    budget: Optional[SearchBudget] = None,
    theoretical_bound: Optional[int | float] = None,
    vacuous_output_ok: bool = True,
    control: Optional[RuntimeControl] = None,
    resume_from: Optional[object] = None,
    shard: Optional[ShardSpec] = None,
    workers: int = 0,
    supervisor: Optional[object] = None,
    task_tau2: Optional[object] = None,
    task_query: Optional[Query] = None,
    use_eval_cache: bool = True,
    obs: Optional[Observability] = None,
) -> TypecheckResult:
    """Dispatch one bounded search to the sequential engine or the
    fault-tolerant sharded supervisor.

    The decision procedures route their searches through here so that
    ``workers > 1`` (or resuming a multi-shard checkpoint) transparently
    runs :class:`repro.runtime.supervisor.ShardedSearch`, while a
    ``shard=`` range (we *are* a worker) and the plain sequential case go
    straight to :func:`find_counterexample`.

    ``task_tau2``/``task_query`` are the original problem statement
    shipped to worker processes, which rebuild the procedure from it;
    they default to ``output_type``/``query`` (already the originals for
    most procedures — only the star-free pipeline compiles ``tau2`` into
    ``tau2_bar`` and relabels the query first, and a worker must start
    from the originals so its own compilation is not applied twice).

    Cross-version resumes degrade rather than fail: a version-1
    (sequential) checkpoint handed to a parallel run finishes
    sequentially, and a multi-shard checkpoint handed to a sequential run
    finishes its shards in-process — both preserve exactness.
    """
    if shard is not None:
        result = find_counterexample(
            query,
            tau1,
            output_type,
            budget=budget,
            theoretical_bound=theoretical_bound,
            vacuous_output_ok=vacuous_output_ok,
            algorithm=algorithm,
            control=control,
            resume_from=resume_from,
            shard=shard,
            use_eval_cache=use_eval_cache,
            obs=obs,
        )
        if obs is not None:
            # Counters are derived once per engine run; the supervisor
            # folds shard registries instead of re-deriving, so merged
            # totals can never double count.
            obs.record_search(result.stats)
        return result

    wants_parallel = workers > 1 or (
        supervisor is not None and getattr(supervisor, "workers", 0) > 1
    )
    multi_resume = isinstance(resume_from, MultiShardCheckpoint)
    if (wants_parallel and not isinstance(resume_from, SearchCheckpoint)) or multi_resume:
        from repro.runtime.supervisor import ShardedSearch, SupervisorConfig

        task = SearchTask(
            algorithm=algorithm,
            query=task_query if task_query is not None else query,
            tau1=tau1,
            tau2=task_tau2 if task_tau2 is not None else output_type,
            budget=budget or SearchBudget(),
            vacuous_output_ok=vacuous_output_ok,
            theoretical_bound=theoretical_bound,
            use_eval_cache=use_eval_cache,
            metrics=obs is not None and obs.telemetry is not None,
        )
        if supervisor is not None:
            config = supervisor
        elif multi_resume and not wants_parallel:
            # Sequential caller finishing a sharded checkpoint: complete
            # the shards in-process rather than silently going parallel.
            config = SupervisorConfig(workers=1)
        else:
            config = SupervisorConfig()
        if workers > 1 and config.workers != workers:
            import dataclasses

            config = dataclasses.replace(config, workers=workers)
        search = ShardedSearch(
            task,
            output_type=output_type,
            engine_query=query,
            theoretical_bound=theoretical_bound,
            control=control,
            config=config,
            obs=obs,
        )
        return search.run(resume_from=resume_from)

    if obs is not None and obs.progress is not None and obs.progress.total is None:
        # Sequential run with live progress: one planning pass prices the
        # whole stream (closed-form, nothing evaluated) so the reporter
        # can show percent done and an ETA.  The fingerprint is only
        # stored on the plan, which is discarded here.
        try:
            pricing = plan_shards(
                query,
                tau1,
                output_type,
                budget or SearchBudget(),
                fingerprint="",
                target_shards=1,
                control=control,
            )
            obs.progress.set_total(pricing.total_instances)
        except OperationInterrupted:
            pass  # the engine will observe the same stop signal itself

    result = find_counterexample(
        query,
        tau1,
        output_type,
        budget=budget,
        theoretical_bound=theoretical_bound,
        vacuous_output_ok=vacuous_output_ok,
        algorithm=algorithm,
        control=control,
        resume_from=resume_from,
        use_eval_cache=use_eval_cache,
        obs=obs,
    )
    if obs is not None:
        obs.record_search(result.stats)
    if wants_parallel:
        result.notes.append(
            "sequential (version-1) checkpoint resumed in-process; pass a "
            "fresh run --workers to shard it"
        )
    return result
