"""Shard planning: partitioning the deterministic search into cursor ranges.

The counterexample search enumerates a *fixed* sequence (label trees in
increasing size, then value assignments per tree), which is what makes it
checkpointable — and the same determinism makes it *partitionable*: a
shard is just a cursor range ``[start_label, stop_label)`` over the raw
label-tree stream, plus the global index of its first valued instance.
Workers start the enumeration at their range (the stream seeks; only
sibling-order dedupe replays the trees before it, to rebuild its set of
shapes already seen, never evaluating them), evaluate their range, and
stop; disjoint ranges tiling the stream cover exactly the instances the
sequential search would evaluate, so per-shard statistics merge back into
the sequential totals *exactly*.

The planner prices the stream exactly: without data conditions or dedupe
every label tree is one instance and the count of trees is the whole
price (:func:`repro.dtd.generate.count_instances`, no tree is built);
otherwise it walks the stream and prices each label tree combinatorially
(:func:`repro.trees.values.count_value_assignments` is closed-form, no
assignment is materialized).  Exact shard instance offsets are what let
global fault-injection indices, the global ``max_instances`` budget, and
the merged ``valued_trees_checked`` all agree with an uninterrupted
sequential run.

This module is import-light on purpose (the engine imports
:class:`ShardSpec`); everything that needs the typecheck machinery is
imported lazily inside :func:`plan_shards`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["SearchTask", "ShardPlan", "ShardSpec", "plan_shards"]

# Completed plans by (fingerprint, target_shards) — the pricing walk is a
# pure function of the fingerprinted search configuration, so repeated
# searches (service slices, pooled callers, benchmark rounds) reuse it.
_PLAN_MEMO_MAX = 8
_plan_memo: "OrderedDict[tuple[str, int], ShardPlan]" = OrderedDict()
_plan_memo_lock = threading.Lock()


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One cursor-range shard of the deterministic search."""

    start_label: int
    """First raw label-tree index this shard evaluates (the stream seeks
    to it; only sibling-order dedupe replays earlier trees, for its
    bookkeeping)."""

    stop_label: int
    """Exclusive end of the shard's label range."""

    instance_base: int
    """Global index of the shard's first valued instance — the engine
    reports fault/budget indices as ``instance_base + local count``."""

    instance_count: int = 0
    """Planned valued instances in the range (0 is legal: a range of
    deduped trees)."""


@dataclass(frozen=True)
class SearchTask:
    """A picklable statement of one search problem.

    Workers receive this — never compiled validators or closures — and
    rebuild the procedure from scratch via the algorithm tag; compilation
    (star-free relabeling, profile decomposition, bounds) is
    deterministic, so every process lands on the identical search and the
    identical fingerprint.
    """

    algorithm: str
    query: Any
    tau1: Any
    tau2: Any
    budget: Any
    vacuous_output_ok: bool = True
    theoretical_bound: Optional[float] = None
    use_eval_cache: bool = True
    """Whether workers evaluate through the compiled-query cache
    (:mod:`repro.ql.compile`).  Observably identical either way; shipped
    so an ablation run is ablated in every process."""

    metrics: bool = False
    """Whether workers collect a :class:`repro.obs.Telemetry` registry
    and ship it back on their result pipe (folded by the supervisor's
    merge into exactly the sequential totals).  Off by default: the
    disabled path must stay unmeasurable."""


@dataclass
class ShardPlan:
    """The deterministic partition of one search into shards."""

    fingerprint: str
    total_labels: int
    """Raw label trees covered by the plan (the whole stream, or the
    prefix up to the instance budget when ``capped``)."""

    total_instances: int
    """Valued instances the sequential search would evaluate."""

    capped: bool
    """True when the ``max_instances`` budget truncates the stream — the
    merged verdict can then never claim exhaustion."""

    needs_values: bool
    label_counts: list[int] = field(default_factory=list)
    """Per raw label index, the number of valued candidates the engine
    will evaluate there (0 for trees skipped by sibling-order dedupe).
    ``instance_base`` of any label L is ``sum(label_counts[:L])``."""

    shards: list[ShardSpec] = field(default_factory=list)

    def instance_base_at(self, label: int) -> int:
        return sum(self.label_counts[:label])

    def subrange(self, start_label: int, stop_label: int) -> ShardSpec:
        """A spec for an arbitrary label range of this plan (used when
        the supervisor re-splits a repeatedly failing shard)."""
        base = self.instance_base_at(start_label)
        count = sum(self.label_counts[start_label:stop_label])
        return ShardSpec(start_label, stop_label, base, count)

    def split_point(self, start_label: int, stop_label: int) -> Optional[int]:
        """Label index that halves the range's *instances* (not its
        labels), or ``None`` when the range cannot be split."""
        if stop_label - start_label < 2:
            return None
        counts = self.label_counts[start_label:stop_label]
        half = sum(counts) / 2
        running = 0
        best, best_gap = None, None
        for offset in range(1, len(counts)):
            running += counts[offset - 1]
            gap = abs(running - half)
            if best_gap is None or gap < best_gap:
                best, best_gap = start_label + offset, gap
        return best


def plan_shards(
    query: Any,
    tau1: Any,
    output_type: Any,
    budget: Any,
    *,
    fingerprint: str,
    target_shards: int,
    control: Any = None,
) -> ShardPlan:
    """Price the label-tree stream (no evaluation) and cut it into
    ``target_shards`` contiguous ranges of roughly equal instance counts.

    Without data conditions or sibling-order dedupe every label tree is
    worth exactly one instance, so the price comes from
    :func:`~repro.dtd.generate.count_instances` and no tree is built.
    Otherwise :func:`price_by_walk` replays exactly the engine's setup —
    value-relevant tags, constants, sibling-order dedupe — so the per-tree
    candidate counts match what a worker (or the sequential engine) will
    actually evaluate.  Raises
    :class:`~repro.runtime.control.OperationInterrupted` when ``control``
    trips (planning evaluates nothing, so there is no partial result worth
    keeping).
    """
    from repro.ql.analysis import has_data_conditions
    from repro.typecheck.search import _order_insensitive

    # The fingerprint digests everything the pricing depends on (query,
    # DTDs, every budget field, algorithm), so a completed plan can be
    # reused verbatim: services and pooled callers re-issuing the same
    # search skip the pricing entirely.  Plans are treated as immutable
    # by every consumer.
    memo_key = (fingerprint, target_shards)
    with _plan_memo_lock:
        hit = _plan_memo.get(memo_key)
        if hit is not None:
            _plan_memo.move_to_end(memo_key)
            return hit

    needs_values = has_data_conditions(query)
    dedupe_order = budget.dedupe_sibling_order and _order_insensitive(tau1, output_type)
    if needs_values or dedupe_order:
        label_counts, capped = price_by_walk(query, tau1, output_type, budget, control)
    else:
        label_counts, capped = price_by_count(tau1, budget, control)

    plan = ShardPlan(
        fingerprint=fingerprint,
        total_labels=len(label_counts),
        total_instances=sum(label_counts),
        capped=capped,
        needs_values=needs_values,
        label_counts=label_counts,
        shards=cut_shards(label_counts, target_shards),
    )
    with _plan_memo_lock:
        if memo_key not in _plan_memo:
            _plan_memo[memo_key] = plan
            if len(_plan_memo) > _PLAN_MEMO_MAX:
                _plan_memo.popitem(last=False)
        else:
            # Lost a concurrent pricing race: keep the published plan so
            # every caller shares one object.
            plan = _plan_memo[memo_key]
            _plan_memo.move_to_end(memo_key)
    return plan


def price_by_count(tau1: Any, budget: Any, control: Any = None) -> tuple[list[int], bool]:
    """Per-label instance counts and the capped flag of a search without
    data conditions or dedupe: one instance per label tree, so the
    counting DP prices the stream without building it."""
    from repro.dtd.generate import count_instances

    if control is not None:
        control.raise_if_stopped()
    labels = count_instances(tau1, budget.max_size)
    # The engine stops at the first tree past the instance budget.
    return [1] * min(labels, budget.max_instances), labels > budget.max_instances


def price_by_walk(
    query: Any, tau1: Any, output_type: Any, budget: Any, control: Any = None
) -> tuple[list[int], bool]:
    """Per-label instance counts and the capped flag, by walking the
    label-tree stream once (each tree priced in closed form by
    :func:`~repro.trees.values.count_value_assignments`, no assignment is
    materialized).  A label skipped by sibling-order dedupe costs 0."""
    from repro.dtd.generate import enumerate_instances
    from repro.ql.analysis import constants_used, has_data_conditions
    from repro.trees.values import count_value_assignments
    from repro.typecheck.search import (
        _order_insensitive,
        _unordered_canonical,
        _value_relevant_tags,
    )

    needs_values = has_data_conditions(query)
    # The constant *sequence* goes to the pricing DP, which dedupes it
    # exactly like the enumerator does — duplicate query constants can
    # never skew the cursor-range shards.
    constants = sorted(constants_used(query), key=repr)
    if needs_values and budget.prune_value_tags:
        relevant_tags = _value_relevant_tags(query)
    elif needs_values:
        relevant_tags = None
    else:
        relevant_tags = frozenset()
    dedupe_order = budget.dedupe_sibling_order and _order_insensitive(tau1, output_type)
    seen_canonical: set[int] = set()

    label_counts: list[int] = []
    total = 0
    capped = False
    for labels in enumerate_instances(tau1, budget.max_size, control=control):
        beyond_cap = total >= budget.max_instances
        if dedupe_order:
            key = _unordered_canonical(labels.root)
            if key in seen_canonical:
                if not beyond_cap:
                    label_counts.append(0)
                continue
            seen_canonical.add(key)
        if beyond_cap:
            # The sequential engine would hit the instance budget at this
            # tree's first candidate without evaluating it; the plan ends
            # here and the merged verdict reports the budget as spent.
            capped = True
            break
        if not needs_values:
            count = 1
        else:
            nodes = labels.nodes()
            if relevant_tags is None:
                k = len(nodes)
            else:
                k = sum(1 for n in nodes if n.label in relevant_tags)
            count = count_value_assignments(k, constants, budget.max_value_classes)
        label_counts.append(count)
        total += count

    # A stream ending inside an over-budget tree is also capped: the
    # sequential engine would break on the tree's next candidate rather
    # than exhaust the space.
    return label_counts, capped or total > budget.max_instances


def cut_shards(label_counts: list[int], target_shards: int) -> list[ShardSpec]:
    """Contiguous ranges over ``label_counts`` of roughly equal instance
    counts, at most ``target_shards`` of them."""
    total_labels = len(label_counts)
    shards: list[ShardSpec] = []
    if total_labels:
        per_shard = max(1, -(-sum(label_counts) // max(1, target_shards)))  # ceil
        start = 0
        base = 0
        acc = 0
        for idx, count in enumerate(label_counts):
            acc += count
            if acc >= per_shard and idx + 1 < total_labels:
                shards.append(ShardSpec(start, idx + 1, base, acc))
                start, base, acc = idx + 1, base + acc, 0
        shards.append(ShardSpec(start, total_labels, base, acc))
    return shards
