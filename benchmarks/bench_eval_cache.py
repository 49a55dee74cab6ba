"""Compile-once query evaluation vs the reference evaluator.

Same bounded search, same Theorem 3.5 workload, two evaluation paths:
the default compiled layer (:mod:`repro.ql.compile` — edge DFAs compiled
once per run, per-label-tree structural bindings cached across value
assignments, values written in place, and a per-label-tree verdict memo
keyed on the rows that survive the conditions) against
``use_eval_cache=False`` (every candidate materialized via
``assign_values`` and evaluated from scratch by
:func:`repro.ql.eval.evaluate`).

The workload is deliberately evaluation-bound: two pattern variables,
one equality against a constant and one inequality between variables, so
each label tree is revisited under many semantically distinct value
assignments — exactly the regime the cache targets (the structural
bindings are value-independent; only condition filtering changes).

Exactness is asserted, not assumed: both modes must produce the
identical verdict and instance totals, and the cached run must land
``>= 2x`` faster (the acceptance floor).  Measured on a 2-core x86 box
under Python 3.11: 0.74-0.90 s against 12.4-12.5 s, about 15x; the memo
answers 59,226 of the 63,601 inputs without evaluating or validating
(about 3x before the memo).  Results land in ``BENCH_eval_cache.json`` via the conftest
session hook.
"""

import time

import pytest

from repro.dtd import DTD
from repro.ql.ast import Condition, Const, ConstructNode, Edge, Query, Where
from repro.typecheck import Verdict, typecheck_regular
from repro.typecheck.search import SearchBudget

TAU1 = DTD("root", {"root": "(a + b)*"})
TAU2 = DTD("out", {"out": "(item.item)*.item?"})
MAX_SIZE = 7

# mode -> (result, wall-clock seconds); filled by the parametrized runs,
# consumed by the speedup assertion below (pytest runs tests in file order).
_observed: dict[bool, tuple[object, float]] = {}


def _query() -> Query:
    return Query(
        where=Where.of(
            "root",
            [Edge.of(None, "X", "a"), Edge.of(None, "Y", "a + b")],
            [Condition("X", "=", Const(1)), Condition("X", "!=", "Y")],
        ),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X", "Y")),)),
    )


def _run(use_eval_cache: bool):
    start = time.perf_counter()
    result = typecheck_regular(
        _query(),
        TAU1,
        TAU2,
        SearchBudget(max_size=MAX_SIZE),
        assume_projection_free=True,
        use_eval_cache=use_eval_cache,
    )
    _observed[use_eval_cache] = (result, time.perf_counter() - start)
    return result


@pytest.mark.parametrize("cached", [True, False], ids=["compiled", "reference"])
def test_eval_cache_workload(benchmark, cached):
    result = benchmark.pedantic(_run, args=(cached,), rounds=1, iterations=1)
    assert result.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
    if cached:
        assert result.stats.cache_hits > 0
    else:
        assert result.stats.cache_hits == 0 and result.stats.cache_misses == 0


def test_exactness_and_speedup_floor():
    (cached_result, cached_s) = _observed[True]
    (reference_result, reference_s) = _observed[False]
    # Exactness: the cache changes nothing observable.
    assert cached_result.verdict is reference_result.verdict
    assert (
        cached_result.stats.valued_trees_checked
        == reference_result.stats.valued_trees_checked
    )
    assert (
        cached_result.stats.label_trees_checked
        == reference_result.stats.label_trees_checked
    )
    assert (
        cached_result.stats.max_size_reached == reference_result.stats.max_size_reached
    )
    # Acceptance floor: >= 2x on the evaluation-bound workload.
    speedup = reference_s / cached_s
    assert speedup >= 2.0, (
        f"compiled evaluation only {speedup:.2f}x faster "
        f"({cached_s:.2f}s vs {reference_s:.2f}s reference)"
    )
