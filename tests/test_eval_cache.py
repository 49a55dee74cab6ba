"""Compile-once query evaluation: exactness of the cached path.

Four layers of evidence that :mod:`repro.ql.compile` changes *nothing
observable*:

* a Hypothesis sweep asserting node-for-node identical output between the
  compiled evaluator and the reference :func:`repro.ql.eval.evaluate`,
  over random DTD instances, random value assignments, and queries
  drawn with tag variables, nested queries, and =/!= conditions;
* on/off equivalence of the full decision procedures (Theorems 3.1, 3.2,
  3.5): identical verdicts, witnesses, outputs, and search statistics,
  sequential and sharded (``workers=2``), including under the
  ``worker_kill`` fault mode;
* the per-label-tree verdict memo: a Hypothesis sweep of whole searches
  (nested queries, ``val(X)``, tag variables, ``vacuous_output_ok=False``,
  passing and failing output types, DTDs, specialized DTDs and callable
  validators) against the ``use_eval_cache=False`` oracle, an evaluator
  fault on a memo hit that resumes to identical totals, and the value-code
  stream decoding to exactly the reference assignment stream;
* the value-enumeration bugfixes riding along: anonymous classes are
  collision-proof against a query constant literally named ``"_v0"``,
  and the single-root invariant of ``evaluate()`` raises a structured
  :class:`EvaluationError` (which survives ``python -O``; asserts don't).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtd import DTD, SpecializedDTD, ValidationError, ValidationResult
from repro.dtd.generate import enumerate_instances
from repro.ql import eval as ql_eval
from repro.ql.analysis import value_relevant_tags
from repro.ql.ast import Condition, Const, ConstructNode, Edge, NestedQuery, Query, Where
from repro.ql.compile import BoundTree, CompiledQuery, compiled_query_for
from repro.ql.eval import evaluate
from repro.runtime import FaultInjector, FaultPlan, RuntimeControl, WorkerKill
from repro.runtime.faults import ANY_SHARD
from repro.trees.data_tree import DataTree, Node
from repro.trees.values import (
    AnonValue,
    assign_values,
    count_value_assignments,
    enumerate_value_assignments,
    enumerate_value_codes,
    value_decoder,
    walk_value_codes,
)
from repro.typecheck import (
    EvaluationError,
    Verdict,
    typecheck_regular,
    typecheck_starfree,
    typecheck_unordered,
)
from repro.typecheck.search import SearchBudget, find_counterexample

# -- node-for-node equivalence (Hypothesis) -----------------------------------

TAU1 = DTD("root", {"root": "(a + b)*", "a": "c?", "c": "eps"})
_INSTANCES = list(enumerate_instances(TAU1, 5))


@st.composite
def programs(draw, self_comparisons=False):
    """Outermost queries over TAU1 exercising every evaluator feature:
    multi-edge patterns, =/!= conditions (against constants and between
    variables, and with ``self_comparisons`` a variable against itself),
    tag variables, and a nested query."""
    edges = [Edge.of(None, "X", draw(st.sampled_from(["a", "b", "a + b", "a.c"])))]
    variables = ["X"]
    if draw(st.booleans()):
        edges.append(Edge.of(None, "Z", draw(st.sampled_from(["a + b", "b", "a.c?"]))))
        variables.append("Z")
    conditions = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        left = draw(st.sampled_from(variables))
        op = draw(st.sampled_from(["=", "!="]))
        right = draw(
            st.sampled_from(
                [Const(1), Const("x"), Const("_v0")]
                + [v for v in variables if v != left or self_comparisons]
            )
        )
        conditions.append(Condition(left, op, right))
    # Construct: item(X) — optionally labeled by the tag variable X,
    # optionally carrying val(X), optionally with a nested query per X.
    item_children = ()
    if draw(st.booleans()):
        # Either the degenerate pattern rooted at a variable name (never
        # matches the tree root) or a real walk from X with its own
        # condition, which gives nested restrictions distinct verdicts.
        if draw(st.booleans()):
            inner_where = Where.of("X", [Edge.of(None, "Y", "c")])
        else:
            inner_conditions = draw(
                st.sampled_from(
                    [
                        (),
                        (Condition("Y", "=", Const(1)),),
                        (Condition("Y", "!=", "X"),),
                        (Condition("Y", "=", "X"),),
                    ]
                    + [(Condition("Y", "!=", "Y"), Condition("X", "=", "X"))]
                    * self_comparisons
                )
            )
            inner_where = Where.of("root", [Edge.of("X", "Y", "c")], inner_conditions)
        inner = Query(
            where=inner_where,
            construct=ConstructNode("leaf", ("X", "Y")),
            free_vars=("X",),
        )
        item_children = (NestedQuery(inner, ("X",)),)
    label = "X" if draw(st.booleans()) else "item"
    value_of = "X" if draw(st.booleans()) else None
    item = ConstructNode(label, ("X",), item_children, value_of)
    return Query(where=Where.of("root", edges, conditions), construct=ConstructNode("out", (), (item,)))


@settings(max_examples=150, deadline=None)
@given(
    programs(),
    st.integers(min_value=0, max_value=len(_INSTANCES) - 1),
    st.data(),
)
def test_compiled_evaluation_is_node_for_node_identical(query, tree_idx, data):
    labels = _INSTANCES[tree_idx]
    values = tuple(
        data.draw(st.sampled_from([1, 2, "x", "_v0", AnonValue(0)]))
        for _ in range(labels.size())
    )
    reference = evaluate(query, assign_values(labels, values))
    compiled = compiled_query_for(query, TAU1.alphabet)
    bound = compiled.bind(labels)
    got = bound.evaluate(values)
    if reference is None:
        assert got is None
    else:
        assert got is not None
        assert got.root.structure_key() == reference.root.structure_key()
    # Re-evaluating on the same context (cache warm) must be stable too.
    again = bound.evaluate(values)
    if reference is None:
        assert again is None
    else:
        assert again.root.structure_key() == reference.root.structure_key()


def test_bind_does_not_mutate_the_callers_tree():
    labels = _INSTANCES[-1]
    before = labels.root.structure_key()
    query = Query(
        where=Where.of("root", [Edge.of(None, "X", "a")], [Condition("X", "=", Const(1))]),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )
    bound = compiled_query_for(query, TAU1.alphabet).bind(labels)
    bound.evaluate(tuple(range(labels.size())))
    assert labels.root.structure_key() == before


def test_process_level_memo_reuses_compilations():
    query = Query(
        where=Where.of("root", [Edge.of(None, "X", "a")]),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )
    structurally_equal = Query(
        where=Where.of("root", [Edge.of(None, "X", "a")]),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )
    first = compiled_query_for(query, TAU1.alphabet)
    assert compiled_query_for(structurally_equal, TAU1.alphabet) is first


# -- on/off equivalence of the decision procedures ----------------------------

U_TAU1 = DTD("root", {"root": "a^>=0"}, unordered=True)
U_TAU2_OK = DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"})
U_TAU2_STRICT = DTD("out", {"out": "item^=1"}, unordered=True, alphabet={"out", "item"})
SF_TAU1 = DTD("root", {"root": "(a + b)*"})
SF_TAU2 = DTD("out", {"out": "~(empty)"}, alphabet={"out", "item"})
R_TAU2 = DTD("out", {"out": "(item.item)*.item?"})
BUDGET = SearchBudget(max_size=5)


def _condition_query() -> Query:
    return Query(
        where=Where.of("root", [Edge.of(None, "X", "a")], [Condition("X", "=", Const(1))]),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )


def _stat_triple(result):
    s = result.stats
    return (s.label_trees_checked, s.valued_trees_checked, s.max_size_reached)


def assert_on_off_equivalent(run, expect_hits=True):
    """``run(use_eval_cache=...)`` twice; everything observable must match."""
    on = run(use_eval_cache=True)
    off = run(use_eval_cache=False)
    assert on.verdict is off.verdict
    assert on.counterexample == off.counterexample
    assert on.output == off.output
    assert on.violation == off.violation
    assert _stat_triple(on) == _stat_triple(off)
    assert off.stats.cache_hits == 0 and off.stats.cache_misses == 0
    if expect_hits:
        assert on.stats.cache_hits > 0
    return on, off


class TestProcedureEquivalence:
    def test_thm31_no_counterexample(self):
        assert_on_off_equivalent(
            lambda **kw: typecheck_unordered(_condition_query(), U_TAU1, U_TAU2_OK, BUDGET, **kw)
        )

    def test_thm31_fails_with_identical_witness(self):
        on, off = assert_on_off_equivalent(
            lambda **kw: typecheck_unordered(
                _condition_query(), U_TAU1, U_TAU2_STRICT, BUDGET, **kw
            )
        )
        assert on.verdict is Verdict.FAILS
        assert on.counterexample is not None

    def test_thm32_starfree(self):
        assert_on_off_equivalent(
            lambda **kw: typecheck_starfree(_condition_query(), SF_TAU1, SF_TAU2, BUDGET, **kw)
        )

    def test_thm35_regular(self):
        assert_on_off_equivalent(
            lambda **kw: typecheck_regular(
                _condition_query(),
                SF_TAU1,
                R_TAU2,
                BUDGET,
                assume_projection_free=True,
                **kw,
            )
        )

    def test_refutation_search_vacuous_fails(self):
        # vacuous_output_ok=False exercises the materialize-on-FAILS path
        # of the cached engine (no output tree to compare).
        on, off = assert_on_off_equivalent(
            lambda **kw: find_counterexample(
                _condition_query(),
                DTD("root", {"root": "b*"}),
                U_TAU2_OK,
                budget=BUDGET,
                vacuous_output_ok=False,
                **kw,
            ),
            expect_hits=False,  # fails on the first instance; nothing re-read
        )
        assert on.verdict is Verdict.FAILS
        assert on.output is None


class TestShardedEquivalence:
    def test_workers2_matches_sequential_including_cache_counters(self):
        seq = typecheck_unordered(_condition_query(), U_TAU1, U_TAU2_OK, BUDGET)
        par = typecheck_unordered(
            _condition_query(), U_TAU1, U_TAU2_OK, BUDGET, workers=2
        )
        assert par.verdict is seq.verdict
        assert _stat_triple(par) == _stat_triple(seq)
        # Cache events are per label tree, so the shard totals must merge
        # back into exactly the sequential counters.
        assert (par.stats.cache_hits, par.stats.cache_misses) == (
            seq.stats.cache_hits,
            seq.stats.cache_misses,
        )

    def test_workers2_under_worker_kill(self):
        seq = typecheck_unordered(_condition_query(), U_TAU1, U_TAU2_OK, BUDGET)
        par = typecheck_unordered(
            _condition_query(),
            U_TAU1,
            U_TAU2_OK,
            BUDGET,
            workers=2,
            control=RuntimeControl(
                faults=FaultInjector(
                    FaultPlan(worker_kills=frozenset({WorkerKill(ANY_SHARD, 0, 2, "kill")}))
                )
            ),
        )
        assert par.verdict is seq.verdict
        assert _stat_triple(par) == _stat_triple(seq)
        # Failed attempts report nothing; the surviving attempt redoes its
        # range from scratch, so even cache counters merge exactly.
        assert (par.stats.cache_hits, par.stats.cache_misses) == (
            seq.stats.cache_hits,
            seq.stats.cache_misses,
        )
        assert par.stats.sharding is not None
        assert par.stats.sharding.worker_deaths >= 1

    def test_sharded_cache_off_matches_sequential_cache_off(self):
        seq = typecheck_unordered(
            _condition_query(), U_TAU1, U_TAU2_OK, BUDGET, use_eval_cache=False
        )
        par = typecheck_unordered(
            _condition_query(), U_TAU1, U_TAU2_OK, BUDGET, workers=2, use_eval_cache=False
        )
        assert par.verdict is seq.verdict
        assert _stat_triple(par) == _stat_triple(seq)
        assert (par.stats.cache_hits, par.stats.cache_misses) == (0, 0)


def test_checkpoints_interchange_between_cache_modes():
    """The cache flag is deliberately not part of the search fingerprint:
    a checkpoint taken with the cache on resumes with it off (and vice
    versa) and lands on the identical final verdict and statistics."""
    control = RuntimeControl(faults=FaultInjector(FaultPlan(cancel_after_instances=7)))
    interrupted = typecheck_unordered(
        _condition_query(), U_TAU1, U_TAU2_OK, BUDGET, control=control
    )
    assert interrupted.verdict is Verdict.INTERRUPTED
    resumed = typecheck_unordered(
        _condition_query(),
        U_TAU1,
        U_TAU2_OK,
        BUDGET,
        resume_from=interrupted.checkpoint,
        use_eval_cache=False,
    )
    straight = typecheck_unordered(_condition_query(), U_TAU1, U_TAU2_OK, BUDGET)
    assert resumed.verdict is straight.verdict
    assert _stat_triple(resumed) == _stat_triple(straight)


def test_summary_reports_cache_counters():
    result = typecheck_unordered(_condition_query(), U_TAU1, U_TAU2_OK, BUDGET)
    assert result.stats.cache_hits > 0
    assert "eval cache:" in result.summary()
    uncached = typecheck_unordered(
        _condition_query(), U_TAU1, U_TAU2_OK, BUDGET, use_eval_cache=False
    )
    assert "eval cache:" not in uncached.summary()


# -- the verdict memo: whole searches against the oracle -----------------------

_LEAFY = {"item": "leaf*", "a": "leaf*", "b": "leaf*", "leaf": "eps"}
_BARE = {"item": "eps", "a": "eps", "b": "eps", "leaf": "eps"}
MEMO_OUTPUT_TYPES = [
    DTD("out", {"out": "(item + a + b)*", **_LEAFY}),
    DTD("out", {"out": "(item + a + b)?", **_LEAFY}),
    DTD("out", {"out": "(item + a + b).(item + a + b)*", **_BARE}),
    DTD(
        "out",
        {"out": "!(item^>=2) & !(a^>=2)", "item": "true", "a": "true", "b": "true"},
        unordered=True,
        alphabet={"out", "item", "a", "b", "leaf"},
    ),
    # Items with leaves first, then at most one bare item.
    SpecializedDTD(
        DTD(
            "out",
            {
                "out": "(a + b)*.item1*.item2?",
                "item1": "leaf.leaf*",
                "item2": "eps",
                **{k: v for k, v in _LEAFY.items() if k != "item"},
            },
        ),
        {"item1": "item", "item2": "item"},
    ),
]


def _no_value_one(tree):
    """A callable output type that reads data values (via ``val(X)``):
    exactly what the memo must never be trusted with."""
    for node in tree.nodes():
        if node.value == 1:
            return ValidationResult(False, ValidationError(node, "value 1 in the output"))
    return MEMO_OUTPUT_TYPES[0].validate(tree)


MEMO_OUTPUT_TYPES.append(_no_value_one)


@settings(max_examples=80, deadline=None)
@given(
    programs(),
    st.integers(min_value=0, max_value=len(MEMO_OUTPUT_TYPES) - 1),
    st.booleans(),
    st.sampled_from([None, 1]),
)
def test_verdict_memo_matches_the_oracle_over_whole_searches(
    query, output_idx, vacuous_output_ok, max_classes
):
    budget = SearchBudget(max_size=5, max_value_classes=max_classes)
    assert_on_off_equivalent(
        lambda **kw: find_counterexample(
            query,
            TAU1,
            MEMO_OUTPUT_TYPES[output_idx],
            budget=budget,
            vacuous_output_ok=vacuous_output_ok,
            **kw,
        ),
        expect_hits=False,
    )


def _shape(node):
    """An output tree without its data values: what a validator reads."""
    if node is None:
        return None
    return (node.label, tuple(_shape(c) for c in node.children))


def _assert_keys_fix_shapes(query, labels):
    """The memo's exactness argument, checked per assignment rather than
    through a search (where the first failure may come before any key
    repeats): within one label tree, equal keys give outputs of equal
    labeled shape."""
    compiled = compiled_query_for(query, TAU1.alphabet)
    relevant = compiled.relevant_tags
    positions = [
        i for i, n in enumerate(labels.nodes()) if relevant is None or n.label in relevant
    ]
    bound = compiled.bind(labels, None, positions)
    if not compiled.needs_values:
        assert bound.passing is None
        return
    table = value_decoder(len(positions), compiled.constants)
    filler = [f"_u{i}" for i in range(labels.size())]
    shapes = {}
    codes_stream = enumerate_value_codes(len(positions), len(compiled.constants))
    for codes in itertools.islice(codes_stream, 600):
        values = list(filler)
        for i, code in zip(positions, codes):
            values[i] = table[code]
        output = bound.evaluate(tuple(values))
        shape = _shape(output.root if output is not None else None)
        assert shapes.setdefault(bound.verdict_key(codes), shape) == shape


@settings(max_examples=100, deadline=None)
@given(programs(), st.integers(min_value=0, max_value=len(_INSTANCES) - 1))
def test_equal_verdict_keys_mean_equal_output_shapes(query, tree_idx):
    _assert_keys_fix_shapes(query, _INSTANCES[tree_idx])


def test_nested_restrictions_enter_the_verdict_key():
    """A nested query whose own condition decides its output: assignments
    that keep the same outer rows but not the same inner rows give
    different shapes, so the key must tell them apart."""
    inner = Query(
        where=Where.of("root", [Edge.of("X", "Y", "c")], [Condition("Y", "!=", "X")]),
        construct=ConstructNode("leaf", ("X", "Y")),
        free_vars=("X",),
    )
    query = Query(
        where=Where.of("root", [Edge.of(None, "X", "a")], [Condition("X", "!=", Const(1))]),
        construct=ConstructNode(
            "out", (), (ConstructNode("item", ("X",), (NestedQuery(inner, ("X",)),)),)
        ),
    )
    for labels in _INSTANCES:
        _assert_keys_fix_shapes(query, labels)


def _decoder(labels, positions, constants, max_classes):
    """The search's decoder: slot codes to a document-order value vector,
    a distinct filler on every node without a slot."""
    table = value_decoder(len(positions), constants, max_classes)

    def decode(codes):
        values = [f"_u{i}" for i in range(labels.size())]
        for i, code in zip(positions, codes):
            values[i] = table[code]
        return tuple(values)

    return decode


@settings(max_examples=120, deadline=None)
@given(
    programs(self_comparisons=True),
    st.integers(min_value=0, max_value=len(_INSTANCES) - 1),
    st.sampled_from([None, 1, 2]),
)
def test_keyed_walk_matches_the_from_scratch_oracle(query, tree_idx, max_classes):
    _assert_keyed_walk_matches(query, _INSTANCES[tree_idx], max_classes)


@pytest.mark.parametrize("max_classes", [None, 1, 2])
def test_keyed_walk_matches_the_oracle_on_every_tree(max_classes):
    """The same check, deterministic: a variable-variable ``!=`` and a
    nested query with its own condition, on every label tree."""
    for query in (_memo_query(), _nested_condition_query()):
        for labels in _INSTANCES:
            _assert_keyed_walk_matches(query, labels, max_classes)


def _nested_condition_query() -> Query:
    """Outer ``X != Z`` between two pattern variables and a nested query
    whose own condition compares its variable with the outer one."""
    inner = Query(
        where=Where.of("root", [Edge.of("X", "Y", "c")], [Condition("Y", "=", "X")]),
        construct=ConstructNode("leaf", ("X", "Y")),
        free_vars=("X",),
    )
    return Query(
        where=Where.of(
            "root",
            [Edge.of(None, "X", "a"), Edge.of(None, "Z", "a + b")],
            [Condition("X", "!=", "Z")],
        ),
        construct=ConstructNode(
            "out", (), (ConstructNode("item", ("X",), (NestedQuery(inner, ("X",)),)),)
        ),
    )


def _assert_keyed_walk_matches(query, labels, max_classes):
    """The walk yields exactly the code stream from every start, the
    incremental key of each vector equals ``verdict_key`` recomputed from
    scratch, and a memo miss that selects rows by that key's masks gives
    the reference evaluator's output node for node."""
    compiled = compiled_query_for(query, TAU1.alphabet)
    relevant = compiled.relevant_tags
    positions = [
        i for i, n in enumerate(labels.nodes()) if relevant is None or n.label in relevant
    ]
    n_constants = len(compiled.constants)
    codes = list(enumerate_value_codes(len(positions), n_constants, max_classes))
    bound = compiled.bind(labels, None, positions)
    keyed = compiled.needs_values
    # From every start: the first vector comes marked 0 (the key starts
    # afresh, as a resumed search's does), the next few step from it.
    for start in range(len(codes) + 1):
        head = list(
            itertools.islice(
                walk_value_codes(len(positions), n_constants, max_classes, start), 4
            )
        )
        assert [c for _, c in head] == codes[start : start + 4]
        assert not head or head[0][0] == 0
        if keyed:
            for first, c in head:
                assert bound.step_key(first, c) == bound.verdict_key(c)
    if not keyed:
        assert bound.passing is None
        return
    decode = _decoder(labels, positions, compiled.constants, max_classes)
    walk = walk_value_codes(len(positions), n_constants, max_classes)
    for first, c in itertools.islice(walk, 400):
        key = bound.step_key(first, c)
        assert key == bound.verdict_key(c)
        values = decode(c)
        reference = evaluate(query, assign_values(labels, values))
        got = bound.evaluate(values, key)
        if reference is None:
            assert got is None
        else:
            assert got is not None
            assert got.root.structure_key() == reference.root.structure_key()


def _memo_query() -> Query:
    """Two pattern variables and two conditions: many assignments, few
    distinct sets of surviving rows."""
    return Query(
        where=Where.of(
            "root",
            [Edge.of(None, "X", "a"), Edge.of(None, "Y", "a + b")],
            [Condition("X", "=", Const(1)), Condition("X", "!=", "Y")],
        ),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X", "Y")),)),
    )


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Records every ``BoundTree.evaluate`` call."""
    calls = []
    original = BoundTree.evaluate

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BoundTree, "evaluate", counting)
    return calls


def test_memo_hits_skip_evaluation(evaluate_calls):
    budget = SearchBudget(max_size=5)
    on, off = assert_on_off_equivalent(
        lambda **kw: typecheck_regular(
            _memo_query(), SF_TAU1, R_TAU2, budget, assume_projection_free=True, **kw
        )
    )
    assert on.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
    assert 0 < len(evaluate_calls) < on.stats.valued_trees_checked


def test_callable_validator_bypasses_the_memo(evaluate_calls):
    result = find_counterexample(
        _memo_query(), SF_TAU1, lambda tree: R_TAU2.validate(tree), budget=BUDGET
    )
    assert len(evaluate_calls) == result.stats.valued_trees_checked


def test_complement_path_condition_matches_the_uncached_oracle():
    """``~(a + eps)`` also matches ``b`` children.  The relevance analysis
    sees that through its fresh "other label" symbol and makes every tag
    relevant, so every node the condition can read has a value slot and
    the verdict memo keys every tree; the search matches the oracle."""
    query = Query(
        where=Where.of(
            "root", [Edge.of(None, "X", "~(a + eps)")], [Condition("X", "=", Const(1))]
        ),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )
    assert value_relevant_tags(query) is None
    assert_on_off_equivalent(
        lambda **kw: find_counterexample(query, SF_TAU1, R_TAU2, budget=BUDGET, **kw)
    )


def _memo_counters(max_instances: int) -> tuple[int, int]:
    budget = SearchBudget(max_size=5, max_instances=max_instances)
    stats = typecheck_unordered(_condition_query(), U_TAU1, U_TAU2_OK, budget).stats
    return stats.cache_hits, stats.cache_misses


def test_evaluator_fault_on_a_memo_hit_resumes_to_identical_totals():
    # Find an instance the memo answers: processing it adds one hit and
    # no miss (a memo miss always counts one).  after[n] = the counters
    # once n instances are processed.
    after = [_memo_counters(n) for n in range(1, 40)]
    hit_index = next(
        i + 1
        for i, (before, now) in enumerate(zip(after, after[1:]))
        if now == (before[0] + 1, before[1])
    )
    straight = typecheck_unordered(_condition_query(), U_TAU1, U_TAU2_OK, BUDGET)
    control = RuntimeControl(faults=FaultInjector(FaultPlan(fail_instances={hit_index})))
    with pytest.raises(EvaluationError) as err:
        typecheck_unordered(_condition_query(), U_TAU1, U_TAU2_OK, BUDGET, control=control)
    # The fault plan is polled before the memo lookup: it fires on the
    # hit, and its presence does not switch the memo off.
    assert err.value.instance_index == hit_index
    assert control.faults.failures_fired == 1
    resumed = typecheck_unordered(
        _condition_query(),
        U_TAU1,
        U_TAU2_OK,
        BUDGET,
        resume_from=err.value.checkpoint,
    )
    assert resumed.verdict is straight.verdict
    assert _stat_triple(resumed) == _stat_triple(straight)


def _keyed_search(output_type=R_TAU2, **kw):
    """A small ``X = 1 and X != Y`` search through the incremental keys."""
    return find_counterexample(
        _memo_query(), SF_TAU1, output_type, budget=SearchBudget(max_size=4), **kw
    )


@pytest.mark.parametrize(
    "output_type",
    [R_TAU2, DTD("out", {"out": "item?"})],
    ids=["passes", "fails-at-27"],
)
def test_interrupt_at_every_instance_resumes_to_identical_totals(output_type):
    """Each interruption index is a resume point, most of them mid-tree:
    the resumed walk starts at ``start > 0`` and its first key is built
    from scratch."""
    straight = _keyed_search(output_type)
    off = _keyed_search(output_type, use_eval_cache=False)
    assert straight.verdict is off.verdict
    assert straight.counterexample == off.counterexample
    assert _stat_triple(straight) == _stat_triple(off)
    mid_tree = 0
    for n in range(straight.stats.valued_trees_checked):
        control = RuntimeControl(faults=FaultInjector(FaultPlan(cancel_after_instances=n)))
        interrupted = _keyed_search(output_type, control=control)
        assert interrupted.verdict is Verdict.INTERRUPTED
        assert interrupted.stats.valued_trees_checked == n
        mid_tree += interrupted.checkpoint.values_done > 0
        resumed = _keyed_search(output_type, resume_from=interrupted.checkpoint)
        assert resumed.verdict is straight.verdict
        assert resumed.counterexample == straight.counterexample
        assert _stat_triple(resumed) == _stat_triple(straight)
    assert mid_tree > 0


def test_evaluator_fault_on_a_memo_miss_resumes_to_identical_totals(monkeypatch):
    # The instances that reach BoundTree.evaluate are the memo misses;
    # on_tick names the instance being processed.
    ticks: list[int] = []
    misses: list[int] = []
    original = BoundTree.evaluate

    def spy(self, *args, **kwargs):
        misses.append(ticks[-1])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BoundTree, "evaluate", spy)
    straight = _keyed_search(control=RuntimeControl(on_tick=ticks.append))
    monkeypatch.undo()
    assert 0 < len(misses) < straight.stats.valued_trees_checked
    for miss in misses:
        control = RuntimeControl(faults=FaultInjector(FaultPlan(fail_instances={miss})))
        with pytest.raises(EvaluationError) as err:
            _keyed_search(control=control)
        if err.value.checkpoint.values_done > 0:
            break  # a miss mid-tree: the resume seeks into the walk
    assert err.value.instance_index == miss
    assert control.faults.failures_fired == 1
    assert err.value.checkpoint.values_done > 0
    resumed = _keyed_search(resume_from=err.value.checkpoint)
    off = _keyed_search(use_eval_cache=False)
    assert resumed.verdict is straight.verdict is off.verdict
    assert _stat_triple(resumed) == _stat_triple(straight) == _stat_triple(off)


def _reference_assignments(n_nodes, constants=(), max_classes=None):
    """The recursive restricted-growth enumerator the code stream
    replaced, kept verbatim as the order oracle."""
    consts = list(dict.fromkeys(constants))
    cap = n_nodes if max_classes is None else min(max_classes, n_nodes)
    anon = [AnonValue(b) for b in range(cap)]

    def rec(i, used_anon, prefix):
        if i == n_nodes:
            yield tuple(prefix)
            return
        for c in consts:
            prefix.append(c)
            yield from rec(i + 1, used_anon, prefix)
            prefix.pop()
        for b in range(min(used_anon + 1, cap)):
            prefix.append(anon[b])
            yield from rec(i + 1, max(used_anon, b + 1), prefix)
            prefix.pop()

    yield from rec(0, 0, [])


@pytest.mark.parametrize("constants", [(), (1,), (1, "x", 1), ("_v0", "_v1")])
@pytest.mark.parametrize("max_classes", [None, 0, 1, 2])
def test_code_stream_decodes_to_the_reference_assignment_stream(constants, max_classes):
    n_constants = len(dict.fromkeys(constants))
    for n in range(7):
        expected = list(_reference_assignments(n, constants, max_classes))
        codes = list(enumerate_value_codes(n, n_constants, max_classes))
        table = value_decoder(n, constants, max_classes)
        assert [tuple(table[c] for c in v) for v in codes] == expected
        assert list(enumerate_value_assignments(n, constants, max_classes)) == expected
        assert len(codes) == count_value_assignments(n, constants, max_classes)
        # A resumed search starts mid-stream by unranking, not by walking.
        for start in {*range(0, len(codes), 1 + len(codes) // 16), len(codes)}:
            assert list(enumerate_value_codes(n, n_constants, max_classes, start)) == codes[start:]


# -- satellite: anonymous values are collision-proof --------------------------


class TestAnonValueRegression:
    def test_assignments_with_constant_named_v0_stay_distinct(self):
        # Old representation: the anonymous class rendered as the string
        # "_v0", aliasing the constant — two semantically distinct
        # assignments collapsed into duplicates.
        vals = list(enumerate_value_assignments(1, ["_v0"]))
        assert len(vals) == 2
        assert len(set(vals)) == 2
        assert vals[0] == ("_v0",)
        assert vals[1] == (AnonValue(0),)
        assert vals[1][0] != "_v0"

    def test_anon_value_semantics(self):
        assert AnonValue(0) == AnonValue(0)
        assert AnonValue(0) != AnonValue(1)
        assert AnonValue(0) != "_v0" and "_v0" != AnonValue(0)
        assert hash(AnonValue(3)) == hash(AnonValue(3))
        import pickle

        assert pickle.loads(pickle.dumps(AnonValue(2))) == AnonValue(2)

    def test_count_still_matches_enumeration_with_v0_constant(self):
        constants = ["_v0", "_v1", "_v0"]
        expected = sum(1 for _ in enumerate_value_assignments(3, constants, None))
        assert count_value_assignments(3, constants, None) == expected

    def test_typecheck_distinguishes_v0_constant_from_anonymous_class(self):
        """End-to-end: ``X != "_v0"`` must be satisfiable by an anonymous
        value.  With the old string aliasing, every enumerated assignment
        for the single relevant node was the literal "_v0", the condition
        never held, no output was produced, and the search wrongly
        concluded TYPECHECKS; the collision-proof representation finds
        the violation."""
        query = Query(
            where=Where.of(
                "root", [Edge.of(None, "X", "a")], [Condition("X", "!=", Const("_v0"))]
            ),
            construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
        )
        tau1 = DTD("root", {"root": "a?"})
        no_items = DTD("out", {"out": "item^=0"}, unordered=True, alphabet={"out", "item"})
        result = typecheck_unordered(query, tau1, no_items, SearchBudget(max_size=2))
        assert result.verdict is Verdict.FAILS
        witness_values = [n.value for n in result.counterexample.nodes()]
        assert AnonValue(0) in witness_values


# -- satellite: the single-root guard survives python -O ----------------------


class TestSingleRootGuard:
    def test_evaluate_raises_structured_error_on_multi_root_forest(self, monkeypatch):
        query = Query(
            where=Where.of("root", [Edge.of(None, "X", "a")]),
            construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
        )
        from repro.trees.data_tree import DataTree, Node

        tree = DataTree(Node("root", [Node("a")]))
        monkeypatch.setattr(
            ql_eval, "evaluate_forest", lambda *a, **kw: [Node("out"), Node("out")]
        )
        with pytest.raises(EvaluationError, match="outermost construct root"):
            evaluate(query, tree)

    def test_compiled_path_shares_the_guard(self):
        from repro.ql.eval import _single_root
        from repro.trees.data_tree import Node

        with pytest.raises(EvaluationError, match="expected exactly 1"):
            _single_root([Node("out"), Node("out")])
        with pytest.raises(EvaluationError):
            _single_root([])
