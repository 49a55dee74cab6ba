"""The bounded counterexample search engine: budgets, pruning, verdicts."""

import pytest

from repro.dtd import DTD, SpecializedDTD
from repro.dtd.core import ValidationResult
from repro.ql.ast import Condition, Const, ConstructNode, Edge, Query, Where
from repro.typecheck import Verdict, find_counterexample
from repro.typecheck.search import (
    SearchBudget,
    _order_insensitive,
    _unordered_canonical,
    _value_relevant_tags,
)
from repro.trees import parse_tree


def plain_query(path="a") -> Query:
    return Query(
        where=Where.of("root", [Edge.of(None, "X", path)]),
        construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
    )


class TestValueRelevance:
    def test_no_conditions_empty(self):
        assert _value_relevant_tags(plain_query()) == frozenset()

    def test_condition_variable_tags(self):
        q = Query(
            where=Where.of(
                "root",
                [Edge.of(None, "X", "a + b"), Edge.of(None, "Y", "c")],
                [Condition("X", "=", Const(1))],
            ),
            construct=ConstructNode("out", ()),
        )
        assert _value_relevant_tags(q) == {"a", "b"}

    def test_multi_step_path_final_symbols(self):
        q = Query(
            where=Where.of(
                "root",
                [Edge.of(None, "X", "a.(b + c)")],
                [Condition("X", "=", Const(1))],
            ),
            construct=ConstructNode("out", ()),
        )
        assert _value_relevant_tags(q) == {"b", "c"}

    def test_epsilon_path_gives_none(self):
        q = Query(
            where=Where.of(
                "root", [Edge.of(None, "X", "a?")], [Condition("X", "=", Const(1))]
            ),
            construct=ConstructNode("out", ()),
        )
        assert _value_relevant_tags(q) is None

    def test_complement_path_gives_none(self):
        # ~(a + eps) ends on any label but a, including ones the regex
        # never mentions.
        q = Query(
            where=Where.of(
                "root", [Edge.of(None, "X", "~(a + eps)")], [Condition("X", "=", Const(1))]
            ),
            construct=ConstructNode("out", ()),
        )
        assert _value_relevant_tags(q) is None

    def test_complement_after_a_named_prefix(self):
        # a.~(eps) only ends below an a, but on any label: unbounded too;
        # a.(b + ~b) likewise; a.b.~(~eps) is just a.b (ends on b).
        cond = [Condition("X", "=", Const(1))]
        for path, expected in (
            ("a.~(eps)", None),
            ("a.(b + ~b)", None),
            ("a.b.~(~eps)", {"b"}),
        ):
            q = Query(
                where=Where.of("root", [Edge.of(None, "X", path)], cond),
                construct=ConstructNode("out", ()),
            )
            assert _value_relevant_tags(q) == expected, path

    def test_pruning_agrees_with_no_pruning_on_complement_paths(self):
        """The reproducer of a wrong TYPECHECKS: ``b`` nodes got no value
        slot, so X = 1 never held on them and the search missed the
        output item that ``out -> item^=0`` forbids."""
        query = Query(
            where=Where.of(
                "root", [Edge.of(None, "X", "~(a + eps)")], [Condition("X", "=", Const(1))]
            ),
            construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
        )
        tau1 = DTD("root", {"root": "b?"})
        tau2 = DTD("out", {"out": "item^=0"}, unordered=True)
        results = [
            find_counterexample(
                query, tau1, tau2, budget=SearchBudget(max_size=4, prune_value_tags=prune)
            )
            for prune in (True, False)
        ]
        assert [r.verdict for r in results] == [Verdict.FAILS, Verdict.FAILS]
        assert results[0].counterexample == results[1].counterexample


class TestOrderInsensitivity:
    def test_unordered_both_sides(self):
        tau1 = DTD("root", {"root": "a^>=0"}, unordered=True)
        tau2 = DTD("out", {"out": "item^>=0"}, unordered=True)
        assert _order_insensitive(tau1, tau2)

    def test_ordered_input_blocks(self):
        tau1 = DTD("root", {"root": "a*"})
        tau2 = DTD("out", {"out": "item^>=0"}, unordered=True)
        assert not _order_insensitive(tau1, tau2)

    def test_ordered_output_blocks(self):
        tau1 = DTD("root", {"root": "a^>=0"}, unordered=True)
        tau2 = DTD("out", {"out": "item*"})
        assert not _order_insensitive(tau1, tau2)

    def test_specialized_unordered_ok(self):
        tau1 = DTD("root", {"root": "a^>=0"}, unordered=True)
        spec = SpecializedDTD(DTD("out", {"out": "item^>=0"}, unordered=True))
        assert _order_insensitive(tau1, spec)

    def test_canonical_key_ignores_order(self):
        t1 = parse_tree("r(a, b(c))")
        t2 = parse_tree("r(b(c), a)")
        assert _unordered_canonical(t1.root) == _unordered_canonical(t2.root)
        t3 = parse_tree("r(b(a), a)")
        assert _unordered_canonical(t1.root) != _unordered_canonical(t3.root)


class TestVerdictLogic:
    def test_typechecks_requires_space_exhaustion(self):
        tau1 = DTD("root", {"root": "a*"})  # infinite space
        tau2 = DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"})
        res = find_counterexample(plain_query(), tau1, tau2, SearchBudget(max_size=4))
        assert res.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND

    def test_typechecks_on_finite_space(self):
        tau1 = DTD("root", {"root": "a.a?"})
        tau2 = DTD("out", {"out": "item^>=1"}, unordered=True)
        res = find_counterexample(plain_query(), tau1, tau2, SearchBudget(max_size=3))
        assert res.verdict is Verdict.TYPECHECKS and res.stats.exhausted_space

    def test_capped_value_classes_block_proof(self):
        tau1 = DTD("root", {"root": "a.a?"})
        tau2 = DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"})
        q = Query(
            where=Where.of(
                "root", [Edge.of(None, "X", "a")], [Condition("X", "=", Const(1))]
            ),
            construct=ConstructNode("out", (), (ConstructNode("item", ("X",)),)),
        )
        res = find_counterexample(q, tau1, tau2, SearchBudget(max_size=3, max_value_classes=1))
        assert res.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
        res_full = find_counterexample(q, tau1, tau2, SearchBudget(max_size=3))
        assert res_full.verdict is Verdict.TYPECHECKS

    def test_max_instances_budget(self):
        tau1 = DTD("root", {"root": "a*"})
        tau2 = DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"})
        res = find_counterexample(plain_query(), tau1, tau2, SearchBudget(max_size=8, max_instances=3))
        assert res.stats.valued_trees_checked == 3

    def test_counterexample_reverified(self):
        tau1 = DTD("root", {"root": "a*"})
        tau2 = DTD("out", {"out": "item^=0"}, unordered=True)
        res = find_counterexample(plain_query(), tau1, tau2, SearchBudget(max_size=3))
        assert res.verdict is Verdict.FAILS
        assert tau1.is_valid(res.counterexample)
        assert not tau2.is_valid(res.output)
        assert res.violation

    def test_vacuous_output_ok_default(self):
        # Query never matches: no output; typechecks vacuously.
        tau1 = DTD("root", {"root": "a.a?"})
        tau2 = DTD("out", {"out": "false"}, unordered=True)
        res = find_counterexample(plain_query("zzz"), tau1, tau2, SearchBudget(max_size=3))
        assert res.verdict is Verdict.TYPECHECKS

    def test_vacuous_output_flagged_when_disallowed(self):
        tau1 = DTD("root", {"root": "a.a?"})
        tau2 = DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"})
        res = find_counterexample(
            plain_query("zzz"), tau1, tau2, SearchBudget(max_size=3), vacuous_output_ok=False
        )
        assert res.verdict is Verdict.FAILS
        assert "no output" in res.violation

    def test_custom_validator_callable(self):
        tau1 = DTD("root", {"root": "a.a?"})
        calls = []

        def validator(tree):
            calls.append(tree)
            return ValidationResult(True)

        res = find_counterexample(plain_query(), tau1, validator, SearchBudget(max_size=3))
        # Finite instance space + no data conditions: exhaustive, hence a proof.
        assert calls and res.verdict is Verdict.TYPECHECKS

    def test_free_variable_query_rejected(self):
        q = Query(
            where=Where.of("root", [Edge.of(None, "X", "a")]),
            construct=ConstructNode("out", ("Z",)),
            free_vars=("Z",),
        )
        tau1 = DTD("root", {"root": "a"})
        with pytest.raises(ValueError):
            find_counterexample(q, tau1, DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"}))

    def test_stats_populated(self):
        tau1 = DTD("root", {"root": "a.a?"})
        tau2 = DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"})
        res = find_counterexample(
            plain_query(), tau1, tau2, SearchBudget(max_size=3), theoretical_bound=10**12
        )
        assert res.stats.label_trees_checked == 2
        assert res.stats.theoretical_bound == 10**12
        assert res.stats.budget_max_size == 3
        assert "theoretical" in res.summary()


class TestBudgetEnforcement:
    """max_instances is enforced *before* evaluating a candidate, so the
    cap holds even when every candidate takes the vacuous-output fast
    path (which previously skipped the budget check entirely)."""

    def test_vacuous_candidates_respect_max_instances(self):
        tau1 = DTD("root", {"root": "a*"})
        tau2 = DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"})
        # plain_query("zzz") never matches: all candidates are vacuous.
        res = find_counterexample(
            plain_query("zzz"), tau1, tau2, SearchBudget(max_size=8, max_instances=3)
        )
        assert res.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
        assert res.stats.valued_trees_checked == 3

    def test_budget_exactly_exhausted_by_matching_candidates(self):
        tau1 = DTD("root", {"root": "a*"})
        tau2 = DTD("out", {"out": "true"}, unordered=True, alphabet={"out", "item"})
        res = find_counterexample(
            plain_query(), tau1, tau2, SearchBudget(max_size=8, max_instances=5)
        )
        assert res.stats.valued_trees_checked == 5


class TestWitnessVerification:
    def test_unstable_validator_raises_not_asserts(self):
        """A witness that fails validation once but passes the recheck is
        an engine inconsistency: it must surface as a structured
        WitnessVerificationError (an assert would vanish under -O)."""
        from repro.typecheck import WitnessVerificationError

        tau1 = DTD("root", {"root": "a*"})
        calls = []

        def flaky_validator(tree):
            calls.append(tree)
            return ValidationResult(len(calls) > 1)  # fail first, pass recheck

        with pytest.raises(WitnessVerificationError) as err:
            find_counterexample(plain_query(), tau1, flaky_validator, SearchBudget(max_size=3))
        assert err.value.tree is not None
        assert "re-verification" in str(err.value)
