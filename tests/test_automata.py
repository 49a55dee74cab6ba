"""Regex ASTs, NFAs and DFAs: the automata substrate."""

import pytest

from repro.automata import DFA, parse_regex
from repro.automata.dfa import dfa_for_finite_language, enumerate_language, from_nfa
from repro.automata.regex import (
    EMPTY,
    EPSILON,
    RegexParseError,
    Symbol,
    any_of,
    concat,
    optional,
    plus,
    star,
    sym,
    union,
    word,
)


class TestRegexParser:
    def test_single_symbol(self):
        assert parse_regex("movie") == Symbol("movie")

    def test_concat_dot(self):
        r = parse_regex("title.director.review")
        assert r.matches(["title", "director", "review"])
        assert not r.matches(["title", "review"])

    def test_union_plus(self):
        r = parse_regex("zero + one")
        assert r.matches(["zero"]) and r.matches(["one"])
        assert not r.matches(["zero", "one"])

    def test_star_binds_tighter_than_concat(self):
        r = parse_regex("b*.c")
        assert r.matches(["c"]) and r.matches(["b", "b", "c"])
        assert not r.matches(["b", "c", "c"])

    def test_concat_binds_tighter_than_union(self):
        r = parse_regex("a.b + c")
        assert r.matches(["a", "b"]) and r.matches(["c"])
        assert not r.matches(["a", "c"])

    def test_parentheses(self):
        r = parse_regex("(a + b).(a + b)")
        assert r.matches(["a", "b"]) and r.matches(["b", "a"])
        assert not r.matches(["a"])

    def test_optional(self):
        r = parse_regex("a?.b")
        assert r.matches(["b"]) and r.matches(["a", "b"])

    def test_eps_and_empty_keywords(self):
        assert parse_regex("eps").matches([])
        assert not parse_regex("empty").matches([])

    def test_complement(self):
        r = parse_regex("~(a)")
        assert r.matches([], alphabet={"a"})
        assert r.matches(["a", "a"], alphabet={"a"})
        assert not r.matches(["a"], alphabet={"a"})

    def test_intersection(self):
        r = parse_regex("(a.a)* & (a.a.a)*")
        assert r.matches(["a"] * 6) and not r.matches(["a"] * 4)

    def test_quoted_symbols(self):
        r = parse_regex("'$'.'#'")
        assert r.matches(["$", "#"])

    def test_juxtaposition_concat(self):
        # whitespace-separated atoms concatenate like '.'
        r = parse_regex("a b c")
        assert r.matches(["a", "b", "c"])

    def test_trailing_garbage(self):
        with pytest.raises(RegexParseError):
            parse_regex("a )")

    def test_unbalanced(self):
        with pytest.raises(RegexParseError):
            parse_regex("(a + b")

    def test_str_round_trips_language(self):
        for text in ["b*.c.e", "(a + b)*", "~(a.b) & a*", "a?.b + eps"]:
            r = parse_regex(text)
            r2 = parse_regex(str(r))
            assert r.to_dfa(frozenset({"a", "b", "c", "e"})).equivalent(
                r2.to_dfa(frozenset({"a", "b", "c", "e"}))
            )

    def test_complement_of_a_postfix_prints_unambiguously(self):
        # The printed form keys the enumeration-table memo and the
        # checkpoint fingerprint, so it must parse back to the same tree.
        for text in ["~(b*)", "(~b)*", "~(a?)", "~(~a)", "~(a.b)*"]:
            r = parse_regex(text)
            assert parse_regex(str(r)) == r, (text, str(r))
        assert str(parse_regex("~(b*)")) != str(parse_regex("(~b)*"))


class TestSmartConstructors:
    def test_concat_unit(self):
        assert concat(EPSILON, sym("a"), EPSILON) == sym("a")

    def test_concat_zero(self):
        assert concat(sym("a"), EMPTY) == EMPTY

    def test_union_unit(self):
        assert union(EMPTY, sym("a")) == sym("a")

    def test_star_collapses(self):
        assert star(star(sym("a"))) == star(sym("a"))
        assert star(EMPTY) == EPSILON

    def test_plus(self):
        r = plus(sym("a"))
        assert r.matches(["a", "a"]) and not r.matches([])

    def test_optional_matches_empty(self):
        assert optional(sym("a")).matches([])

    def test_word_and_any_of(self):
        assert word(["a", "b"]).matches(["a", "b"])
        assert any_of(["x", "y"]).matches(["y"])

    def test_symbols_collection(self):
        r = parse_regex("(a + b)*.c")
        assert r.symbols() == {"a", "b", "c"}


class TestDFABasics:
    def test_totality_enforced(self):
        with pytest.raises(ValueError):
            DFA(2, 0, {1}, {(0, "a"): 1}, {"a", "b"})

    def test_accepts_unknown_symbol_rejects(self):
        d = parse_regex("a").to_dfa()
        assert not d.accepts(["z"])

    def test_minimize_preserves_language(self):
        r = parse_regex("(a + b).(a + b)*")
        d = r.to_dfa()
        m = d.minimize()
        assert m.equivalent(d)
        assert m.n_states <= d.n_states

    def test_minimize_is_minimal_for_parity(self):
        d = parse_regex("(a.a)*").to_dfa(frozenset({"a"})).minimize()
        assert d.n_states == 2

    def test_complement_involution(self):
        d = parse_regex("a.b*").to_dfa(frozenset({"a", "b"}))
        assert d.complement().complement().equivalent(d)

    def test_product_operations(self):
        a = parse_regex("a*.b").to_dfa(frozenset({"a", "b"}))
        b = parse_regex("(a + b)*.b").to_dfa(frozenset({"a", "b"}))
        assert a.intersect(b).equivalent(a)  # a*.b subset of .*b
        assert a.union(b).equivalent(b)
        assert a.difference(b).is_empty()
        assert b.contains(a) and not a.contains(b)

    def test_product_alphabet_mismatch(self):
        a = parse_regex("a").to_dfa(frozenset({"a"}))
        b = parse_regex("b").to_dfa(frozenset({"b"}))
        with pytest.raises(ValueError):
            a.intersect(b)

    def test_emptiness(self):
        assert parse_regex("empty").to_dfa(frozenset({"a"})).is_empty()
        assert parse_regex("a & b").to_dfa(frozenset({"a", "b"})).is_empty()
        assert not parse_regex("a").to_dfa().is_empty()


class TestLanguageQueries:
    def test_finite_language_detection(self):
        assert parse_regex("a.b + c").to_dfa(frozenset({"a", "b", "c"})).is_finite_language()
        assert not parse_regex("a*").to_dfa(frozenset({"a"})).is_finite_language()
        assert not parse_regex("a.b*").to_dfa(frozenset({"a", "b"})).is_finite_language()

    def test_finite_despite_unreachable_cycle(self):
        # (a & b) has a cycle through dead states only.
        d = parse_regex("(a & b) + c").to_dfa(frozenset({"a", "b", "c"}))
        assert d.is_finite_language()

    def test_shortest_word(self):
        assert parse_regex("a.a + b").to_dfa(frozenset({"a", "b"})).shortest_word() == ("b",)
        assert parse_regex("eps + a").to_dfa(frozenset({"a"})).shortest_word() == ()
        assert parse_regex("empty").to_dfa(frozenset({"a"})).shortest_word() is None

    def test_iter_words_shortlex(self):
        d = parse_regex("(a + b)*").to_dfa()
        got = list(d.iter_words(max_length=2))
        assert got == [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]

    def test_iter_words_finite_terminates(self):
        d = parse_regex("a.b + a").to_dfa(frozenset({"a", "b"}))
        assert sorted(d.iter_words()) == [("a",), ("a", "b")]

    def test_count_words(self):
        d = parse_regex("(a + b)*").to_dfa()
        assert [d.count_words(n) for n in range(4)] == [1, 2, 4, 8]

    def test_count_words_matches_enumeration(self):
        d = parse_regex("a*.b.a*").to_dfa()
        for n in range(5):
            assert d.count_words(n) == sum(1 for w in d.iter_words(max_length=n) if len(w) == n)

    def test_enumerate_language_limit(self):
        d = parse_regex("a*").to_dfa(frozenset({"a"}))
        assert enumerate_language(d, limit=3) == [(), ("a",), ("a", "a")]


class TestFiniteLanguageDFA:
    def test_trie_construction(self):
        d = dfa_for_finite_language([("a", "b"), ("a",)], {"a", "b"})
        assert d.accepts(("a",)) and d.accepts(("a", "b"))
        assert not d.accepts(("b",)) and not d.accepts(("a", "b", "a"))

    def test_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            dfa_for_finite_language([("z",)], {"a"})


class TestAlgebraicStructure:
    def test_letter_stabilization_star(self):
        d = parse_regex("a*").to_dfa(frozenset({"a"})).minimize()
        mu, pi = d.letter_power_stabilization("a")
        assert pi == 1

    def test_letter_stabilization_parity(self):
        d = parse_regex("(a.a)*").to_dfa(frozenset({"a"})).minimize()
        mu, pi = d.letter_power_stabilization("a")
        assert pi == 2

    def test_aperiodicity(self):
        assert parse_regex("a*.b.a*").to_dfa().is_aperiodic()
        assert not parse_regex("(a.a)*").to_dfa(frozenset({"a"})).is_aperiodic()

    def test_transition_monoid_size_guard(self):
        d = parse_regex("(a + b)*").to_dfa()
        monoid = d.transition_monoid()
        assert len(monoid) >= 1


class TestNFA:
    def test_nfa_dfa_agreement(self):
        r = parse_regex("(a + b.c)*.b?")
        sigma = frozenset({"a", "b", "c"})
        nfa = r.to_nfa(sigma)
        dfa = from_nfa(nfa, sigma)
        for w in [(), ("a",), ("b",), ("b", "c"), ("b", "c", "b"), ("c",), ("a", "b")]:
            assert nfa.accepts(w) == dfa.accepts(w), w

    def test_thompson_alphabet_must_cover_symbols(self):
        from repro.automata.nfa import thompson

        with pytest.raises(ValueError):
            thompson(parse_regex("a.b"), frozenset({"a"}))

    def test_to_nfa_extends_alphabet(self):
        # The high-level API augments the alphabet instead of raising.
        nfa = parse_regex("a.b").to_nfa(frozenset({"a"}))
        assert nfa.alphabet == {"a", "b"}
