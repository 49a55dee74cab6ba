"""Instance generation: the counterexample-search substrate.

The seekable, table-driven enumerator is checked against the recursive
generator it replaced, kept here as the oracle for its order."""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtd import DTD, enumerate_instances, min_instance_size, random_instance
from repro.dtd.generate import count_instances, enumerate_trees, max_instance_size
from repro.trees import parse_tree
from repro.trees.data_tree import DataTree, Node

# -- the oracle: the recursive generator, verbatim in behaviour ---------------

_INF = float("inf")


def _oracle_completion_cost(dfa, letter_cost):
    rev = {s: [] for s in range(dfa.n_states)}
    for (s, a), t in dfa.transitions.items():
        cost = letter_cost.get(a, _INF)
        if cost is not _INF:
            rev[t].append((s, cost))
    dist = {s: 0.0 for s in dfa.accepting}
    heap = [(0.0, s) for s in dfa.accepting]
    heapq.heapify(heap)
    while heap:
        d, s = heapq.heappop(heap)
        if d > dist.get(s, _INF):
            continue
        for p, cost in rev[s]:
            nd = d + cost
            if nd < dist.get(p, _INF):
                dist[p] = nd
                heapq.heappush(heap, (nd, p))
    return dist


def _oracle_words(dfa, budget, letter_cost):
    completion = _oracle_completion_cost(dfa, letter_cost)
    order = sorted(a for a in dfa.alphabet if letter_cost.get(a, _INF) is not _INF)

    def rec(state, remaining, prefix):
        if state in dfa.accepting:
            yield tuple(prefix)
        for a in order:
            t = dfa.transitions[(state, a)]
            left = remaining - letter_cost[a]
            if left < completion.get(t, _INF):
                continue
            prefix.append(a)
            yield from rec(t, left, prefix)
            prefix.pop()

    if completion.get(dfa.start, _INF) <= budget:
        yield from rec(dfa.start, float(budget), [])


def _oracle_trees(dtd, mins, tag, size):
    if mins.get(tag) is None or size < mins[tag]:
        return
    dfa = dtd.content(tag).to_dfa(dtd.alphabet)
    letter_cost = {a: float(m) for a, m in mins.items() if m is not None}
    budget = size - 1
    for word in _oracle_words(dfa, budget, letter_cost):
        extra = budget - sum(mins[a] for a in word)
        if extra < 0:
            continue

        def rec(i, spare, built, word=word):
            if i == len(word):
                if spare == 0:
                    yield Node(tag, list(built))
                return
            for bonus in range(spare + 1):
                for child in _oracle_trees(dtd, mins, word[i], mins[word[i]] + bonus):
                    built.append(child)
                    yield from rec(i + 1, spare - bonus, built)
                    built.pop()

        yield from rec(0, extra, [])


def oracle_instances(dtd, max_size, min_size=1):
    mins = min_instance_size(dtd)
    for size in range(max(1, min_size), max_size + 1):
        for node in _oracle_trees(dtd, mins, dtd.root, size):
            yield DataTree(node)


# -- small DTDs over a three-letter alphabet ----------------------------------

TAGS = ("r", "a", "b")


@st.composite
def regexes(draw, depth=2, star_free=False):
    atom = st.sampled_from(TAGS + ("eps",))
    if depth == 0:
        return draw(atom)
    kinds = ["atom", "concat", "union", "complement", "intersect"]
    if not star_free:
        kinds += ["star", "star"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(atom)
    if kind == "star":
        return f"({draw(regexes(depth - 1, star_free))})*"
    if kind == "complement":
        return f"~({draw(regexes(depth - 1, star_free))})"
    left = draw(regexes(depth - 1, star_free))
    right = draw(regexes(depth - 1, star_free))
    op = {"concat": ".", "union": " + ", "intersect": " & "}[kind]
    return f"({left}){op}({right})"


@st.composite
def sl_formulas(draw, depth=2):
    if depth == 0:
        tag = draw(st.sampled_from(TAGS))
        return f"{tag}^{draw(st.sampled_from(['=', '>=']))}{draw(st.integers(0, 2))}"
    kind = draw(st.sampled_from(["atom", "not", "and", "or"]))
    if kind == "atom":
        return draw(sl_formulas(0))
    if kind == "not":
        return f"!({draw(sl_formulas(depth - 1))})"
    op = " & " if kind == "and" else " | "
    return f"({draw(sl_formulas(depth - 1))}){op}({draw(sl_formulas(depth - 1))})"


REGULAR_DTDS = st.fixed_dictionaries({tag: regexes() for tag in TAGS}).map(
    lambda rules: DTD("r", rules)
)
STAR_FREE_DTDS = st.fixed_dictionaries({tag: regexes(star_free=True) for tag in TAGS}).map(
    lambda rules: DTD("r", rules)
)
SL_DTDS = st.fixed_dictionaries({tag: sl_formulas() for tag in TAGS}).map(
    lambda rules: DTD("r", rules, unordered=True)
)
ANY_DTD = st.one_of(REGULAR_DTDS, STAR_FREE_DTDS, SL_DTDS)

# Every start position is checked, so the stream is kept short: the
# largest size <= the drawn bound whose stream has at most this many trees.
STREAM_CAP = 120


def _capped_oracle(dtd, max_size):
    while True:
        oracle = list(itertools.islice(oracle_instances(dtd, max_size), STREAM_CAP + 1))
        if len(oracle) <= STREAM_CAP:
            return oracle, max_size
        max_size -= 1


class TestSeekAndCountAgainstTheOracle:
    @given(ANY_DTD, st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_every_start_position_matches_the_oracle_suffix(self, dtd, max_size):
        oracle, max_size = _capped_oracle(dtd, max_size)
        for k in range(len(oracle) + 2):
            assert list(enumerate_instances(dtd, max_size, start=k)) == oracle[k:], k

    @given(ANY_DTD, st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_count_equals_the_oracle_length(self, dtd, max_size):
        oracle, max_size = _capped_oracle(dtd, max_size)
        assert count_instances(dtd, max_size) == len(oracle)

    @given(ANY_DTD, st.integers(1, 7), st.integers(1, 7), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_min_size_and_limit_compose_with_start(self, dtd, max_size, min_size, k):
        oracle, max_size = _capped_oracle(dtd, max_size)
        suffix = [t for t in oracle if t.size() >= min_size][k:]
        got = enumerate_instances(dtd, max_size, min_size=min_size, start=k, limit=5)
        assert list(got) == suffix[:5]

    def test_full_order_on_the_sharded_benchmark_dtd(self):
        dtd = DTD("root", {"root": "(a + b)*", "a": "c*"})
        oracle = list(oracle_instances(dtd, 8))
        assert list(enumerate_instances(dtd, 8)) == oracle
        assert count_instances(dtd, 8) == len(oracle) == 987
        for k in range(0, len(oracle) + 1, 7):
            assert list(enumerate_instances(dtd, 8, start=k, limit=3)) == oracle[k : k + 3]

    def test_limit_zero_yields_nothing(self):
        assert list(enumerate_instances(DTD("r", {"r": "a*"}), 5, limit=0)) == []


class TestMinInstanceSize:
    def test_paper_dtd(self):
        dtd = DTD("a", {"a": "b*.c.e", "c": "d*"})
        assert min_instance_size(dtd) == {"a": 3, "b": 1, "c": 1, "d": 1, "e": 1}

    def test_recursive_tag_still_finite(self):
        # r -> r | eps: the minimal instance is the leaf.
        dtd = DTD("r", {"r": "r?"})
        assert min_instance_size(dtd)["r"] == 1

    def test_useless_symbol(self):
        # r -> s, s -> s: s derives no finite tree, hence neither does r.
        dtd = DTD("r", {"r": "s", "s": "s"})
        assert min_instance_size(dtd) == {"r": None, "s": None}

    def test_choice_picks_cheaper(self):
        dtd = DTD("r", {"r": "big + leaf", "big": "x.x.x"})
        assert min_instance_size(dtd)["r"] == 2


class TestMaxInstanceSize:
    def test_finite_space(self):
        dtd = DTD("r", {"r": "a.b?"})
        assert max_instance_size(dtd) == 3

    def test_star_unbounded(self):
        assert max_instance_size(DTD("r", {"r": "a*"})) is None

    def test_recursion_unbounded(self):
        assert max_instance_size(DTD("r", {"r": "r?"})) is None


class TestEnumeration:
    def test_all_enumerated_are_valid(self):
        dtd = DTD("a", {"a": "b*.c.e", "c": "d*"})
        for tree in enumerate_instances(dtd, 6):
            assert dtd.is_valid(tree)

    def test_sizes_non_decreasing(self):
        dtd = DTD("a", {"a": "b*.c.e", "c": "d*"})
        sizes = [t.size() for t in enumerate_instances(dtd, 7)]
        assert sizes == sorted(sizes)

    def test_no_duplicates(self):
        dtd = DTD("r", {"r": "(a + b)*"})
        seen = set()
        for tree in enumerate_instances(dtd, 4):
            key = tree.root.structure_key()
            assert key not in seen
            seen.add(key)

    def test_exhaustive_against_brute_force(self):
        """Every valid label tree up to the bound is enumerated."""
        dtd = DTD("r", {"r": "a*.b?", "a": "c?"})

        def all_trees(labels, max_size):
            # Generate all rooted ordered trees over `labels` up to max_size.
            def build(size):
                for label in labels:
                    if size == 1:
                        yield Node(label)
                        continue
                    for k in range(1, size):
                        for parts in compositions(size - 1, k):
                            for kids in itertools.product(
                                *(list(build(p)) for p in parts)
                            ):
                                yield Node(label, [c.copy() for c in kids])

            def compositions(total, k):
                if k == 1:
                    yield (total,)
                    return
                for first in range(1, total - k + 2):
                    for rest in compositions(total - first, k - 1):
                        yield (first,) + rest

            for size in range(1, max_size + 1):
                yield from build(size)

        expected = {
            DataTree(t).root.structure_key()
            for t in all_trees(["r", "a", "b", "c"], 4)
            if dtd.is_valid(DataTree(t))
        }
        got = {t.root.structure_key() for t in enumerate_instances(dtd, 4)}
        assert got == expected

    def test_limit(self):
        dtd = DTD("r", {"r": "a*"})
        assert len(list(enumerate_instances(dtd, 10, limit=3))) == 3

    def test_min_size_filter(self):
        dtd = DTD("r", {"r": "a*"})
        sizes = [t.size() for t in enumerate_instances(dtd, 4, min_size=3)]
        assert all(s >= 3 for s in sizes)

    def test_count_instances(self):
        dtd = DTD("r", {"r": "a*"})
        # sizes 1..4: exactly one shape per size.
        assert count_instances(dtd, 4) == 4

    def test_enumerate_trees_exact_size(self):
        dtd = DTD("r", {"r": "a*"})
        trees = list(enumerate_trees(dtd, "r", 3))
        assert len(trees) == 1 and trees[0].size() == 3

    def test_unordered_content_enumerates_orderings(self):
        dtd = DTD("r", {"r": "a^=1 & b^=1"}, unordered=True)
        got = {t.root.child_word() for t in enumerate_instances(dtd, 3)}
        assert got == {("a", "b"), ("b", "a")}


class TestRandomInstance:
    def test_always_valid(self):
        dtd = DTD("root", {"root": "movie*", "movie": "title.director"})
        for seed in range(10):
            import random

            t = random_instance(dtd, random.Random(seed), fanout_bias=0.6)
            assert dtd.is_valid(t), t

    def test_respects_mandatory_content(self):
        dtd = DTD("r", {"r": "a.b"})
        t = random_instance(dtd)
        assert t.root.child_word() == ("a", "b")

    def test_useless_root_raises(self):
        dtd = DTD("r", {"r": "s", "s": "s"})
        with pytest.raises(ValueError):
            random_instance(dtd)

    def test_fanout_bias_grows_trees(self):
        import random

        dtd = DTD("r", {"r": "a*"})
        small = random_instance(dtd, random.Random(0), fanout_bias=0.01).size()
        sizes = [
            random_instance(dtd, random.Random(s), fanout_bias=0.9).size() for s in range(8)
        ]
        assert max(sizes) > small
