"""Instance generation for DTDs: the engine behind counterexample search.

All the paper's decidability proofs (Theorems 3.1, 3.2, 3.5) argue that a
typechecking violation, if any, is witnessed by a *small* instance of the
input DTD; the decision procedure then checks all instances up to the
bound.  This module provides exactly that machinery:

* :func:`min_instance_size` — smallest derivation tree per tag (Dijkstra
  over content-model DFAs inside a fixpoint);
* :func:`enumerate_instances` — exhaustive, size-ordered, duplicate-free
  enumeration of ``inst(tau)`` with budget-pruned word expansion, which
  can start at any position of its stream;
* :func:`count_instances` — the length of that stream, by a counting DP;
* :func:`random_instance` — randomized sampling for benchmarks.

Enumeration is over *label* trees (no data values); the typechecker layers
data-value assignments on top (see ``repro.typecheck.search``).

The order of the stream is fixed, and checkpoints, shard ranges and fault
indices all count positions in it.  Within one size, trees of a tag come
word by word (children words in depth-first order over the content DFA,
letters sorted); within one word, child 0's size bonus is the outermost
loop, then child 0's subtree, then child 1's bonus and subtree, and so on.
The counting DP counts trees in exactly that nesting, so a seek
(``start=k``) skips whole sizes, word-trie branches, bonus blocks and
child blocks by their counts and builds no node of a skipped tree.

Everything the enumerator needs — minimum sizes, the content DFAs with
their ordered live transitions, completion costs and the counts — is
built once per DTD and kept in a small process memo.
"""

from __future__ import annotations

import heapq
import random
import threading
from collections import OrderedDict
from typing import Iterator, Optional

from repro.automata.dfa import DFA
from repro.dtd.core import DTD
from repro.runtime.control import RuntimeControl
from repro.trees.data_tree import DataTree, Node

_INF = float("inf")


def min_instance_size(dtd: DTD) -> dict[str, Optional[int]]:
    """For each tag, the size of the smallest derivation tree rooted at
    that tag, or ``None`` when the tag derives no finite tree (useless
    symbol)."""
    return dict(_grammar_for(dtd).mins)


def _min_sizes(dfas: dict[str, DFA]) -> dict[str, Optional[int]]:
    sizes: dict[str, float] = {tag: _INF for tag in dfas}
    changed = True
    while changed:
        changed = False
        for tag, dfa in dfas.items():
            best = _min_word_cost(dfa, sizes)
            if best is None:
                continue
            candidate = 1 + best
            if candidate < sizes[tag]:
                sizes[tag] = candidate
                changed = True
    return {tag: (None if s is _INF else int(s)) for tag, s in sizes.items()}


def _min_word_cost(dfa: DFA, letter_cost: dict[str, float]) -> Optional[float]:
    """Cheapest total letter cost of an accepted word (Dijkstra)."""
    dist: dict[int, float] = {dfa.start: 0.0}
    heap: list[tuple[float, int]] = [(0.0, dfa.start)]
    while heap:
        d, s = heapq.heappop(heap)
        if d > dist.get(s, _INF):
            continue
        if s in dfa.accepting:
            return d
        for a in dfa.alphabet:
            cost = letter_cost.get(a, _INF)
            if cost is _INF:
                continue
            t = dfa.transitions[(s, a)]
            nd = d + cost
            if nd < dist.get(t, _INF):
                dist[t] = nd
                heapq.heappush(heap, (nd, t))
    return None


def _completion_cost(dfa: DFA, letter_cost: dict[str, int]) -> dict[int, float]:
    """Per state, the cheapest cost of a word leading to acceptance
    (backward Dijkstra)."""
    rev: dict[int, list[tuple[int, int]]] = {s: [] for s in range(dfa.n_states)}
    for (s, a), t in dfa.transitions.items():
        cost = letter_cost.get(a)
        if cost is not None:
            rev[t].append((s, cost))
    dist: dict[int, float] = {s: 0 for s in dfa.accepting}
    heap = [(0, s) for s in dfa.accepting]
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


# -- per-DTD tables -------------------------------------------------------------


class _Rule:
    """One content model as the enumerator reads it.

    ``moves[state]`` lists ``(letter, target, letter cost)`` in sorted
    letter order, keeping only letters that derive a finite tree and
    targets from which acceptance is still reachable; ``completion``
    is the cheapest cost from each state to acceptance."""

    __slots__ = ("start", "accepting", "moves", "completion")

    def __init__(self, dfa: DFA, cost: dict[str, int]) -> None:
        completion = _completion_cost(dfa, cost)
        states = range(dfa.n_states)
        self.start = dfa.start
        self.accepting = tuple(s in dfa.accepting for s in states)
        self.completion = tuple(completion.get(s, _INF) for s in states)
        letters = sorted(a for a in dfa.alphabet if a in cost)
        moves = []
        for s in states:
            targets = [(a, dfa.transitions[(s, a)]) for a in letters]
            moves.append(
                tuple((a, t, cost[a]) for a, t in targets if self.completion[t] is not _INF)
            )
        self.moves = tuple(moves)


class _Counts:
    """How many trees the enumerator yields, for sizes ``<= max_size``.

    ``trees[tag][n]``: trees rooted at ``tag`` with exactly ``n`` nodes.
    ``tails[tag][state][r]``: ways to finish a children word of ``tag``
    from DFA ``state`` with children whose sizes total exactly ``r``
    (words in the DFA's language, each child any tree of its tag)."""

    __slots__ = ("max_size", "trees", "tails")

    def __init__(self, grammar: "_Grammar", max_size: int) -> None:
        rules = grammar.rules
        trees = {tag: [0] * (max_size + 1) for tag in rules}
        tails = {tag: [[] for _ in rule.accepting] for tag, rule in rules.items()}
        for size in range(1, max_size + 1):
            r = size - 1
            for tag, rule in rules.items():
                rows = tails[tag]
                for state, moves in enumerate(rule.moves):
                    total = 1 if r == 0 and rule.accepting[state] else 0
                    for letter, target, cost in moves:
                        sub, row = trees[letter], rows[target]
                        for k in range(cost, r + 1):
                            total += sub[k] * row[r - k]
                    rows[state].append(total)
                trees[tag][size] = rows[rule.start][r]
        self.max_size = max_size
        self.trees = trees
        self.tails = tails


class _Grammar:
    """Everything :func:`enumerate_instances` needs about one DTD, built
    once: minimum sizes, one :class:`_Rule` per tag, and the counts
    (built on the first seek, rebuilt only for a larger size)."""

    __slots__ = ("root", "mins", "rules", "_counts")

    def __init__(self, dtd: DTD) -> None:
        dfas = {tag: model.to_dfa(dtd.alphabet) for tag, model in dtd.rules.items()}
        self.root = dtd.root
        self.mins = _min_sizes(dfas)
        cost = {a: m for a, m in self.mins.items() if m is not None}
        self.rules = {tag: _Rule(dfa, cost) for tag, dfa in dfas.items()}
        self._counts: Optional[_Counts] = None

    def counts(self, max_size: int) -> _Counts:
        # Immutable once built; a racing thread at worst builds a twin.
        counts = self._counts
        if counts is None or counts.max_size < max_size:
            counts = self._counts = _Counts(self, max_size)
        return counts


_GRAMMAR_MEMO_MAX = 16
_grammars: "OrderedDict[str, _Grammar]" = OrderedDict()
_grammars_lock = threading.Lock()


def _grammar_for(dtd: DTD) -> _Grammar:
    """The process-level table cache (bounded LRU, thread-safe), keyed by
    the DTD's ``repr`` — the same text checkpoint fingerprints digest —
    so separately parsed copies of one DTD share their tables."""
    key = repr(dtd)
    with _grammars_lock:
        hit = _grammars.get(key)
        if hit is not None:
            _grammars.move_to_end(key)
            return hit
    grammar = _Grammar(dtd)
    with _grammars_lock:
        hit = _grammars.get(key)
        if hit is not None:
            _grammars.move_to_end(key)
            return hit
        _grammars[key] = grammar
        if len(_grammars) > _GRAMMAR_MEMO_MAX:
            _grammars.popitem(last=False)
    return grammar


# -- enumeration -----------------------------------------------------------------


def _words(
    g: _Grammar, tag: str, budget: int, skip: int
) -> Iterator[tuple[tuple[str, ...], int, int]]:
    """Children words of ``tag`` whose minimal total size fits ``budget``,
    depth-first over the content DFA, as ``(word, spare, skip)``:
    ``spare`` is the size left after every child's minimum, ``skip`` the
    position inside the word's block of trees at which to start.

    With ``skip > 0`` whole branches of the word trie are skipped by
    their tree counts: ``ways[x]`` counts the prefix's child trees of
    total size ``x``, and the trees below a branch number
    ``sum(ways[x] * tails[state][budget - x])``."""
    rule = g.rules[tag]
    accepting, moves, completion = rule.accepting, rule.moves, rule.completion
    prefix: list[str] = []

    def plain(state: int, remaining: int) -> Iterator[tuple[tuple[str, ...], int, int]]:
        if accepting[state]:
            yield tuple(prefix), remaining, 0
        for letter, target, cost in moves[state]:
            left = remaining - cost
            if left < completion[target]:
                continue
            prefix.append(letter)
            yield from plain(target, left)
            prefix.pop()

    def seek(
        state: int, remaining: int, ways: list[int], skip: int
    ) -> Iterator[tuple[tuple[str, ...], int, int]]:
        if accepting[state]:
            here = ways[budget]
            if skip < here:
                yield tuple(prefix), remaining, skip
                skip = 0
            else:
                skip -= here
        for letter, target, cost in moves[state]:
            left = remaining - cost
            if left < completion[target]:
                continue
            prefix.append(letter)
            if skip:
                nxt = _convolve(ways, counts.trees[letter], budget)
                row = tails[target]
                below = sum(nxt[x] * row[budget - x] for x in range(budget + 1))
                if skip >= below:
                    skip -= below
                else:
                    yield from seek(target, left, nxt, skip)
                    skip = 0
            else:
                yield from plain(target, left)
            prefix.pop()

    if completion[rule.start] > budget:
        return
    if not skip:
        yield from plain(rule.start, budget)
        return
    counts = g.counts(budget + 1)
    tails = counts.tails[tag]
    yield from seek(rule.start, budget, [1] + [0] * budget, skip)


def _convolve(ways: list[int], trees: list[int], budget: int) -> list[int]:
    """``ways`` extended by one child: out[x] = sum ways[x - k] * trees[k]."""
    out = [0] * (budget + 1)
    for x, w in enumerate(ways):
        if w:
            for k in range(1, budget - x + 1):
                out[x + k] += w * trees[k]
    return out


def _fill(
    g: _Grammar, tag: str, word: tuple[str, ...], spare: int, skip: int
) -> Iterator[Node]:
    """Trees ``tag(word)``: ``spare`` extra nodes distributed over the
    children (child 0's bonus outermost), from position ``skip``."""
    if not word:
        if spare == 0:
            yield Node(tag)
        return
    mins = g.mins
    last = len(word) - 1
    built: list[Node] = []
    if skip:
        # suffix[i][e]: trees for children i.. with e extra nodes in all.
        trees = g.counts(1 + sum(mins[a] for a in word) + spare).trees  # type: ignore[misc]
        suffix = [[0] * (spare + 1) for _ in range(len(word) + 1)]
        suffix[-1][0] = 1
        for i in range(last, -1, -1):
            sub, base, after = trees[word[i]], mins[word[i]], suffix[i + 1]
            suffix[i] = [
                sum(sub[base + b] * after[e - b] for b in range(e + 1))  # type: ignore[operator]
                for e in range(spare + 1)
            ]

    def rec(i: int, spare: int, skip: int) -> Iterator[Node]:
        child_tag = word[i]
        base = mins[child_tag]
        assert base is not None
        if i == last:
            # The last child takes whatever is left.
            for child in _trees(g, child_tag, base + spare, skip):
                built.append(child)
                yield Node(tag, built)
                built.pop()
            return
        for bonus in range(spare + 1):
            if skip:
                per = suffix[i + 1][spare - bonus]
                block = trees[child_tag][base + bonus] * per
                if skip >= block:
                    skip -= block
                    continue
                child_skip, rest_skip = divmod(skip, per)
                skip = 0
            else:
                child_skip = rest_skip = 0
            for child in _trees(g, child_tag, base + bonus, child_skip):
                built.append(child)
                yield from rec(i + 1, spare - bonus, rest_skip)
                built.pop()
                rest_skip = 0

    yield from rec(0, spare, skip)


def _trees(g: _Grammar, tag: str, size: int, skip: int = 0) -> Iterator[Node]:
    """Trees rooted at ``tag`` with exactly ``size`` nodes, from position
    ``skip`` of their block."""
    least = g.mins.get(tag)
    if least is None or size < least:
        return
    for word, spare, word_skip in _words(g, tag, size - 1, skip):
        yield from _fill(g, tag, word, spare, word_skip)


def enumerate_trees(dtd: DTD, tag: str, size: int) -> Iterator[Node]:
    """All derivation trees rooted at ``tag`` with exactly ``size`` nodes.

    Children words are enumerated through the content DFA with the
    remaining size budget; the budget is then distributed over the
    children in all ways compatible with their minimal sizes.
    """
    return _trees(_grammar_for(dtd), tag, size)


def enumerate_instances(
    dtd: DTD,
    max_size: int,
    min_size: int = 1,
    limit: Optional[int] = None,
    control: Optional[RuntimeControl] = None,
    start: int = 0,
) -> Iterator[DataTree]:
    """Instances of the DTD in increasing size order, sizes
    ``min_size..max_size``, from position ``start`` of that stream, up to
    ``limit`` trees.

    The order is deterministic — the counterexample search's
    checkpoint/resume machinery depends on it.  ``start`` seeks: the
    trees before it are counted, never built, so the first tree costs
    about as much as any other.  ``control`` makes the
    enumeration interruptible: between trees it polls the
    :class:`~repro.runtime.RuntimeControl` and raises
    :class:`~repro.runtime.OperationInterrupted` when a deadline expires
    or a cancellation is requested (enumeration has no partial result to
    return, so the exception style is the right fit here; the search
    engine does its own per-instance polling instead).
    """
    if limit is not None and limit <= 0:
        return
    g = _grammar_for(dtd)
    skip = start
    produced = 0
    for size in range(max(1, min_size), max_size + 1):
        if skip:
            here = g.counts(max_size).trees[g.root][size]
            if skip >= here:
                skip -= here
                continue
        for node in _trees(g, g.root, size, skip):
            if control is not None:
                control.raise_if_stopped()
            yield DataTree(node)
            produced += 1
            if limit is not None and produced >= limit:
                return
        skip = 0


def max_instance_size(dtd: DTD, cap: int = 10_000) -> Optional[int]:
    """The size of the *largest* instance, or ``None`` when instances can
    grow without bound (recursive DTD or starred content).

    Finite iff the DTD has a depth bound and every content model has a
    finite language.  ``cap`` guards the fixpoint against blowup.
    """
    if dtd.depth_bound() is None:
        return None
    dfas = {tag: model.to_dfa(dtd.alphabet) for tag, model in dtd.rules.items()}
    if not all(d.is_finite_language() for d in dfas.values()):
        return None
    # Longest-derivation fixpoint; finite because the DTD is depth-bounded
    # and children words are finitely many.
    maxes: dict[str, int] = {}

    def rec(tag: str, stack: frozenset[str]) -> int:
        if tag in maxes:
            return maxes[tag]
        if tag in stack:  # pragma: no cover - contradicts depth-boundedness
            raise ValueError("unexpected recursion in depth-bounded DTD")
        best = 1
        for word in dfas[tag].iter_words():
            total = 1 + sum(rec(a, stack | {tag}) for a in word)
            if total > best:
                best = total
            if best > cap:
                return cap
        maxes[tag] = best
        return best

    return rec(dtd.root, frozenset())


def count_instances(dtd: DTD, max_size: int) -> int:
    """How many label trees of size <= max_size satisfy the DTD: the
    length of :func:`enumerate_instances`' stream, by the counting DP
    (no tree is built)."""
    g = _grammar_for(dtd)
    return sum(g.counts(max_size).trees[g.root][1 : max_size + 1])


def random_instance(
    dtd: DTD,
    rng: Optional[random.Random] = None,
    fanout_bias: float = 0.5,
    max_depth: int = 24,
) -> DataTree:
    """Sample a random instance top-down.

    At each node we sample a children word from the content DFA: at
    accepting states we stop with probability ``1 - fanout_bias``
    (and always once ``max_depth`` is hit, falling back to the cheapest
    completion).  Useful for benchmark workloads; not uniform.
    """
    rng = rng or random.Random(0)
    g = _grammar_for(dtd)
    if g.mins.get(dtd.root) is None:
        raise ValueError(f"DTD root {dtd.root!r} derives no finite tree")

    def sample_word(tag: str, depth: int) -> list[str]:
        rule = g.rules[tag]
        word: list[str] = []
        state = rule.start
        while True:
            options = rule.moves[state]
            may_stop = rule.accepting[state]
            must_stop = depth >= max_depth or not options
            if may_stop and (must_stop or rng.random() > fanout_bias):
                return word
            if must_stop:
                # Cheapest completion to an accepting state.
                while not rule.accepting[state]:
                    a, state, _ = min(
                        rule.moves[state], key=lambda m: m[2] + rule.completion[m[1]]
                    )
                    word.append(a)
                return word
            a, state, _ = rng.choice(options)
            word.append(a)

    def build(tag: str, depth: int) -> Node:
        return Node(tag, [build(a, depth + 1) for a in sample_word(tag, depth)])

    return DataTree(build(dtd.root, 0))
