"""Compile-once query evaluation: the counterexample search hot path.

:mod:`repro.ql.eval` is the *reference* semantics, and stays exactly as
the paper states it — but it recompiles every edge regex to a DFA per
candidate tree and recomputes document order per nested restriction,
while the bounded search calls it millions of times.  This module splits
the work by what can actually change between calls:

* **per run** (:class:`CompiledQuery`): edge DFAs compiled over the input
  DTD's full alphabet ∪ the regex's own symbols, the canonical variable
  order of every (sub)query, condition-variable sets, the constants the
  query compares against, and the value-relevant tag set.  A small
  process-level memo (:func:`compiled_query_for`) shares one compilation
  across the procedures and across every shard a worker process runs.
* **per label tree** (:class:`BoundTree`): one working copy of the tree,
  its document order, path-target sets keyed by ``(edge, source node)``,
  and the *structural* bindings of every subquery — edge extension, sort,
  dedup, everything except condition filtering, which is the only part of
  binding enumeration that reads data values.
* **per value assignment** (:meth:`BoundTree.evaluate`): write the values
  onto the working copy in place (no ``tree.copy()``), keep the cached
  structural bindings that survive the conditions, and instantiate the
  output.
* **per verdict** (:meth:`BoundTree.step_key`): the set of structural
  rows that survive the conditions, computed over interned value codes
  (:func:`repro.trees.values.walk_value_codes`) without touching the
  tree, and only for the code positions that changed since the previous
  assignment.  Only this set decides the output's labeled shape, so the
  search memoizes passing verdicts on it and skips ``evaluate`` and
  validation for every further assignment with the same key; on a miss,
  ``evaluate`` selects the surviving rows by the key's masks.

Soundness of the alphabet widening: for a fixed word ``w`` over the
candidate tree's labels, membership in the language of a regex over
alphabet ``Sigma`` is invariant under enlarging ``Sigma`` as long as the
symbols of ``w`` lie in both alphabets — by structural induction over the
regex, including complement and intersection (``~r`` relative to a larger
ambient alphabet admits more *words*, but membership of each fixed word
only depends on whether ``r`` accepts it).  Candidate-tree labels are
always a subset of the DTD alphabet, so compiling once over
``dtd.alphabet | regex.symbols()`` answers every per-tree query
identically; the wider alphabet can only make coreachability pruning
weaker (visit more nodes), never change which targets are accepted.

Caching the structural bindings *before* condition filtering is exact
because filtering is a per-binding predicate and the dedup key covers all
variables of the subquery: filter-then-(sort+dedup) and
(sort+dedup)-then-filter keep exactly the same bindings in the same
order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from repro.ql.analysis import (
    condition_variables,
    constants_used,
    has_data_conditions,
    value_relevant_tags,
)
from repro.ql.ast import Const, ConstructNode, NestedQuery, Query
from repro.ql.eval import Binding, _condition_holds, _single_root
from repro.trees.data_tree import DataTree, Node

__all__ = ["BoundTree", "CompiledQuery", "compiled_query_for"]


class _CompiledEdge:
    """One where-edge with its DFA flattened for the inner walk."""

    __slots__ = (
        "source",
        "target",
        "start",
        "accepting",
        "transitions",
        "coreach",
        "accepts_epsilon",
    )

    def __init__(self, edge: Any, alphabet: frozenset[str]) -> None:
        self.source = edge.source
        self.target = edge.target
        dfa = edge.regex.to_dfa(alphabet | edge.regex.symbols())
        self.start = dfa.start
        self.accepting = dfa.accepting
        self.transitions = dfa.transitions
        self.coreach = dfa.coreachable_states()
        self.accepts_epsilon = dfa.accepts_epsilon()


class _CompiledSub:
    """The per-(sub)query artifacts the evaluator needs per binding set."""

    __slots__ = (
        "query",
        "root_tag",
        "edges",
        "conditions",
        "var_order",
        "free_order",
        "nested",
    )

    def __init__(self, query: Query, alphabet: frozenset[str]) -> None:
        self.query = query
        self.root_tag = query.where.root_tag
        self.edges = tuple(_CompiledEdge(e, alphabet) for e in query.where.edges)
        self.conditions = tuple(query.where.conditions)
        self.var_order = query.where.variables()
        self.free_order = tuple(query.free_vars)
        # Nested-query leaves of the construct clause, depth-first.
        self.nested: tuple[NestedQuery, ...] = tuple(_nested_leaves(query.construct))


def _nested_leaves(cnode: ConstructNode) -> Iterator[NestedQuery]:
    for child in cnode.children:
        if isinstance(child, ConstructNode):
            yield from _nested_leaves(child)
        else:
            yield child


class _KeyTable:
    """The structural rows of one ``(subquery, restriction)`` with their
    conditions compiled to value-code slots, for :meth:`BoundTree.verdict_key`.

    ``skey`` is the table's structural-cache key and ``full`` the mask of
    all its rows.  ``checks[i]`` lists row ``i``'s conditions as ``(left
    slot, right, is_eq)``: ``right >= 0`` is a slot, ``right < 0`` a
    constant's code.  ``restrictions[i][j]`` is row ``i``'s projection
    onto nested leaf ``j``'s arguments (node positions); ``visits``
    memoizes, per surviving mask, the nested tables that mask leads into,
    in evaluation order.
    """

    __slots__ = ("sub", "skey", "full", "checks", "restrictions", "visits")

    def __init__(
        self, sub: _CompiledSub, skey: tuple, checks: list, restrictions: list
    ) -> None:
        self.sub = sub
        self.skey = skey
        self.full = (1 << len(checks)) - 1
        self.checks = checks
        self.restrictions = restrictions
        self.visits: dict[int, tuple["_KeyTable", ...]] = {}


class CompiledQuery:
    """A query pre-compiled against one input-DTD alphabet.

    Immutable once built; safe to share across every label tree (and
    every shard) of one typecheck run.
    """

    __slots__ = (
        "query",
        "alphabet",
        "constants",
        "needs_values",
        "condition_vars",
        "relevant_tags",
        "dfas_compiled",
        "compile_seconds",
        "_subs",
    )

    def __init__(self, query: Query, alphabet: Iterable[str]) -> None:
        t0 = perf_counter()
        self.query = query
        self.alphabet = frozenset(alphabet)
        self._subs: dict[int, _CompiledSub] = {}
        for q in query.subqueries():
            self._subs[id(q)] = _CompiledSub(q, self.alphabet)
        self.dfas_compiled = sum(len(s.edges) for s in self._subs.values())
        self.constants: tuple[Any, ...] = tuple(sorted(constants_used(query), key=repr))
        self.needs_values = has_data_conditions(query)
        self.condition_vars = condition_variables(query)
        self.relevant_tags = value_relevant_tags(query)
        # Wall-clock cost of this compilation (DFA construction included).
        # A memo hit via compiled_query_for reports the original build's
        # cost, not zero: the telemetry "compile" histogram records the
        # price of the artifact actually in use.
        self.compile_seconds = perf_counter() - t0

    def bind(
        self,
        tree: Union[DataTree, Node],
        stats: Any = None,
        value_positions: Optional[Sequence[int]] = None,
    ) -> "BoundTree":
        """A per-label-tree evaluation context (one copy, reused across
        every value assignment).  ``stats`` may be a
        :class:`~repro.typecheck.result.SearchStats` whose
        ``cache_hits``/``cache_misses`` counters this context bumps.

        ``value_positions`` (document-order node positions, one per value
        code) enables the verdict keys (:meth:`BoundTree.step_key`); the
        conditions are compiled against those slots here, and only when
        the query has data conditions."""
        return BoundTree(self, tree, stats, value_positions)


class BoundTree:
    """Per-label-tree context: structure is computed once, only data
    values (and whatever depends on them) are re-evaluated per assignment.

    The context owns a private copy of the label tree; ``evaluate()``
    writes each assignment onto it in place, so the caller's tree is
    never mutated and no per-assignment copy is made.
    """

    __slots__ = (
        "cq",
        "root",
        "nodes",
        "order",
        "stats",
        "passing",
        "_targets",
        "_structural",
        "_slots",
        "_const_codes",
        "_top",
        "_steps",
        "_alive",
    )

    def __init__(
        self,
        cq: CompiledQuery,
        tree: Union[DataTree, Node],
        stats: Any,
        value_positions: Optional[Sequence[int]] = None,
    ) -> None:
        self.cq = cq
        source_root = tree.root if isinstance(tree, DataTree) else tree
        self.root = source_root.copy()
        self.nodes: list[Node] = list(self.root.iter_preorder())
        self.order: dict[int, int] = {id(n): i for i, n in enumerate(self.nodes)}
        self.stats = stats
        # (edge identity, source node) -> document-ordered target nodes.
        self._targets: dict[tuple[int, int], list[Node]] = {}
        # (subquery identity, gamma projected to node positions) ->
        # structural bindings (sorted, deduped, conditions NOT applied).
        self._structural: dict[tuple[int, tuple[int, ...]], list[Binding]] = {}
        # Verdict keys whose outcome passed (see verdict_key); None when
        # the context computes no keys.
        self.passing: Optional[set[Any]] = None
        self._top: Optional[_KeyTable] = None
        if value_positions is not None and cq.needs_values:
            self._slots = {id(self.nodes[p]): i for i, p in enumerate(value_positions)}
            self._const_codes = {
                v: -1 - k for k, v in enumerate(dict.fromkeys(cq.constants))
            }
            self._top = self._key_table(cq._subs[id(cq.query)], {})
            self._steps = self._prefix_steps(self._top, len(value_positions))
            # _alive[p]: the top table's rows that survive every check
            # decided before slot p, for the vector step_key saw last.
            self._alive = [self._top.full] * (len(value_positions) + 1)
            self.passing = set()

    # -- per-assignment entry -------------------------------------------------

    def evaluate(self, values: Sequence[Any], key: Any = None) -> Optional[DataTree]:
        """Evaluate the compiled query with ``values`` placed on the tree
        in document order; semantics identical to
        :func:`repro.ql.eval.evaluate` on ``assign_values(tree, values)``.

        ``key``, when given, is the verdict key of the same assignment
        (:meth:`step_key`): every table's rows are then selected by the
        surviving-row mask the key already carries, and no condition is
        tested again.  The values are written either way — ``val(x)``
        reads them."""
        nodes = self.nodes
        if len(values) != len(nodes):
            raise ValueError(f"need {len(nodes)} values, got {len(values)}")
        for node, value in zip(nodes, values):
            node.value = value
            node._hash = None  # structure_key includes the value
        masks = None if key is None else self._masks(key)
        forest = self._forest(self.cq._subs[id(self.cq.query)], {}, masks)
        if not forest:
            return None
        return DataTree(_single_root(forest))

    def step_key(self, first: int, codes: Sequence[int]) -> Any:
        """The verdict key of ``codes``, the next vector of a
        :func:`~repro.trees.values.walk_value_codes` walk that differs from
        the vector this context saw last from position ``first`` on
        (``first == 0`` starts afresh).  Equal to ``verdict_key(codes)``,
        but the top table's surviving rows are kept per prefix, so a step
        redoes only the positions from ``first`` on, and each of those
        reads a per-slot memo instead of testing its checks.

        Callers feed every vector of one walk, in order; the search calls
        this only after an instance's polls, so an instance that is never
        processed computes nothing."""
        alive = self._alive
        mask = alive[first]
        steps = self._steps
        for p in range(first, len(steps)):
            step = steps[p]
            if step is not None:
                # A check decided at slot p compares p with an earlier slot
                # in ``rel`` (or itself, or a constant): its outcome is a
                # function of which constant codes[p] is, if any, and which
                # slots of ``rel`` share its code.
                rel, checks, memo = step
                c = codes[p]
                k = -c if c < 0 else 0
                for q in rel:
                    k += k + (codes[q] == c)
                keep = memo.get(k)
                if keep is None:
                    keep = memo[k] = _keep(alive[0], checks, codes)
                mask &= keep
            alive[p + 1] = mask
        top = self._top
        if not top.sub.nested:
            return mask
        out: list[int] = []
        self._nested_key(top, mask, codes, out)
        return tuple(out)

    def verdict_key(self, codes: Sequence[int]) -> Any:
        """Which structural rows survive the conditions under the value
        codes ``codes`` (one per ``value_positions`` slot), for the outer
        query and, recursively, for every ``(nested query, restriction)``
        the construction visits.

        Two assignments with equal keys give outputs of identical labeled
        shape: instantiation groups rows by node identity and reads only
        labels (values only through ``val(x)``), so the surviving rows fix
        every output node's label and children.  A validator that reads
        only labels therefore reaches the same verdict on both.

        This recomputes every check from scratch; the search uses the
        incremental :meth:`step_key`, and the tests hold the two equal.
        """
        top = self._top
        mask = self._survivors(top, codes)
        if not top.sub.nested:
            return mask
        out: list[int] = []
        self._nested_key(top, mask, codes, out)
        return tuple(out)

    @staticmethod
    def _survivors(table: _KeyTable, codes: Sequence[int]) -> int:
        mask = 0
        bit = 1
        for checks in table.checks:
            for left, right, eq in checks:
                if (codes[left] == (codes[right] if right >= 0 else right)) is not eq:
                    break
            else:
                mask |= bit
            bit <<= 1
        return mask

    @staticmethod
    def _prefix_steps(table: _KeyTable, n_slots: int) -> list:
        """Per value slot ``p``: ``None`` when no check of ``table`` is
        decided at ``p``, else ``(rel, checks, memo)`` — the earlier slots
        those checks compare ``p`` with, the checks as ``(row bit, left,
        right, is_eq)``, and an empty memo of rows kept per outcome.  A
        check is decided at its later slot (a constant's code is
        negative, so ``max`` picks the slot)."""
        grouped: list[Optional[tuple[set[int], list]]] = [None] * n_slots
        for i, row_checks in enumerate(table.checks):
            for left, right, eq in row_checks:
                p = max(left, right)
                if grouped[p] is None:
                    grouped[p] = (set(), [])
                rel, checks = grouped[p]
                if right >= 0 and left != right:
                    rel.add(left + right - p)
                checks.append((1 << i, left, right, eq))
        return [
            None if g is None else (tuple(sorted(g[0])), tuple(g[1]), {})
            for g in grouped
        ]

    def _masks(self, key: Any) -> dict[tuple, int]:
        """The surviving-row mask of every table a verdict key visits,
        by structural-cache key."""
        top = self._top
        if not top.sub.nested:
            return {top.skey: key}
        masks = {top.skey: key[0]}
        self._unpack(top, key, 1, masks)
        return masks

    def _unpack(self, table: _KeyTable, key: tuple, at: int, masks: dict) -> int:
        # Inverse of _nested_key: the visits memo it filled names the
        # tables that follow each mask.
        for child in table.visits[key[at - 1]]:
            masks[child.skey] = key[at]
            at = self._unpack(child, key, at + 1, masks)
        return at

    def _nested_key(
        self, table: _KeyTable, mask: int, codes: Sequence[int], out: list[int]
    ) -> None:
        # Flat pre-order encoding: a table's mask decides which nested
        # tables follow it, so equal sequences mean equal visits.
        out.append(mask)
        visits = table.visits.get(mask)
        if visits is None:
            visits = self._visits(table, mask)
            table.visits[mask] = visits
        for child in visits:
            self._nested_key(child, self._survivors(child, codes), codes, out)

    def _visits(self, table: _KeyTable, mask: int) -> tuple[_KeyTable, ...]:
        """The nested tables that the surviving rows ``mask`` visit, in
        construct order, each distinct restriction once."""
        nodes = self.nodes
        out: list[_KeyTable] = []
        for j, nested in enumerate(table.sub.nested):
            sub = self.cq._subs[id(nested.query)]
            seen = sorted(
                {r[j] for i, r in enumerate(table.restrictions) if mask >> i & 1}
            )
            for restriction in seen:
                gamma = {a: nodes[p] for a, p in zip(nested.args, restriction)}
                out.append(self._key_table(sub, gamma))
        return tuple(out)

    def _key_table(self, sub: _CompiledSub, gamma: Binding) -> _KeyTable:
        slots = self._slots
        const_codes = self._const_codes
        order = self.order
        skey = self._skey(sub, gamma)
        rows = self._structural_bindings(sub, gamma, skey)
        checks = []
        for row in rows:
            row_checks = []
            for cond in sub.conditions:
                # Every condition variable's node has a slot: the value
                # positions cover every tag value_relevant_tags allows.
                left = slots[id(row[cond.left])]
                if isinstance(cond.right, Const):
                    right = const_codes[cond.right.value]
                else:
                    right = slots[id(row[cond.right])]
                row_checks.append((left, right, cond.op == "="))
            checks.append(tuple(row_checks))
        restrictions = [
            tuple(tuple(order[id(row[a])] for a in n.args) for n in sub.nested)
            for row in rows
        ]
        return _KeyTable(sub, skey, checks, restrictions)

    # -- cached structure -----------------------------------------------------

    def _path_targets(self, edge: _CompiledEdge, source: Node) -> list[Node]:
        # ``id(edge)`` is stable: the compiled query pins every edge alive.
        key = (id(edge), id(source))
        hit = self._targets.get(key)
        if hit is not None:
            if self.stats is not None:
                self.stats.cache_hits += 1
            return hit
        if self.stats is not None:
            self.stats.cache_misses += 1
        out: list[Node] = []
        if edge.accepts_epsilon:
            out.append(source)
        transitions = edge.transitions
        coreach = edge.coreach
        accepting = edge.accepting
        stack = [(child, edge.start) for child in reversed(source.children)]
        while stack:
            node, state = stack.pop()
            nxt = transitions.get((state, node.label))
            if nxt is None or nxt not in coreach:
                continue
            if nxt in accepting:
                out.append(node)
            stack.extend((c, nxt) for c in reversed(node.children))
        self._targets[key] = out
        return out

    def _skey(self, sub: _CompiledSub, gamma: Binding) -> tuple:
        order = self.order
        return (id(sub.query), tuple(order[id(gamma[v])] for v in sub.free_order))

    def _structural_bindings(
        self, sub: _CompiledSub, gamma: Binding, key: tuple
    ) -> list[Binding]:
        hit = self._structural.get(key)
        if hit is not None:
            if self.stats is not None:
                self.stats.cache_hits += 1
            return hit
        if self.stats is not None:
            self.stats.cache_misses += 1
        result = self._compute_bindings(sub, gamma)
        self._structural[key] = result
        return result

    def _compute_bindings(self, sub: _CompiledSub, gamma: Binding) -> list[Binding]:
        """Mirror of :func:`repro.ql.eval.bindings` minus condition
        filtering (the only value-dependent step)."""
        root = self.root
        if root.label != sub.root_tag:
            return []
        partial: list[Binding] = [dict(gamma)]
        for edge in sub.edges:
            extended: list[Binding] = []
            for b in partial:
                source = root if edge.source is None else b[edge.source]
                targets = self._path_targets(edge, source)
                if edge.target in b:
                    if any(t is b[edge.target] for t in targets):
                        extended.append(b)
                    continue
                for t in targets:
                    nb = dict(b)
                    nb[edge.target] = t
                    extended.append(nb)
            partial = extended
            if not partial:
                return []
        order = self.order
        var_order = sub.var_order
        partial.sort(key=lambda b: tuple(order[id(b[v])] for v in var_order))
        seen: set[tuple[int, ...]] = set()
        unique: list[Binding] = []
        for b in partial:
            key = tuple(order[id(b[v])] for v in var_order)
            if key not in seen:
                seen.add(key)
                unique.append(b)
        return unique

    # -- value-dependent evaluation ------------------------------------------

    def _forest(
        self, sub: _CompiledSub, gamma: Binding, masks: Optional[dict[tuple, int]]
    ) -> list[Node]:
        skey = self._skey(sub, gamma)
        bnds = self._structural_bindings(sub, gamma, skey)
        if sub.conditions and bnds:
            if masks is not None:
                mask = masks[skey]
                bnds = [b for i, b in enumerate(bnds) if mask >> i & 1]
            else:
                bnds = [
                    b
                    for b in bnds
                    if all(_condition_holds(c, b) for c in sub.conditions)
                ]
        if not bnds:
            return []
        return self._instantiate(sub.query.construct, bnds, masks)

    def _instantiate(
        self, cnode: ConstructNode, bnds: list[Binding], masks: Optional[dict]
    ) -> list[Node]:
        order = self.order
        groups: dict[tuple[int, ...], list[Binding]] = {}
        for b in bnds:
            groups.setdefault(tuple(order[id(b[a])] for a in cnode.args), []).append(b)
        out: list[Node] = []
        for key in sorted(groups):
            group = groups[key]
            rep = group[0]
            label = rep[cnode.label].label if cnode.is_tag_variable else cnode.label
            value = rep[cnode.value_of].value if cnode.value_of is not None else None
            children: list[Node] = []
            for child in cnode.children:
                if isinstance(child, ConstructNode):
                    children.extend(self._instantiate(child, group, masks))
                else:
                    children.extend(self._nested_roots(child, group, masks))
            out.append(Node(label, children, value))
        return out

    def _nested_roots(
        self, nested: NestedQuery, bnds: list[Binding], masks: Optional[dict]
    ) -> list[Node]:
        order = self.order
        sub = self.cq._subs[id(nested.query)]
        out: list[Node] = []
        seen: set[tuple[int, ...]] = set()
        keyed = sorted(
            ((tuple(order[id(b[a])] for a in nested.args), b) for b in bnds),
            key=lambda kv: kv[0],
        )
        for key, b in keyed:
            if key in seen:
                continue
            seen.add(key)
            out.extend(self._forest(sub, {a: b[a] for a in nested.args}, masks))
        return out


def _keep(full: int, checks: tuple, codes: Sequence[int]) -> int:
    """``full`` minus the rows whose check in ``checks`` (``(row bit,
    left, right, is_eq)``) fails under ``codes``."""
    keep = full
    for bit, left, right, eq in checks:
        if (codes[left] == (codes[right] if right >= 0 else right)) is not eq:
            keep &= ~bit
    return keep


# -- process-level memo -------------------------------------------------------

# Bounded LRU keyed by (query, alphabet): Query and its AST are frozen and
# hashable, so structurally identical queries share one compilation — in
# particular a pool worker compiles once per process, not per range, and
# the star-free pipeline's deterministic relabeling hits across calls.
#
# The memo is shared by every thread in the process — the service
# scheduler evaluates job slices on a thread-pool executor — so the LRU
# bookkeeping (move_to_end/popitem re-link the OrderedDict) runs under a
# lock.  Compilation itself runs outside the lock: it is pure and
# idempotent, so two threads racing on a miss at worst compile twice and
# the first insert wins.
_MEMO_MAX = 16
_memo: "OrderedDict[tuple[Query, frozenset[str]], CompiledQuery]" = OrderedDict()
_memo_lock = threading.Lock()


def compiled_query_for(query: Query, alphabet: Iterable[str]) -> CompiledQuery:
    """The process-level compilation cache (bounded LRU, thread-safe)."""
    key = (query, frozenset(alphabet))
    with _memo_lock:
        hit = _memo.get(key)
        if hit is not None:
            _memo.move_to_end(key)
            return hit
    compiled = CompiledQuery(query, key[1])
    with _memo_lock:
        hit = _memo.get(key)
        if hit is not None:
            # Lost the compile race: keep the entry already published so
            # every caller shares one object (and its eval caches).
            _memo.move_to_end(key)
            return hit
        _memo[key] = compiled
        if len(_memo) > _MEMO_MAX:
            _memo.popitem(last=False)
    return compiled
