"""Fragment analysis: the query classes the decidability map is stated in.

The paper's boundary (Sections 3 and 5) is parameterized by:

* **non-recursive** — every path expression defines a finite language
  (Theorems 3.1/3.2/3.5 require it; Theorem 5.3 shows recursion kills
  decidability);
* **tag variables** — construct labels copied from the input (allowed in
  Theorem 3.1, forbidden from Theorem 3.2 on);
* **conjunctive / disjunctive** — path expressions that are single symbols
  / unions of single symbols (the undecidability results of Section 5 hold
  already for these);
* **projection-free** (Definition 3.3) — every construct node may be
  expanded to carry *all* variables in scope without changing the query's
  meaning on instances of the input DTD (required by Theorem 3.5).

Projection-freeness w.r.t. a DTD is a semantic property; following the
paper (which leaves only sufficient syntactic conditions), we provide the
exact expansion :func:`expand_projections` plus an *empirical* check that
compares the query against its expansion on an exhaustively enumerated
prefix of ``inst(tau)`` — a sound refuter and a bounded confirmer.
"""

from __future__ import annotations

from typing import Optional

from repro.automata.regex import Regex
from repro.dtd.core import DTD
from repro.dtd.generate import enumerate_instances
from repro.ql.ast import ConstructNode, NestedQuery, Query
from repro.ql.eval import evaluate_forest
from repro.trees.values import enumerate_valued_trees


def _finite_language(regex: Regex) -> bool:
    sigma = regex.symbols() or frozenset({"_any"})
    return regex.to_dfa(sigma).is_finite_language()


def _language_words(regex: Regex) -> Optional[list[tuple[str, ...]]]:
    """All words of a finite-language regex, or ``None`` if infinite."""
    sigma = regex.symbols() or frozenset({"_any"})
    dfa = regex.to_dfa(sigma)
    if not dfa.is_finite_language():
        return None
    return list(dfa.iter_words())


def is_non_recursive(query: Query) -> bool:
    """Every path expression (in every nested query) is a finite language."""
    return all(_finite_language(r) for r in query.all_path_regexes())


def is_conjunctive(query: Query) -> bool:
    """Every path expression denotes exactly one single-symbol word."""
    for r in query.all_path_regexes():
        words = _language_words(r)
        if words is None or len(words) != 1 or len(words[0]) != 1:
            return False
    return True


def is_disjunctive(query: Query) -> bool:
    """Every path expression is a (non-empty) union of single symbols
    (the paper's "a or a + b" shape)."""
    for r in query.all_path_regexes():
        words = _language_words(r)
        if words is None or not words or any(len(w) != 1 for w in words):
            return False
    return True


def has_tag_variables(query: Query) -> bool:
    """Whether any construct node's label is one of its variables."""
    return any(
        node.is_tag_variable for q in query.subqueries() for node in q.construct.walk()
    )


def has_nested_queries(query: Query) -> bool:
    return any(q is not query for q in query.subqueries())


def has_data_conditions(query: Query) -> bool:
    return any(q.where.conditions for q in query.subqueries())


def has_inequalities(query: Query) -> bool:
    return any(
        c.op == "!=" for q in query.subqueries() for c in q.where.conditions
    )


def query_size(query: Query) -> int:
    """|q|: pattern variables + edges + conditions + construct nodes,
    summed over all nested queries — the size measure in the paper's
    counterexample bounds."""
    total = 0
    for q in query.subqueries():
        total += 1 + len(q.where.variables())
        total += len(q.where.edges)
        total += len(q.where.conditions)
        total += sum(1 for _ in q.construct.walk())
    return total


def max_path_depth(query: Query) -> int:
    """The deepest input level any binding can reach: for each query, the
    maximum over pattern root-to-leaf paths of the summed longest words of
    the edge regexes; then the max over nested queries.  Only defined for
    non-recursive queries (raises otherwise).

    This is the "q looks at paths of a bounded length" of Theorem 3.5's
    proof: nodes beyond this depth are invisible to the query.
    """
    return _depth_of(query, {None: 0})


def _depth_of(query: Query, outer_depths: dict[Optional[str], int]) -> int:
    """Recursive worker for :func:`max_path_depth`: nested patterns may
    anchor at free variables, whose depth comes from the enclosing query."""
    depth_to: dict[Optional[str], int] = dict(outer_depths)
    longest_of: dict[str, int] = {}
    for e in query.where.edges:
        words = _language_words(e.regex)
        if words is None:
            raise ValueError("max_path_depth is only defined for non-recursive queries")
        longest_of[e.target] = max((len(w) for w in words), default=0)
    # Edges may be listed in any order; iterate to the (acyclic) fixpoint.
    for _ in range(len(query.where.edges) + 1):
        changed = False
        for e in query.where.edges:
            depth = depth_to.get(e.source, 0) + longest_of[e.target]
            if depth > depth_to.get(e.target, -1):
                depth_to[e.target] = depth
                changed = True
        if not changed:
            break
    best = max(depth_to.values())
    for node in query.construct.walk():
        for child in node.children:
            if isinstance(child, NestedQuery):
                best = max(best, _depth_of(child.query, depth_to))
    return best


def constants_used(query: Query) -> frozenset:
    """Every data-value constant compared against, across nested queries."""
    out = set()
    for q in query.subqueries():
        out |= q.where.condition_constants()
    return frozenset(out)


def condition_variables(query: Query) -> frozenset[str]:
    """Variables whose bound node's *data value* a condition can read."""
    out: set[str] = set()
    for q in query.subqueries():
        for c in q.where.conditions:
            out.add(c.left)
            if isinstance(c.right, str):
                out.add(c.right)
    return frozenset(out)


def value_relevant_tags(query: Query) -> Optional[frozenset[str]]:
    """Tags of nodes whose data values the query can ever *test*.

    Conditions compare ``val(beta(x))`` only for variables ``x`` appearing
    in conditions; ``beta(x)`` carries the last symbol of the matched edge
    word.  Values on all other nodes never influence the output, so the
    search may pin them to fresh constants.  Returns ``None`` when the
    analysis cannot bound the tags (epsilon in a condition variable's path
    language, or an unanalyzable edge) — meaning "treat every tag as
    relevant".

    Each DFA's alphabet is the regex's own symbols plus one fresh symbol
    standing for every other label: a path such as ``~(a + eps)`` also
    matches ``b`` nodes, which shows up as an accepting transition on
    the fresh symbol, and then every tag is relevant (``None``).
    """
    condition_vars = condition_variables(query)
    relevant: set[str] = set()
    for q in query.subqueries():
        for edge in q.where.edges:
            if edge.target not in condition_vars:
                continue
            symbols = edge.regex.symbols()
            other = "#other"
            while other in symbols:
                other += "#"
            dfa = edge.regex.to_dfa(symbols | {other})
            if dfa.accepts_epsilon():
                return None  # the variable may alias its source node
            live = dfa.live_states()
            for (s, a), t in dfa.transitions.items():
                if s in live and t in dfa.accepting:
                    if a == other:
                        return None  # the path may end on any label
                    relevant.add(a)
    return frozenset(relevant)


# -- projection-freeness -----------------------------------------------------------


def _scope_vars(query: Query, outer: tuple[str, ...]) -> tuple[str, ...]:
    """``var*(q)``: outer scope plus this query's pattern variables, in a
    stable order without duplicates."""
    seen = dict.fromkeys(outer)
    for v in query.where.variables():
        seen.setdefault(v)
    return tuple(seen)


def expand_projections(query: Query, outer: tuple[str, ...] = ()) -> Query:
    """The Definition 3.3 expansion: every construct node ``f(xs)`` becomes
    ``f(var(W) + Z)`` (all variables in scope), recursively in nested
    queries.  Nested-query free variables are widened to the full scope so
    the result stays well formed; the outermost root keeps its mandatory
    ``f()`` shape.  Tag-variable labels remain tag variables (the widened
    argument list still contains them).
    """
    outer = tuple(outer) or tuple(query.free_vars)
    scope = _scope_vars(query, outer)
    keep_root_args = not outer  # the outermost root must stay f()

    def widen(node: ConstructNode, is_root: bool) -> ConstructNode:
        children: list[ConstructNode | NestedQuery] = []
        for child in node.children:
            if isinstance(child, ConstructNode):
                children.append(widen(child, False))
            else:
                children.append(NestedQuery(expand_projections(child.query, scope), scope))
        args = node.args if (is_root and keep_root_args) else scope
        return ConstructNode(node.label, args, tuple(children), node.value_of)

    return Query(where=query.where, construct=widen(query.construct, True), free_vars=outer)


def is_projection_free(
    query: Query,
    dtd: DTD,
    max_size: int = 6,
    max_value_classes: int = 2,
    max_instances: int = 200,
) -> bool:
    """Empirical projection-freeness test (Definition 3.3) against an
    input DTD: compare the query with its full expansion on every
    enumerated instance (labels up to ``max_size`` nodes, all canonical
    value assignments up to ``max_value_classes`` anonymous classes).

    A ``False`` is a *proof* (a concrete separating instance exists);
    a ``True`` certifies equivalence on the explored prefix only.
    """
    expanded = expand_projections(query)
    constants = sorted(constants_used(query), key=repr)
    checked = 0
    for labels in enumerate_instances(dtd, max_size):
        for t in enumerate_valued_trees(labels, constants, max_value_classes):
            a = evaluate_forest(query, t, {})
            b = evaluate_forest(expanded, t, {})
            if [n.structure_key() for n in a] != [n.structure_key() for n in b]:
                return False
            checked += 1
            if checked >= max_instances:
                return True
    return True
