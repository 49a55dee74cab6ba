"""Theorem 3.2: star-free output DTDs via the (dagger) compilation to SL.

The key lemmas of the paper:

(dagger)  For a star-free ``r`` and distinct ``a1..ak`` there is an SL
          sentence ``phi`` with
          ``L(r) ∩ a1*..ak* = L(phi) ∩ a1*..ak*``.

(double-dagger)  The variant for *repeated* tags: with fresh distinct
          ``b1..bk`` and the homomorphism ``h(bi) = ai``,
          ``L(r) ∩ a1*..ak* = h(L(phi) ∩ b1*..bk*)`` for an SL ``phi``
          over the ``b``'s.

Implementation: on words of the profile ``a1^n1 .. ak^nk`` only the
*counts* matter, and in an aperiodic (star-free) language each letter's
transformation on the minimal DFA stabilizes: there is ``N_j`` with
``delta(s, a^n) = delta(s, a^N_j)`` for all ``n >= N_j``.  So acceptance
of a profile word is determined by the truncated vector
``(min(n1, N_1), ..., min(nk, N_k))`` — a finite table that converts
directly into an SL formula (``a^=c`` below the threshold, ``a^>=N``
at it).  A non-trivial period (``pi > 1``) certifies the language is NOT
star-free and raises :class:`NotStarFreeError`.

Theorem 3.2's typechecker then relabels every construct node with a fresh
tag (making sibling tags distinct — the reduction to (double-dagger)),
rewrites the output DTD rule-by-rule into SL over the fresh tags, and
invokes the Theorem 3.1 procedure.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Union

from repro.automata.dfa import DFA
from repro.automata.regex import Regex, parse_regex
from repro.dtd.content import ContentModel, RegularContent, SLContent
from repro.dtd.core import DTD
from repro.dtd.content import ContentKind
from repro.logic.sl import FALSE, SLFormula, at_least, exactly, sl_and, sl_or
from repro.ql.analysis import has_tag_variables, is_non_recursive
from repro.ql.ast import ConstructNode, NestedQuery, Query
from repro.runtime.checkpoint import SearchCheckpoint
from repro.runtime.control import RuntimeControl
from repro.typecheck.bounds import thm31_bound
from repro.typecheck.result import TypecheckResult
from repro.typecheck.search import SearchBudget, run_search


class NotStarFreeError(ValueError):
    """The content language is not aperiodic, so (dagger) does not apply."""


def _coerce_dfa(source: Union[Regex, str, DFA], alphabet: frozenset[str]) -> DFA:
    if isinstance(source, DFA):
        return source
    regex = parse_regex(source) if isinstance(source, str) else source
    return regex.to_dfa(alphabet | regex.symbols()).minimize()


def _profile_to_sl(
    dfa: DFA,
    tags: Sequence[str],
    out_symbols: Sequence[str],
) -> SLFormula:
    """Shared core of (dagger)/(double-dagger): SL formula over
    ``out_symbols`` accepting (as counts) exactly the vectors ``n`` with
    ``tags[0]^n0 .. tags[k-1]^n{k-1}`` accepted by ``dfa``.

    Requires each ``tags[j]`` to act aperiodically on the DFA.
    """
    if len(tags) != len(out_symbols):
        raise ValueError("tags and out_symbols must align")
    if len(set(out_symbols)) != len(out_symbols):
        raise ValueError("(dagger) output symbols must be distinct")
    thresholds: list[int] = []
    for a in tags:
        mu, pi = dfa.letter_power_stabilization(a)
        if pi != 1:
            raise NotStarFreeError(
                f"letter {a!r} has period {pi} > 1: the content language is "
                "not star-free, use the Theorem 3.5 (regular) procedure"
            )
        thresholds.append(mu)
    # Precompute per-letter transformation powers up to the threshold.
    powers: list[list[tuple[int, ...]]] = []
    for a, n in zip(tags, thresholds):
        m = dfa.letter_transformation(a)
        acc = [tuple(range(dfa.n_states))]
        for _ in range(n):
            acc.append(tuple(m[s] for s in acc[-1]))
        powers.append(acc)

    disjuncts: list[SLFormula] = []
    for vector in itertools.product(*(range(n + 1) for n in thresholds)):
        state = dfa.start
        for j, count in enumerate(vector):
            state = powers[j][count][state]
        if state not in dfa.accepting:
            continue
        atoms = []
        for j, count in enumerate(vector):
            if count < thresholds[j]:
                atoms.append(exactly(out_symbols[j], count))
            else:
                atoms.append(at_least(out_symbols[j], count))
        disjuncts.append(sl_and(*atoms))
    if not disjuncts:
        return FALSE
    return sl_or(*disjuncts)


def star_free_to_sl(
    regex: Union[Regex, str, DFA],
    tags: Sequence[str],
    alphabet: Optional[frozenset[str]] = None,
) -> SLFormula:
    """Lemma (dagger): SL formula agreeing with ``regex`` on
    ``tags[0]* .. tags[k-1]*`` (tags must be distinct)."""
    sigma = (alphabet or frozenset()) | frozenset(tags)
    dfa = _coerce_dfa(regex, sigma)
    return _profile_to_sl(dfa, list(tags), list(tags))


def star_free_to_sl_hom(
    regex: Union[Regex, str, DFA],
    pairs: Sequence[tuple[str, str]],
    alphabet: Optional[frozenset[str]] = None,
) -> SLFormula:
    """Lemma (double-dagger): ``pairs`` is ``[(b1, a1), ..., (bk, ak)]``
    with distinct fresh ``b``'s and possibly repeated ``a``'s; returns an
    SL formula ``phi`` over the ``b``'s with
    ``L(regex) ∩ a1*..ak* = h(L(phi) ∩ b1*..bk*)`` for ``h(bi) = ai``."""
    bs = [b for b, _ in pairs]
    as_ = [a for _, a in pairs]
    sigma = (alphabet or frozenset()) | frozenset(as_)
    dfa = _coerce_dfa(regex, sigma)
    return _profile_to_sl(dfa, as_, bs)


# -- the Theorem 3.2 reduction ------------------------------------------------------


def relabel_construct(query: Query) -> tuple[Query, dict[str, str]]:
    """Replace every construct-node tag by a fresh distinct one (``_b0``,
    ``_b1``, ...), returning the relabeled query and the homomorphism
    ``fresh -> original``.  This makes sibling tags distinct, enabling
    (double-dagger)."""
    counter = itertools.count()
    mapping: dict[str, str] = {}

    def fresh_for(original: str) -> str:
        name = f"_b{next(counter)}"
        mapping[name] = original
        return name

    def rebuild_node(node: ConstructNode) -> ConstructNode:
        if node.is_tag_variable:
            raise ValueError("Theorem 3.2 requires queries without tag variables")
        children = tuple(
            rebuild_node(c) if isinstance(c, ConstructNode) else rebuild_nested(c)
            for c in node.children
        )
        return ConstructNode(fresh_for(node.label), node.args, children, node.value_of)

    def rebuild_nested(nested: NestedQuery) -> NestedQuery:
        sub = nested.query
        return NestedQuery(
            Query(where=sub.where, construct=rebuild_node(sub.construct), free_vars=sub.free_vars),
            nested.args,
        )

    return (
        Query(where=query.where, construct=rebuild_node(query.construct), free_vars=query.free_vars),
        mapping,
    )


def compile_output_dtd(
    relabeled: Query, mapping: dict[str, str], tau2: DTD
) -> DTD:
    """Build the unordered DTD ``tau2-bar`` over the fresh tags: each
    fresh construct tag gets the (double-dagger) compilation of its
    original tag's content model against its (relabeled) children."""
    rules: dict[str, SLFormula] = {}

    def model_dfa(model: ContentModel, alphabet: frozenset[str]) -> DFA:
        return model.to_dfa(alphabet)

    def visit(node: ConstructNode, query: Query) -> None:
        original = mapping[node.label]
        pairs = []
        for child in node.children:
            fresh_child = (
                child.label if isinstance(child, ConstructNode) else child.query.construct.label
            )
            pairs.append((fresh_child, mapping[fresh_child]))
        if original not in tau2.alphabet:
            # A node with a tag outside tau2's alphabet is invalid no
            # matter its children.
            rules[node.label] = FALSE
        else:
            model = tau2.content(original)
            alphabet = tau2.alphabet | frozenset(a for _, a in pairs)
            rules[node.label] = star_free_to_sl_hom(
                model_dfa(model, alphabet), pairs, alphabet
            )
        for child in node.children:
            if isinstance(child, ConstructNode):
                visit(child, query)
            else:
                visit(child.query.construct, child.query)

    visit(relabeled.construct, relabeled)
    root_fresh = relabeled.construct.label
    if mapping[root_fresh] != tau2.root:
        # The output root tag never matches the DTD root: any produced
        # output violates.  FALSE at the root captures exactly that.
        rules[root_fresh] = FALSE
    return DTD(root_fresh, rules, unordered=False, alphabet=frozenset(rules))


def typecheck_starfree(
    query: Query,
    tau1: DTD,
    tau2: DTD,
    budget: Optional[SearchBudget] = None,
    control: Optional[RuntimeControl] = None,
    resume_from: Optional[SearchCheckpoint] = None,
    workers: int = 0,
    supervisor: Optional[object] = None,
    shard: Optional[object] = None,
    use_eval_cache: bool = True,
    obs: Optional[object] = None,
) -> TypecheckResult:
    """Theorem 3.2: typecheck a non-recursive, tag-variable-free query
    against a star-free output DTD by compiling to the unordered case.

    The (double-dagger) relabeling is deterministic, so a checkpoint taken
    from an interrupted run resumes correctly: the compiled search is
    rebuilt identically and ``resume_from`` lands on the same cursor.
    """
    if not is_non_recursive(query):
        raise ValueError(
            "Theorem 3.2 requires a non-recursive query; recursion makes "
            "typechecking undecidable (Theorem 5.3)"
        )
    if has_tag_variables(query):
        raise ValueError("Theorem 3.2 requires queries without tag variables")
    if tau2.kind() is ContentKind.REGULAR:
        raise NotStarFreeError(
            "output DTD has non-star-free content; use typecheck_regular (Theorem 3.5)"
        )
    relabeled, mapping = relabel_construct(query)
    tau2_bar = compile_output_dtd(relabeled, mapping, tau2)
    bound = thm31_bound(relabeled, tau1, tau2_bar)
    # Workers are shipped the *original* tau2 (plain data) and recompile
    # tau2_bar deterministically; the compiled DTD never crosses processes.
    result = run_search(
        relabeled,
        tau1,
        tau2_bar,
        budget=budget,
        theoretical_bound=bound,
        algorithm="thm-3.2-starfree",
        control=control,
        resume_from=resume_from,
        workers=workers,
        supervisor=supervisor,
        shard=shard,
        task_tau2=tau2,
        task_query=query,
        use_eval_cache=use_eval_cache,
        obs=obs,
    )
    result.notes.append(
        f"compiled {len(mapping)} construct tags to SL via (double-dagger); "
        "counterexample outputs shown with fresh tags _bN"
    )
    return result
