"""Data-value assignment enumeration.

DTDs constrain only tags, but QL queries compare *data values*, so the
typechecker's counterexample search must consider how values are placed on
a candidate label tree.  Up to the =/!= tests a query can perform, only
the *partition* of nodes into equal-value classes matters, plus which
classes equal which query constants.  This module enumerates exactly
those: canonical (restricted-growth) labelings of the nodes with either a
query constant or an anonymous class id — every semantically distinct
assignment appears exactly once.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Optional, Sequence, Union

from repro.trees.data_tree import DataTree, Node


class AnonValue:
    """One anonymous equal-value class.

    Anonymous classes used to be the literal strings ``"_v0", "_v1", ...``,
    which collide with a query constant literally named ``"_v0"``: two
    semantically distinct assignments (node equals the constant vs. node in
    a fresh class) collapse into one, and every ``=``/``!=`` test against
    that constant is answered wrongly.  A dedicated type is collision-proof
    against *any* constant: ``AnonValue(i) != x`` for every non-AnonValue
    ``x``, whatever the query compares against.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AnonValue) and other.index == self.index

    def __hash__(self) -> int:
        return hash(("AnonValue", self.index))

    def __repr__(self) -> str:
        return f"AnonValue({self.index})"

    def __str__(self) -> str:
        # Rendered in term syntax / counterexample reports.
        return f"~{self.index}"

    # __slots__ without __dict__: spell out the pickle protocol so values
    # survive the trip to supervisor worker processes.
    def __getstate__(self) -> int:
        return self.index

    def __setstate__(self, state: int) -> None:
        self.index = state


def assign_values(tree: DataTree, values: Sequence[Any]) -> DataTree:
    """A copy of ``tree`` whose nodes (in document order) carry ``values``."""
    nodes = tree.nodes()
    if len(values) != len(nodes):
        raise ValueError(f"need {len(nodes)} values, got {len(values)}")
    copy = tree.copy()
    for node, value in zip(copy.nodes(), values):
        node.value = value
    return copy


def enumerate_value_codes(
    n_nodes: int,
    n_constants: int = 0,
    max_classes: Optional[int] = None,
    start: int = 0,
) -> Iterator[tuple[int, ...]]:
    """The assignment space of :func:`enumerate_value_assignments` as
    small-int codes: anonymous class ``b`` is ``b`` and constant number
    ``k`` is ``-1 - k``.  Two nodes carry equal values exactly when they
    carry equal codes, so the search can compare codes and decode only
    the few vectors it has to materialize (:func:`value_decoder`).

    Order per position: every constant, then each anonymous class already
    open, then one fresh class (up to ``max_classes``) — a restricted-growth
    string, so permuting anonymous values never yields a duplicate.

    ``start`` skips that many vectors without walking them (a resumed
    search continues mid-tree in time independent of the cursor).

    These are the vectors of :func:`walk_value_codes` without the
    changed-position marks.
    """
    for _, codes in walk_value_codes(n_nodes, n_constants, max_classes, start):
        yield codes


def walk_value_codes(
    n_nodes: int,
    n_constants: int = 0,
    max_classes: Optional[int] = None,
    start: int = 0,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The vectors of :func:`enumerate_value_codes`, in the same order,
    each paired with the first position where it differs from the vector
    before it (``0`` for the first vector yielded, ``start > 0``
    included).  A consumer that keeps per-prefix state — the search's
    verdict key, :meth:`repro.ql.compile.BoundTree.step_key` — redoes only
    the positions from that mark on.

    The walk is an odometer over the per-position order rather than a
    recursion, so one vector costs one tuple, not a generator frame per
    node; most steps change only the last position.
    """
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    cap = n_nodes if max_classes is None else min(max_classes, n_nodes)
    rows = _completions(n_nodes, n_constants, cap)
    if start >= rows[n_nodes][0]:
        return
    if n_nodes == 0:
        yield 0, ()
        return
    first = -1 if n_constants else 0
    last_const = -n_constants
    # Unrank ``start``: at each position, skip whole blocks of completions.
    digits: list[int] = []
    # opened[i] = anonymous classes opened by digits[:i].
    opened = [0] * (n_nodes + 1)
    for i in range(n_nodes):
        rest = rows[n_nodes - i - 1]
        for code in [*range(-1, last_const - 1, -1), *range(min(opened[i] + 1, cap))]:
            after = max(opened[i], code + 1)
            if start < rest[after]:
                break
            start -= rest[after]
        digits.append(code)
        opened[i + 1] = after
    last = n_nodes - 1
    i = 0
    while True:
        yield i, tuple(digits)
        # Advance the rightmost position that has a next digit.
        i = last
        while i >= 0:
            d = digits[i]
            if d < 0:
                if d > last_const:
                    nxt = d - 1
                    break
                nxt = 0
            else:
                nxt = d + 1
            if nxt <= opened[i] and nxt < cap:
                break
            i -= 1
        if i < 0:
            return
        digits[i] = nxt
        if i < last:
            # The positions after i restart at ``first``, which opens no
            # class past those digits[:i + 1] opened (``first`` is 0 only
            # without constants, and then nxt >= 0 has opened one).
            digits[i + 1 :] = [first] * (last - i)
            opened[i + 1 :] = [max(opened[i], nxt + 1)] * (last - i + 1)


def value_decoder(
    n_nodes: int,
    constants: Sequence[Any] = (),
    max_classes: Optional[int] = None,
) -> list[Any]:
    """The code -> value map of :func:`enumerate_value_codes` for the same
    arguments: a list indexed by code (a negative code reaches the
    constants from the end)."""
    consts = list(dict.fromkeys(constants))
    cap = n_nodes if max_classes is None else min(max_classes, n_nodes)
    return [AnonValue(b) for b in range(cap)] + consts[::-1]


def enumerate_value_assignments(
    n_nodes: int,
    constants: Sequence[Any] = (),
    max_classes: Optional[int] = None,
) -> Iterator[tuple[Any, ...]]:
    """All semantically distinct value vectors for ``n_nodes`` nodes.

    Each node gets either one of ``constants`` (values the query mentions
    literally) or an anonymous class :class:`AnonValue`; anonymous class
    ids form a restricted-growth string so that permuting anonymous values
    never yields a duplicate.  ``max_classes`` caps the number of distinct
    anonymous values (``None`` = up to ``n_nodes``); capping trades
    completeness for speed and is reported by the typechecker as a budget.

    This is :func:`enumerate_value_codes` decoded, vector for vector.
    """
    n_constants = len(dict.fromkeys(constants))
    table = value_decoder(n_nodes, constants, max_classes)
    for codes in enumerate_value_codes(n_nodes, n_constants, max_classes):
        yield tuple([table[c] for c in codes])


def enumerate_valued_trees(
    tree: DataTree,
    constants: Sequence[Any] = (),
    max_classes: Optional[int] = None,
    limit: Optional[int] = None,
) -> Iterator[DataTree]:
    """All semantically distinct valued versions of a label tree."""
    n = tree.size()
    it = enumerate_value_assignments(n, constants, max_classes)
    if limit is not None:
        it = itertools.islice(it, limit)
    for values in it:
        yield assign_values(tree, values)


def count_value_assignments(
    n_nodes: int,
    constants: Union[Sequence[Any], int] = (),
    max_classes: Optional[int] = None,
) -> int:
    """Size of the assignment space — exactly
    ``len(list(enumerate_value_assignments(n, constants, cap)))`` but
    computed by dynamic programming, so the shard planner can price a
    label tree without materializing a single assignment.

    ``constants`` is the same constant *sequence* the enumerator takes and
    is deduplicated the same way (``dict.fromkeys``), so duplicate query
    constants can never make the DP price disagree with what a worker
    actually enumerates.  A bare ``int`` is accepted as an already-deduped
    count for callers that never saw the values themselves.

    State ``(i, u)`` mirrors the enumerator's recursion: ``i`` nodes
    placed, ``u`` anonymous classes opened so far.
    """
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be >= 0, got {n_nodes}")
    if isinstance(constants, int):
        n_constants = constants
    else:
        n_constants = len(dict.fromkeys(constants))
    cap = n_nodes if max_classes is None else min(max_classes, n_nodes)
    return _completions(n_nodes, n_constants, cap)[n_nodes][0]


def _completions(n_nodes: int, n_constants: int, cap: int) -> list[list[int]]:
    """``rows[r][u]``: the number of ways to fill ``r`` more positions
    with ``u`` anonymous classes already open."""
    rows = [[1] * (cap + 1)]
    for _ in range(n_nodes):
        row = rows[-1]
        rows.append(
            [
                n_constants * row[u] + sum(row[max(u, b + 1)] for b in range(min(u + 1, cap)))
                for u in range(cap + 1)
            ]
        )
    return rows


def fresh_values(tree: DataTree) -> DataTree:
    """All-distinct values — the coarsest assignment that satisfies every
    ``!=`` and no ``=`` between distinct nodes."""
    return assign_values(tree, [f"_v{i}" for i in range(tree.size())])
