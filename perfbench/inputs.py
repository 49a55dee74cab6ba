"""Seeded inputs for the three workloads.

The program under test sees only what these functions build.  The seed
never changes how much work an input costs on the first two workloads
(it picks a query constant, or element names whose sort order matches
the originals), so their verdicts and search totals are fixed; on
service-mixed it picks which jobs run, in which order, which ones
repeat and which ones fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# -- values-bound: the Thm 3.5 query of benchmarks/bench_eval_cache.py ---------

VALUES_MAX_SIZE = 7
VALUES_INPUT_DTD = "root -> (a + b)*"
VALUES_OUTPUT_DTD = "out -> (item.item)*.item?"


def values_query(seed: int) -> dict:
    """Two pattern variables, ``X = const`` and ``X != Y``: every label
    tree is revisited under many value assignments."""
    const = random.Random(f"values-bound/{seed}").randint(1, 999)
    return {
        "where": {
            "root": "root",
            "edges": [
                {"from": None, "to": "X", "path": "a"},
                {"from": None, "to": "Y", "path": "a + b"},
            ],
            "conditions": [
                {"left": "X", "op": "=", "right": {"const": const}},
                {"left": "X", "op": "!=", "right": {"var": "Y"}},
            ],
        },
        "construct": {"tag": "out", "children": [{"tag": "item", "args": ["X", "Y"]}]},
    }


# -- structure-sharded: no data conditions, routed to Thm 3.2 ------------------

STRUCTURE_MAX_SIZE = 10
STRUCTURE_SETUP_MAX_SIZE = 1
STRUCTURE_WORKERS = 2


def structure_problem(seed: int) -> tuple[dict, str, str]:
    """``root(a.c + b -> X) -> out(item(X))`` over ``root -> (a + b)*;
    a -> c*`` into ``out -> item*``; the seed suffixes every input
    element name alike, so the enumeration order is unchanged."""
    n = random.Random(f"structure-sharded/{seed}").randint(0, 999)
    a, b, c = f"a{n}", f"b{n}", f"c{n}"
    query = {
        "where": {
            "root": "root",
            "edges": [{"from": None, "to": "X", "path": f"{a}.{c} + {b}"}],
        },
        "construct": {"tag": "out", "children": [{"tag": "item", "args": ["X"]}]},
    }
    return query, f"root -> ({a} + {b})*; {a} -> {c}*", "out -> item*"


# -- service-mixed: a seeded stream of small, hot and medium submissions -------

SERVICE_INPUTS = ("root -> a*", "root -> (a + b)*")
COLD_SIZES = (4, 5, 6)
COLD_LIMITS = (2, 3, 4, 9)  # output "fewer than k items"; small k fails
# About 5k instances each: several 0.1 s slices and checkpoint autosaves.
MEDIUM_SPECS = (("root -> (a + b)*", 7, 9), ("root -> a*", 8, 9))
CONSTS = (1, 2, 3, 4)

# The mix is chosen, not observed (the repository records no real
# traffic): 24 cold jobs give a run enough samples for a p90, 12 repeats
# keep cache reads beside journal writes, 2 medium jobs span several
# slices.  A run reports the shares it submitted in its details line.
ROUND_COLD = 24
ROUND_HOT = 12
ROUND_MEDIUM = 2


@dataclass(frozen=True)
class JobSpec:
    input_dtd: str
    max_size: int
    limit: int
    const: int

    @property
    def key(self) -> str:
        """Known-answer key: the constant cannot change the answer."""
        return f"{self.input_dtd}|{self.max_size}|{self.limit}"

    def submission(self) -> dict:
        return {
            "query": {
                "where": {
                    "root": "root",
                    "edges": [{"from": None, "to": "X", "path": "a"}],
                    "conditions": [{"left": "X", "op": "=", "right": {"const": self.const}}],
                },
                "construct": {"tag": "out", "children": [{"tag": "item", "args": ["X"]}]},
            },
            "input_dtd": self.input_dtd,
            "output_dtd": f"out -> !item^>={self.limit}",
            "output_unordered": True,
            "max_size": self.max_size,
        }


@dataclass(frozen=True)
class Op:
    kind: str  # "cold" | "medium" | "hot"
    spec: JobSpec
    ref: int = -1  # hot: index of the op whose decided fingerprint it repeats


def cold_specs() -> list[JobSpec]:
    return [
        JobSpec(inp, size, limit, const)
        for inp in SERVICE_INPUTS
        for size in COLD_SIZES
        for limit in COLD_LIMITS
        for const in CONSTS
    ]


def medium_specs() -> list[JobSpec]:
    return [JobSpec(inp, size, limit, const) for inp, size, limit in MEDIUM_SPECS for const in CONSTS]


def service_round(seed: int, round_index: int) -> list[Op]:
    """One batch: distinct cold and medium fingerprints in a seeded
    order, with hot repeats of earlier cold jobs mixed in."""
    rng = random.Random(f"service-mixed/{seed}/{round_index}")
    cold = rng.sample(cold_specs(), ROUND_COLD)
    medium = rng.sample(medium_specs(), ROUND_MEDIUM)
    fresh = [Op("cold", s) for s in cold] + [Op("medium", s) for s in medium]
    rng.shuffle(fresh)
    ops: list[Op] = []
    hot_left = ROUND_HOT
    for op in fresh:
        ops.append(op)
        earlier = [i for i, o in enumerate(ops) if o.kind == "cold"]
        # Never repeat the job just submitted: give it time to finish.
        if hot_left and len(earlier) > 1 and rng.random() < 0.6:
            ref = rng.choice(earlier[:-1])
            ops.append(Op("hot", ops[ref].spec, ref))
            hot_left -= 1
    while hot_left:
        ref = rng.choice([i for i, o in enumerate(ops) if o.kind == "cold"])
        ops.append(Op("hot", ops[ref].spec, ref))
        hot_left -= 1
    return ops
