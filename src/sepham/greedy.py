"""The greedy elimination algorithm as a reusable engine over any
separation relation and any enumerable universe.

A single filtered pass in the configured visit order (admit a candidate iff
it is related to every admitted member) is observationally equivalent to
choose-and-eliminate, without materializing the universe as a mutable set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial
from typing import Optional

from .core import Family, sorted_family
from .errors import CapExceeded
from .relations import RELABEL_INVARIANT, RELATIONS, OrbitLookup, require
from .universes import get_universe, universe_size

DEFAULT_UNIVERSE_CAP = factorial(10)
DEFAULT_SHUFFLE_CAP = factorial(8)


@dataclass(frozen=True)
class GreedyConfig:
    universe: str  # "permutations" | "paths" | "bipartite-paths" | "cycles"
    relation: str  # key into relations.RELATIONS
    n: int
    order: str = "lex"  # "lex" | "shuffle"
    seed: Optional[int] = None


def greedy_family(cfg: GreedyConfig) -> Family:
    """Maximal pairwise-related family built by a single greedy pass.

    Identical config yields an identical family.  The universe is capped at
    DEFAULT_UNIVERSE_CAP members; the shuffle order materializes it and
    therefore has the tighter DEFAULT_SHUFFLE_CAP.

    For a relation in RELABEL_INVARIANT, "c is related to every admitted
    member" is decided by orbit lookup (see relations.OrbitLookup): one
    enumeration of the universe finds the members not related to its first
    member, and each later pair costs one canonical-form lookup.  Other
    relations (value-separated) are evaluated pair by pair.
    """
    enum, kind = get_universe(cfg.universe)
    require(cfg.relation, kind)
    # read from this module's RELATIONS, so that a caller who replaces it
    # (with counting wrappers, say) sees every call
    relation = RELATIONS[cfg.relation]
    size = universe_size(cfg.universe, cfg.n)
    if size > DEFAULT_UNIVERSE_CAP:
        raise CapExceeded(f"universe size {size} exceeds cap {DEFAULT_UNIVERSE_CAP}")
    if cfg.order == "shuffle":
        if cfg.seed is None:
            raise ValueError("shuffle order requires a seed")
        if size > DEFAULT_SHUFFLE_CAP:
            raise CapExceeded(
                f"shuffle order materializes the universe; size {size} exceeds "
                f"cap {DEFAULT_SHUFFLE_CAP}"
            )
        candidates = list(enum(cfg.n))
        random.Random(cfg.seed).shuffle(candidates)
        members = candidates
    elif cfg.order == "lex":
        candidates, members = enum(cfg.n), enum(cfg.n)
    else:
        raise ValueError(f"unknown order {cfg.order!r}")
    admitted = []
    if cfg.relation in RELABEL_INVARIANT:
        rest = iter(members)
        first = next(rest)
        lookup = OrbitLookup(
            first, frozenset([first, *(o for o in rest if not relation(first, o))]), kind
        )
        gs = []  # the admitted members' relabellings, the latest rejector first
        for c in candidates:
            hit = lookup.first_unrelated(c, gs)
            if hit is None:
                admitted.append(c)
                gs.append(lookup.relabelling(c))
            elif hit:
                # a member that rejects one candidate often rejects the next;
                # the order of the checks does not change the outcome
                gs.insert(0, gs.pop(hit))
    else:
        for c in candidates:
            if all(relation(c, q) for q in admitted):
                admitted.append(c)
    return sorted_family(kind, cfg.n, admitted, {
        "construction": "greedy",
        "universe": cfg.universe,
        "relation": cfg.relation,
        "order": cfg.order,
        "seed": cfg.seed,
    })
