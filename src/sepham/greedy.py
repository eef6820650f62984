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

from .core import Family, kind_class, sorted_family
from .errors import CapExceeded, DomainError
from .relations import RELATIONS, require
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
    """
    enum, kind = get_universe(cfg.universe)
    require(cfg.relation, kind)
    # read from this module's RELATIONS, so that a caller who replaces it
    # (with counting wrappers, say) sees every call
    relation = RELATIONS[cfg.relation]
    min_n = kind_class(kind).MIN_N
    if cfg.n < min_n:
        raise DomainError(f"universe {cfg.universe} needs n >= {min_n}, got {cfg.n}")
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
    elif cfg.order == "lex":
        candidates = enum(cfg.n)
    else:
        raise ValueError(f"unknown order {cfg.order!r}")
    admitted = []
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
