"""Exact maximum-family computation by branch-and-bound maximum clique.

A maximum pairwise-related family is exactly a maximum clique of the
compatibility graph.  Adjacency is stored as packed bit rows (Python ints);
the search is Tomita-style with greedy-coloring upper bounds, seeded with a
greedy clique, and degrades to a best-found lower bound on timeout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import bounds as bounds_mod
from .core import Family, as_seq, sorted_family
from .errors import CapExceeded, DomainError, SephamError
from .relations import RELATIONS, require
from .universes import get_universe, universe_size

DEFAULT_VERTEX_CAP = 10_000

STATUS_EXACT = "exact"
STATUS_TIMEOUT = "lower_bound_timeout"


@dataclass
class CompatibilityGraph:
    """Universe members plus a symmetric, loop-free boolean adjacency."""

    objects: List[tuple]
    adj: List[int]  # bit row i has bit j set iff the relation holds for (i, j)

    @property
    def num_vertices(self) -> int:
        return len(self.objects)

    def degree(self, i: int) -> int:
        return bin(self.adj[i]).count("1")


@dataclass
class OracleResult:
    quantity: str
    n: int
    value: int
    witness: Family
    status: str


def build_compatibility_graph(
    objects: Sequence, relation: str, cap: int = DEFAULT_VERTEX_CAP
) -> CompatibilityGraph:
    """Full pairwise evaluation of the named relation over the given objects."""
    rel = require(relation)
    seqs = [as_seq(o) for o in objects]
    if len(seqs) > cap:
        raise CapExceeded(f"{len(seqs)} vertices exceed cap {cap}")
    n = len(seqs)
    adj = [0] * n
    for i in range(n):
        si = seqs[i]
        for j in range(i + 1, n):
            if rel(si, seqs[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return CompatibilityGraph(objects=seqs, adj=adj)


def greedy_clique(adj: List[int], order: Optional[Sequence[int]] = None) -> List[int]:
    """Greedy clique along the given vertex order (default: index order)."""
    clique: List[int] = []
    mask = -1
    for v in order if order is not None else range(len(adj)):
        if mask >> v & 1:
            clique.append(v)
            mask &= adj[v]
    return clique


def max_clique_exact(
    g: CompatibilityGraph,
    time_limit: Optional[float] = None,
) -> Tuple[int, List[int], str]:
    """Maximum clique size with an attaining witness.

    Returns (value, vertex indices, status).  On timeout the best clique
    found so far is returned with status "lower_bound_timeout"; the exact
    status certifies true optimality.
    """
    adj = g.adj
    nv = len(adj)
    if nv == 0:
        return 0, [], STATUS_EXACT
    deadline = time.monotonic() + time_limit if time_limit is not None else None

    by_degree = sorted(range(nv), key=lambda v: -g.degree(v))
    seed = greedy_clique(adj, by_degree)
    lex_seed = greedy_clique(adj)
    if len(lex_seed) > len(seed):
        seed = lex_seed
    best = sorted(seed)
    state = {"best": best, "timed_out": False}

    def color_sort(cand_mask: int) -> List[Tuple[int, int]]:
        # sequential greedy coloring; returns (vertex, color) in color order
        out = []
        color = 0
        rem = cand_mask
        while rem:
            color += 1
            avail = rem
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                out.append((v, color))
                rem &= ~(1 << v)
                avail &= ~adj[v]
        return out

    def expand(cur: List[int], cand_mask: int) -> None:
        if state["timed_out"]:
            return
        if deadline is not None and time.monotonic() > deadline:
            state["timed_out"] = True
            return
        colored = color_sort(cand_mask)
        for i in range(len(colored) - 1, -1, -1):
            v, c = colored[i]
            if len(cur) + c <= len(state["best"]):
                return
            cur.append(v)
            nxt = cand_mask & adj[v]
            if nxt:
                expand(cur, nxt)
            elif len(cur) > len(state["best"]):
                state["best"] = sorted(cur)
            cur.pop()
            cand_mask &= ~(1 << v)

    expand([], (1 << nv) - 1)
    status = STATUS_TIMEOUT if state["timed_out"] else STATUS_EXACT
    return len(state["best"]), state["best"], status


_QUANTITY_SPECS = {
    # quantity -> (universe, relation, max n)
    "Q": ("paths", "crossing", 7),
    "B": ("bipartite-paths", "crossing", 8),
    "R": ("permutations", "two-separated", 6),
    "Mcy": ("cycles", "shared-edge", 7),
}


def sandwich(quantity: str, n: int) -> Tuple:
    """The closed-form (lower, upper) bounds on the quantity at n."""
    rec = bounds_mod.eval_bounds(n)
    if quantity in ("Q", "B"):
        # the explicit construction lives in the bipartite graph, and any
        # bipartite crossing family is also one in K_n
        return rec.q_lower_new, rec.q_upper_kmm
    if quantity == "R":
        return rec.r_lower, rec.r_upper
    if quantity == "Mcy":
        return rec.mcy_lower, rec.mcy_lower if n % 2 else rec.mcy_upper_even
    raise SephamError(f"unknown quantity {quantity!r}")


def oracle_quantity(
    quantity: str, n: int, time_limit: Optional[float] = None
) -> OracleResult:
    """Exact value of Q(n), B(n), R(n) or Mcy(n) with an attaining witness.

    Every quantity's compatibility graph is vertex-transitive: relabelling
    [n] (for B, each side of the bipartition separately) moves any member
    to any other and preserves the relation.  So some maximum clique
    contains the first member, and only its neighbourhood is searched.
    """
    try:
        universe, relation, max_n = _QUANTITY_SPECS[quantity]
    except KeyError:
        raise SephamError(f"unknown quantity {quantity!r}") from None
    if n < bounds_mod.MIN_N:
        raise DomainError(f"{quantity}({n}) needs n >= {bounds_mod.MIN_N}")
    if n > max_n:
        raise CapExceeded(f"{quantity}({n}) exceeds the configured max n={max_n}")
    size = universe_size(universe, n)
    if size > DEFAULT_VERTEX_CAP:
        raise CapExceeded(
            f"{quantity}({n}): universe {universe} has {size} "
            f"members, cap is {DEFAULT_VERTEX_CAP}"
        )
    enum, kind = get_universe(universe)
    first, *rest = enum(n)
    related = RELATIONS[relation]
    g = build_compatibility_graph([o for o in rest if related(first, o)], relation)
    rest_size, idx, status = max_clique_exact(g, time_limit=time_limit)
    value = 1 + rest_size
    witness = sorted_family(
        kind, n, [first] + [g.objects[i] for i in idx],
        {"construction": "oracle", "quantity": quantity, "status": status},
    )
    if status == STATUS_EXACT:
        _sandwich_check(quantity, n, value)
    return OracleResult(quantity=quantity, n=n, value=value, witness=witness, status=status)


def _sandwich_check(quantity: str, n: int, value: int) -> None:
    lower, upper = sandwich(quantity, n)
    if not lower <= value <= upper:
        raise SephamError(
            f"{quantity}({n}) = {value} violates the bound sandwich "
            f"[{lower}, {upper}]"
        )
