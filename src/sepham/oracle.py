"""Exact maximum-family computation by branch-and-bound maximum clique.

A maximum pairwise-related family is exactly a maximum clique of the
compatibility graph.  Adjacency is stored as packed bit rows (Python ints);
the search is Tomita-style with greedy-coloring upper bounds, seeded with a
greedy clique, stops once it reaches a known upper bound, and degrades to a
best-found lower bound on timeout.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import bounds as bounds_mod
from .core import Family, Seq, as_seq, sorted_family
from .errors import CapExceeded, DomainError, SephamError
from .relations import (
    RELABEL_INVARIANT,
    RELATIONS,
    OrbitLookup,
    require,
    verify_unrelated,
    verify_witness,
)
from .universes import get_universe

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


@dataclass(slots=True)
class OracleResult:
    """The value with its witness clique, and a clique-coclique certificate:
    ``upper`` = |universe| // |coclique| bounds the value from above."""

    quantity: str
    n: int
    value: int
    witness: Family
    status: str
    upper: int
    #: The coclique's sorted member sequences, n bytes a member.  Packed
    #: because it is several times the witness (72 members at B(8)), and
    #: a caller may keep many results.
    packed_coclique: bytes

    @property
    def coclique(self) -> List[Seq]:
        """The coclique's member sequences, sorted; the first member is one."""
        c, n = self.packed_coclique, self.n
        return [tuple(c[i:i + n]) for i in range(0, len(c), n)]


def build_compatibility_graph(
    objects: Sequence,
    relation: str,
    orbit: Optional[OrbitLookup] = None,
) -> CompatibilityGraph:
    """The named relation's adjacency over at most DEFAULT_VERTEX_CAP objects.

    Without *orbit* the relation is evaluated on every pair.  With it, each
    pair is looked up instead (see relations.OrbitLookup), which needs a
    relation in RELABEL_INVARIANT and objects from the universe that
    ``orbit.far`` was taken from.
    """
    rel = require(relation)
    if orbit is not None and relation not in RELABEL_INVARIANT:
        raise DomainError(f"relabelling does not preserve {relation}; no orbit build")
    seqs = [as_seq(o) for o in objects]
    if len(seqs) > DEFAULT_VERTEX_CAP:
        raise CapExceeded(f"{len(seqs)} vertices exceed cap {DEFAULT_VERTEX_CAP}")
    nv = len(seqs)
    adj = [0] * nv
    if orbit is None:
        for i in range(nv):
            si = seqs[i]
            for j in range(i + 1, nv):
                if rel(si, seqs[j]):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return CompatibilityGraph(objects=seqs, adj=adj)
    gs = [orbit.relabelling(s) for s in seqs]
    for j in range(1, nv):
        row = 0
        for i in orbit.related(seqs[j], gs[:j]):
            row |= 1 << i
            adj[i] |= 1 << j
        adj[j] |= row
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
    upper: Optional[int] = None,
) -> Tuple[int, List[int], str]:
    """Maximum clique size with an attaining witness.

    Returns (value, vertex indices, status).  With *upper*, a proven upper
    bound on the clique number, the search stops as soon as the incumbent
    reaches it.  On timeout the best clique found so far is returned with
    status "lower_bound_timeout"; the exact status certifies true optimality.
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
    target = nv if upper is None else upper
    if len(best) >= target:
        return len(best), best, STATUS_EXACT
    state = {"best": best, "halted": False, "timed_out": False}

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
        if state["halted"]:
            return
        if deadline is not None and time.monotonic() > deadline:
            state["halted"] = state["timed_out"] = True
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
                state["halted"] = len(cur) >= target
            cur.pop()
            if state["halted"]:
                return
            cand_mask &= ~(1 << v)

    expand([], (1 << nv) - 1)
    status = STATUS_TIMEOUT if state["timed_out"] else STATUS_EXACT
    return len(state["best"]), state["best"], status


def complement(g: CompatibilityGraph) -> CompatibilityGraph:
    """The loop-free complement: its cliques are the cocliques of g."""
    full = (1 << g.num_vertices) - 1
    adj = [full & ~row & ~(1 << i) for i, row in enumerate(g.adj)]
    return CompatibilityGraph(objects=g.objects, adj=adj)


_QUANTITY_SPECS = {
    # quantity -> (universe, relation, max n); max n is the oracle's one cap,
    # and keeps every universe within DEFAULT_VERTEX_CAP (2520 members at most)
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
    """Exact value of Q(n), B(n), R(n) or Mcy(n) with an attaining witness
    and a clique-coclique certificate.

    Every quantity's compatibility graph is vertex-transitive: relabelling
    [n] (for B, each side of the bipartition separately) moves any member
    to any other and preserves the relation.  So some maximum clique and
    some maximum coclique contain the first member: the clique is searched
    in its neighbourhood and the coclique in its non-neighbourhood, both
    graphs built by orbit lookup.  In a vertex-transitive graph
    |clique| * |coclique| <= |V|, so |V| // |coclique| is an upper bound, and
    the clique search stops when it reaches it.  One *time_limit* covers both
    searches, the coclique search first; a coclique cut short by the limit
    still gives a valid bound.  Both sides are re-checked by raw definition
    before returning.
    """
    try:
        universe, relation, max_n = _QUANTITY_SPECS[quantity]
    except KeyError:
        raise SephamError(f"unknown quantity {quantity!r}") from None
    if n < bounds_mod.MIN_N:
        raise DomainError(f"{quantity}({n}) needs n >= {bounds_mod.MIN_N}")
    if n > max_n:
        raise CapExceeded(f"{quantity}({n}) exceeds the configured max n={max_n}")
    enum, kind = get_universe(universe)
    first, *rest = enum(n)
    size = 1 + len(rest)
    related = RELATIONS[relation]
    near, far = [], []
    for o in rest:
        (near if related(first, o) else far).append(o)
    orbit = OrbitLookup(first, frozenset([first, *far]), kind)
    co = complement(build_compatibility_graph(far, relation, orbit=orbit))
    g = build_compatibility_graph(near, relation, orbit=orbit)

    deadline = time.monotonic() + time_limit if time_limit is not None else None
    _, co_idx, _ = max_clique_exact(co, time_limit=time_limit)
    coclique = [first] + [co.objects[i] for i in co_idx]
    upper = size // len(coclique)
    remaining = deadline - time.monotonic() if deadline is not None else None
    _, idx, status = max_clique_exact(g, time_limit=remaining, upper=upper - 1)
    clique = [first] + [g.objects[i] for i in idx]
    check_certificate(relation, size, clique, coclique)
    if status == STATUS_EXACT:
        _sandwich_check(quantity, n, len(clique))
    witness = sorted_family(
        kind, n, clique, {"construction": "oracle", "quantity": quantity, "status": status}
    )
    return OracleResult(
        quantity=quantity, n=n, value=len(clique), witness=witness, status=status,
        upper=upper, packed_coclique=b"".join(map(bytes, sorted(coclique))),
    )


def check_certificate(relation: str, size: int, clique: List[Seq], coclique: List[Seq]) -> None:
    """Re-check a clique-coclique certificate over a universe of *size*
    members by raw definition; raise SephamError if any part fails."""
    rel = RELATIONS[relation]
    for a, b in itertools.combinations(clique, 2):
        w = rel(a, b)
        if w is None or not verify_witness(a, b, w):
            raise SephamError(f"clique pair {a} {b} is not {relation}")
    for a, b in itertools.combinations(coclique, 2):
        if not verify_unrelated(a, b, relation):
            raise SephamError(f"coclique pair {a} {b} is {relation}")
    if len(clique) * len(coclique) > size:
        raise SephamError(
            f"clique {len(clique)} x coclique {len(coclique)} exceeds {size} members"
        )


def _sandwich_check(quantity: str, n: int, value: int) -> None:
    lower, upper = sandwich(quantity, n)
    if not lower <= value <= upper:
        raise SephamError(
            f"{quantity}({n}) = {value} violates the bound sandwich "
            f"[{lower}, {upper}]"
        )
