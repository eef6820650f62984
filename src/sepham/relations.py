"""Pairwise separation predicates, each returning a re-verifiable witness
(truthy) or None.

Witness tie-breaking is deterministic: the smallest qualifying vertex,
position, or edge under natural ordering is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .core import as_seq, cycle_edges, edge_degrees, positions, same_n, union_degree_profile
from .errors import DomainError, SameCycle, UnknownRelation


@dataclass(frozen=True)
class Witness:
    kind: str  # the relation name
    payload: object


def is_crossing(p, q) -> Optional[Witness]:
    """Smallest vertex of union degree 4, i.e. internal in both paths with
    four distinct neighbours; None if the paths are not crossing."""
    a, b = as_seq(p), as_seq(q)
    n = same_n(a, b)
    pa, pb = positions(a), positions(b)
    for v in range(1, n + 1):
        i, j = pa[v], pb[v]
        if 1 < i < n and 1 < j < n:
            if len({a[i - 2], a[i], b[j - 2], b[j]}) == 4:
                return Witness("crossing", v)
    return None


def is_two_different(a, b) -> Optional[Witness]:
    """Smallest element whose positions differ by >= 2 with neither position last."""
    x, y = as_seq(a), as_seq(b)
    n = same_n(x, y)
    px, py = positions(x), positions(y)
    for e in range(1, n + 1):
        i, j = px[e], py[e]
        if abs(i - j) >= 2 and i != n and j != n:
            return Witness("two-different", e)
    return None


def is_value_separated(a, b) -> Optional[Witness]:
    """Smallest position at which the two permutations' values differ by >= 2."""
    x, y = as_seq(a), as_seq(b)
    same_n(x, y)
    for i, (u, v) in enumerate(zip(x, y), start=1):
        if abs(u - v) >= 2:
            return Witness("value-separated", i)
    return None


def is_two_separated(a, b) -> Optional[Witness]:
    """Smallest vertex whose two immediate successors in the two linear orders
    are four distinct elements."""
    x, y = as_seq(a), as_seq(b)
    n = same_n(x, y)
    px, py = positions(x), positions(y)
    for e in range(1, n + 1):
        i, j = px[e], py[e]
        if i <= n - 2 and j <= n - 2:
            if len({x[i], x[i + 1], y[j], y[j + 1]}) == 4:
                return Witness("two-separated", e)
    return None


def shares_edge(c, d) -> Optional[Witness]:
    """Smallest edge (u, v), u < v, of both cycles; None for edge-disjoint
    cycles and for identical sequences, as the relation is irreflexive."""
    x, y = as_seq(c), as_seq(d)
    n = same_n(x, y)
    if x == y:
        return None
    py = positions(y)
    shared = [
        (u, v) if u < v else (v, u)
        for u, v in zip(x, x[1:] + x[:1])
        if v in (y[py[u] - 2], y[py[u] % n])
    ]
    return Witness("shared-edge", min(shared)) if shared else None


def cycles_degree3_equiv(c, d) -> Tuple[bool, bool, Optional[Witness]]:
    """Evaluate both sides of the shared-edge / degree-3 equivalence independently.

    Returns (shares_edge, has_degree3_vertex, witness) where the witness is the
    smallest shared edge if one exists.  Raises SameCycle on identical cycles:
    the relation is irreflexive and a duplicate signals a caller bug.
    """
    x, y = as_seq(c), as_seq(d)
    if x == y:
        raise SameCycle(f"identical cycles {x!r}")
    witness = shares_edge(x, y)
    deg = edge_degrees(len(x), cycle_edges(x) | cycle_edges(y))
    has_degree3 = any(v == 3 for v in deg.values())
    return witness is not None, has_degree3, witness


def verify_witness(a, b, w: Witness) -> bool:
    """Re-verify a witness against the raw definition computed from scratch."""
    x, y = as_seq(a), as_seq(b)
    n = len(x)
    if w.kind == "crossing":
        return union_degree_profile(x, y).deg[w.payload] == 4
    if w.kind == "two-different":
        i, j = positions(x)[w.payload], positions(y)[w.payload]
        return abs(i - j) >= 2 and i != n and j != n
    if w.kind == "value-separated":
        i = w.payload
        return abs(x[i - 1] - y[i - 1]) >= 2
    if w.kind == "two-separated":
        i, j = positions(x)[w.payload], positions(y)[w.payload]
        return (
            i <= n - 2
            and j <= n - 2
            and len({x[i], x[i + 1], y[j], y[j + 1]}) == 4
        )
    if w.kind == "shared-edge":
        return w.payload in (cycle_edges(x) & cycle_edges(y))
    raise ValueError(f"unknown witness kind {w.kind!r}")


def verify_unrelated(a, b, relation: str) -> bool:
    """Check from the raw definition that the pair has no witness: union
    max degree <= 3 for crossing, edge-disjoint cycles for shared-edge, and
    for the permutation relations no element or position re-verifies."""
    x, y = as_seq(a), as_seq(b)
    if relation == "crossing":
        return union_degree_profile(x, y).max_degree() <= 3
    if relation == "shared-edge":
        return not cycle_edges(x) & cycle_edges(y)
    return not any(
        verify_witness(x, y, Witness(relation, e)) for e in range(1, len(x) + 1)
    )


#: Relation name -> witness finder, which is also the pair predicate.
RELATIONS = {
    "crossing": is_crossing,
    "two-different": is_two_different,
    "value-separated": is_value_separated,
    "two-separated": is_two_separated,
    "shared-edge": shares_edge,
}

#: Relation name -> the member kinds it applies to.  A path's stored
#: orientation is only a canonical choice, so paths take crossing alone,
#: the one path relation that does not depend on it.
APPLIES_TO = {
    "crossing": ("permutations", "paths"),
    "two-different": ("permutations",),
    "value-separated": ("permutations",),
    "two-separated": ("permutations",),
    "shared-edge": ("cycles",),
}


def require(name: str, kind: Optional[str] = None):
    """The named relation's finder; with a member kind, also check that the
    relation applies to it (see APPLIES_TO)."""
    try:
        finder = RELATIONS[name]
    except KeyError:
        raise UnknownRelation(
            f"unknown relation {name!r}; expected one of {', '.join(RELATIONS)}"
        ) from None
    if kind is not None and kind not in APPLIES_TO[name]:
        raise DomainError(f"relation {name} does not apply to kind={kind}")
    return finder
