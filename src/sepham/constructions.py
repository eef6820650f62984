"""Explicit families: the bipartite crossing construction, the value-separated
permutation family feeding it, the fixed-edge cycle kernel, and the Walecki
decomposition of K_n for odd n.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from math import factorial
from typing import Dict, Optional, Tuple

from . import greedy
from .core import (
    Family,
    HamiltonPath,
    as_seq,
    canonical_cycle,
    cycle_edges,
    inverse,
    sorted_family,
)
from .errors import BadEdge, CapExceeded, DomainError, EvenN, SizeMismatch
from .oracle import build_compatibility_graph, max_clique_exact

DEFAULT_EXACT_CAP = 6
DEFAULT_FAMILY_CAP = 50_000


def bipartite_path(n: int, alpha) -> HamiltonPath:
    """Alternating Hamilton path of K_{floor(n/2),ceil(n/2)}.

    B = [n] \\ [floor(n/2)] occupies the odd positions in increasing order;
    the A-elements follow the linear order alpha.
    """
    m = n // 2
    aseq = as_seq(alpha)
    if sorted(aseq) != list(range(1, m + 1)):
        raise SizeMismatch(f"alpha must be a permutation of [{m}]")
    b_side = list(range(m + 1, n + 1))
    out = []
    for i, b in enumerate(b_side):
        out.append(b)
        if i < m:
            out.append(aseq[i])
    return HamiltonPath(tuple(out))


def two_diff_family(m: int, mode: str = "exact", seed: Optional[int] = None) -> Family:
    """A family of permutations of [m] that is pairwise value-separated.

    mode="exact" runs the clique oracle without a time limit and returns a
    maximum family (only up to DEFAULT_EXACT_CAP, which keeps it under a
    second); mode="greedy" runs the greedy engine, in lexicographic order
    without a seed and in seed-shuffled order (capped like any shuffled
    greedy) with one.
    """
    meta = {"construction": "two-diff", "mode": mode, "seed": seed}
    if mode != "exact":
        cfg = greedy.GreedyConfig(
            universe="permutations",
            relation="value-separated",
            n=m,
            order="lex" if seed is None else "shuffle",
            seed=seed,
        )
        return replace(greedy.greedy_family(cfg), meta=meta)
    if m < 1:
        raise DomainError(f"exact mode needs m >= 1, got {m}")
    if m > DEFAULT_EXACT_CAP:
        raise CapExceeded(f"exact mode capped at m={DEFAULT_EXACT_CAP}, got {m}")
    perms = list(itertools.permutations(range(1, m + 1)))
    g = build_compatibility_graph(perms, "value-separated")
    value, idx, status = max_clique_exact(g)
    meta["status"] = status
    if value != factorial(m) // 2 ** (m // 2):
        raise AssertionError(
            f"exact maximum {value} != m!/2^(m/2) = {factorial(m) // 2 ** (m // 2)}"
        )
    return sorted_family("permutations", m, (g.objects[i] for i in idx), meta)


def bipartite_crossing_family(
    n: int, mode: str = "exact", seed: Optional[int] = None
) -> Family:
    """The explicit pairwise-crossing family of alternating Hamilton paths.

    Pipeline: build a value-separated family over [floor(n/2)], invert its
    members, keep the largest subfamily sharing a common last element
    (ties to the smallest value), and realize each survivor as an
    alternating path.
    """
    if n < 4:
        raise SizeMismatch(f"need n >= 4, got {n}")
    m = n // 2
    base = two_diff_family(m, mode=mode, seed=seed)
    inverses = [inverse(p) for p in base.members]
    by_last: Dict[int, list] = {}
    for p in inverses:
        by_last.setdefault(p.seq[-1], []).append(p)
    last = min(by_last, key=lambda v: (-len(by_last[v]), v))
    paths = (bipartite_path(n, p).seq for p in by_last[last])
    return sorted_family("paths", n, paths, {
        "construction": "bipartite-crossing",
        "mode": mode,
        "seed": seed,
        "common_last": last,
        "base_size": len(base),
    })


def kernel_cycle_family(n: int, e: Tuple[int, int]) -> Family:
    """All (n-2)! Hamilton cycles of K_n through the fixed edge e, up to
    DEFAULT_FAMILY_CAP of them."""
    u, v = e
    if u == v or not (1 <= u <= n) or not (1 <= v <= n):
        raise BadEdge(f"bad edge {e!r} for n={n}")
    if n < 3:
        raise BadEdge(f"need n >= 3, got {n}")
    if factorial(n - 2) > DEFAULT_FAMILY_CAP:
        raise CapExceeded(f"(n-2)! = {factorial(n - 2)} exceeds cap {DEFAULT_FAMILY_CAP}")
    rest = [w for w in range(1, n + 1) if w not in (u, v)]
    cycles = ((u, v) + interior for interior in itertools.permutations(rest))
    return sorted_family("cycles", n, cycles, {
        "construction": "kernel-cycles", "edge": tuple(sorted((u, v))),
    })


def walecki_decomposition(n: int):
    """Partition of the edges of K_n (n odd) into (n-1)/2 Hamilton cycles.

    Rotational zigzag: vertices 1..n-1 on a circle plus hub n; the base
    zigzag 1, 2, n-1, 3, n-2, ... is rotated (n-1)/2 times.
    """
    if n % 2 == 0:
        raise EvenN(f"Walecki decomposition needs odd n, got {n}")
    if n < 3:
        raise EvenN(f"need n >= 3, got {n}")
    m = n - 1  # circle size, even
    half = m // 2

    def zigzag(shift: int):
        # zigzag over Z_m (0-based) then relabel to 1..m, hub = n
        lo_, hi_ = 0, m - 1
        seq = []
        take_lo = True
        while lo_ <= hi_:
            seq.append(lo_ if take_lo else hi_)
            if take_lo:
                lo_ += 1
            else:
                hi_ -= 1
            take_lo = not take_lo
        return [n] + [(x + shift) % m + 1 for x in seq]

    cycles = [canonical_cycle(zigzag(s)) for s in range(half)]
    covered = set()
    for c in cycles:
        edges = cycle_edges(c.seq)
        if covered & edges:
            raise AssertionError("Walecki cycles are not edge-disjoint")
        covered |= edges
    if len(covered) != n * (n - 1) // 2:
        raise AssertionError("Walecki cycles do not cover all edges of K_n")
    return cycles
