"""Enumerators for the object universes, yielding canonical forms only.

Paths are produced up to reversal, cycles up to rotation and reflection
(each member is its own `core.path_canon` or `core.cycle_canon` form), so
downstream family builders and the clique oracle never see duplicates.
All enumerators yield tuples in lexicographic order of the canonical form,
and, like `universe_size`, raise DomainError below the minimum n of their
member kind.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterator

from .core import Seq, cycle_canon, kind_class, path_canon
from .errors import DomainError, UnknownUniverse


def permutations(n: int) -> Iterator[Seq]:
    """All n! linear orders of [n], lexicographically."""
    _check_n("permutations", n)
    return itertools.permutations(range(1, n + 1))


def hamilton_paths(n: int) -> Iterator[Seq]:
    """Canonical Hamilton paths of K_n (smaller endpoint first), n!/2 of them."""
    _check_n("paths", n)
    return (p for p in itertools.permutations(range(1, n + 1)) if path_canon(p) == p)


def bipartite_paths(n: int) -> Iterator[Seq]:
    """Canonical Hamilton paths of the balanced complete bipartite graph on [n].

    A = [floor(n/2)], B = [n] \\ A; every Hamilton path alternates between
    the classes (for odd n it starts and ends in B).
    """
    _check_n("bipartite-paths", n)
    m = n // 2
    a_side = range(1, m + 1)
    b_side = range(m + 1, n + 1)
    seen = set()
    for bs in itertools.permutations(b_side):
        for as_ in itertools.permutations(a_side):
            seen.add(path_canon(tuple(_interleave(bs, as_))))
    return iter(sorted(seen))


def _interleave(first, second):
    out = []
    for i in range(max(len(first), len(second))):
        if i < len(first):
            out.append(first[i])
        if i < len(second):
            out.append(second[i])
    return out


def hamilton_cycles(n: int) -> Iterator[Seq]:
    """Canonical Hamilton cycles of K_n (start at 1, second < last), (n-1)!/2 of them."""
    _check_n("cycles", n)
    cycles = ((1,) + rest for rest in itertools.permutations(range(2, n + 1)))
    return (c for c in cycles if cycle_canon(c) == c)


def universe_size(name: str, n: int) -> int:
    """Exact cardinality of a named universe, for cap checks without enumeration."""
    _check_n(name, n)
    if name == "permutations":
        return factorial(n)
    if name == "paths":
        return factorial(n) // 2
    if name == "bipartite-paths":
        m, big = n // 2, n - n // 2
        if n % 2:
            return factorial(m) * factorial(big) // 2
        return factorial(m) * factorial(m)
    return factorial(n - 1) // 2  # cycles


#: Universe name -> (enumerator, member kind).
UNIVERSES = {
    "permutations": (permutations, "permutations"),
    "paths": (hamilton_paths, "paths"),
    "bipartite-paths": (bipartite_paths, "paths"),
    "cycles": (hamilton_cycles, "cycles"),
}


def get_universe(name: str):
    try:
        return UNIVERSES[name]
    except KeyError:
        raise _unknown_universe(name) from None


def _check_n(name: str, n: int) -> None:
    """Raise DomainError below the minimum n of the universe's member kind."""
    min_n = kind_class(get_universe(name)[1]).MIN_N
    if n < min_n:
        raise DomainError(f"universe {name} needs n >= {min_n}, got {n}")


def _unknown_universe(name: str) -> UnknownUniverse:
    return UnknownUniverse(
        f"unknown universe {name!r}; expected one of {', '.join(UNIVERSES)}"
    )
