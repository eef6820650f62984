import itertools

import pytest

from sepham.core import kind_class
from sepham.universes import UNIVERSES, get_universe, universe_size


def _alternates(p, n):
    # bipartite paths alternate between A = [n // 2] and B = [n] \ A
    sides = [v <= n // 2 for v in p]
    return all(s != t for s, t in zip(sides, sides[1:]))


def _reference(universe, n):
    """Sorted canonical forms, through the kind class, of every permutation
    of [n] that belongs to the universe."""
    _, kind = get_universe(universe)
    cls = kind_class(kind)
    return sorted({
        cls(p).seq
        for p in itertools.permutations(range(1, n + 1))
        if universe != "bipartite-paths" or _alternates(p, n)
    })


CASES = [(u, n) for u in UNIVERSES for n in range(3, 9)] + [("bipartite-paths", 9)]


@pytest.mark.parametrize("universe,n", CASES)
def test_enumerator_equals_the_canonical_form_reference(universe, n):
    enum, _ = get_universe(universe)
    members = list(enum(n))
    assert members == _reference(universe, n)
    assert len(members) == universe_size(universe, n)
