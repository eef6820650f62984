"""Anatomy of permutations incompatible with the identity: the closeness
property, runs of big jumps, and free/constrained positions.

"Incompatible" means not two-separated.  Everything here is stated against
the identity base order; `standardize_against` reduces the general case to it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from .core import Permutation, as_seq, positions
from .errors import CapExceeded, NotAPermutation, PositionOutOfRange
from .relations import is_two_separated

#: Differences that can NOT launch a run of big jumps.
_HEAD_SMALL = {-2, -1, 1, 2, 3}
#: Differences that terminate a run once it is going.
_CONT_SMALL = {-1, 1, 2}

DEFAULT_BRUTE_FORCE_CAP = 9


@dataclass(frozen=True)
class RunStructure:
    """Runs of big jumps plus the free/constrained partition of positions."""

    n: int
    runs: Tuple[Tuple[int, int], ...]  # (head_position, length), 1-based
    free_positions: FrozenSet[int]
    constrained_positions: FrozenSet[int]

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    def run_positions(self, run: Tuple[int, int]) -> range:
        head, length = run
        return range(head, head + length)


def property_uno_holds(p) -> Tuple[bool, Optional[int]]:
    """Check the closeness property against the identity.

    For every j <= n-2 with p[j] not in {n, n-1}, one of p[j+1], p[j+2] must
    lie in {p[j]+1, p[j]+2}.  Returns (True, None) or (False, first bad j).
    """
    seq = as_seq(p)
    n = len(seq)
    for j in range(1, n - 1):
        v = seq[j - 1]
        if v >= n - 1:
            continue
        if seq[j] not in (v + 1, v + 2) and seq[j + 1] not in (v + 1, v + 2):
            return False, j
    return True, None


def close_enough_follower(p, j: int) -> str:
    """Classify which of p[j+1], p[j+2] lies in {p[j]+1, p[j]+2}.

    Returns one of "first", "second", "both", "neither".
    """
    seq = as_seq(p)
    n = len(seq)
    if not 1 <= j <= n - 2:
        raise PositionOutOfRange(f"j={j} not in 1..{n - 2}")
    targets = (seq[j - 1] + 1, seq[j - 1] + 2)
    first = seq[j] in targets
    second = seq[j + 1] in targets
    if first and second:
        return "both"
    if first:
        return "first"
    if second:
        return "second"
    return "neither"


def run_structure(p) -> RunStructure:
    """Maximal runs of big jumps and the induced free/constrained partition.

    A run is launched by a difference outside {-2,-1,1,2,3} and continues
    while differences stay outside {-1,1,2}; it spans at least two positions.
    Free positions: position 1, the second position of every run, and the two
    positions immediately following those of n and of n-1 (clipped at n).
    """
    seq = as_seq(p)
    n = len(seq)
    if n < 2:
        raise NotAPermutation("run structure needs n >= 2")
    runs = []
    i = 0
    while i < n - 1:
        if seq[i + 1] - seq[i] not in _HEAD_SMALL:
            j = i + 1
            while j < n - 1 and seq[j + 1] - seq[j] not in _CONT_SMALL:
                j += 1
            runs.append((i + 1, j - i + 1))
            i = j
        else:
            i += 1
    free = {1}
    free.update(head + 1 for head, _ in runs)
    pos = positions(seq)
    for big in (n, n - 1):
        for off in (1, 2):
            q = pos[big] + off
            if q <= n:
                free.add(q)
    constrained = frozenset(range(1, n + 1)) - free
    return RunStructure(
        n=n,
        runs=tuple(runs),
        free_positions=frozenset(free),
        constrained_positions=constrained,
    )


def constrained_closeness_holds(p, j: int) -> bool:
    """The law obeyed by constrained positions of incompatible permutations:
    p[j] is close to p[j-1] (difference in {-2,-1,1,2,3}) or p[j] is in
    {p[j-2]+1, p[j-2]+2}."""
    seq = as_seq(p)
    if j >= 2 and seq[j - 1] - seq[j - 2] in _HEAD_SMALL:
        return True
    if j >= 3 and seq[j - 1] - seq[j - 3] in (1, 2):
        return True
    return False


def incompatible_with_identity(p) -> bool:
    """True iff p is not two-separated from the identity order."""
    seq = as_seq(p)
    ident = tuple(range(1, len(seq) + 1))
    return is_two_separated(ident, seq) is None


def standardize_against(p, base) -> Permutation:
    """Relabel values so that *base* becomes the identity.

    Two-separation only looks at successor sets, so (base, p) behaves exactly
    like (identity, standardize_against(p, base)).
    """
    pseq, bseq = as_seq(p), as_seq(base)
    pos = positions(bseq)
    return Permutation(tuple(pos[v] for v in pseq))


def count_incompatible(n: int) -> int:
    """Exact number of permutations of [n] incompatible with the identity,
    the identity itself included: those with the closeness property.  Brute
    force over all n! permutations, up to n = DEFAULT_BRUTE_FORCE_CAP."""
    if n > DEFAULT_BRUTE_FORCE_CAP:
        raise CapExceeded(f"n={n} exceeds brute-force cap {DEFAULT_BRUTE_FORCE_CAP}")
    return sum(
        property_uno_holds(p)[0] for p in itertools.permutations(range(1, n + 1))
    )
