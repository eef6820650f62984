"""Domain types: permutations, Hamilton paths and cycles, families, couple orders,
degree profiles.

All public values are 1-based: the ground set is [n] = {1, ..., n} and
positions run from 1 to n.  Everything here is an immutable value type;
operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterable, Sequence, Tuple, Union

from .errors import CapExceeded, NotAPermutation, SizeMismatch, UnknownKind

#: Hard ceiling on the ground-set size.  Every universe in this library is
#: factorial-sized, so a silent n=50 request would never finish.
MAX_N = 20

Seq = Tuple[int, ...]


def check_perm_seq(raw: Iterable[int], min_n: int = 1) -> Seq:
    """Validate that *raw* is a bijection onto [n] and return it as a tuple."""
    seq = tuple(raw)
    n = len(seq)
    if n < min_n:
        raise NotAPermutation(f"need at least {min_n} elements, got {n}")
    if n > MAX_N:
        raise CapExceeded(f"n={n} exceeds the configured maximum {MAX_N}")
    if sorted(seq) != list(range(1, n + 1)):
        raise NotAPermutation(f"{seq!r} is not a permutation of [{n}]")
    return seq


def as_seq(obj: Union["Permutation", "HamiltonPath", "HamiltonCycle", Sequence[int]]) -> Seq:
    """Accept a domain object or a bare vertex sequence, return the tuple."""
    seq = getattr(obj, "seq", None)
    if seq is not None:
        return seq
    return tuple(obj)


def same_n(a: Seq, b: Seq) -> int:
    if len(a) != len(b):
        raise SizeMismatch(f"objects over [{len(a)}] and [{len(b)}]")
    return len(a)


def path_canon(seq: Seq) -> Seq:
    """A path read in either direction is one path: smaller endpoint first."""
    return seq[::-1] if seq[0] > seq[-1] else seq


def cycle_canon(seq: Seq) -> Seq:
    """A cycle up to rotation and reflection: start at 1, seq[2] < seq[n]."""
    i = seq.index(1)
    seq = seq[i:] + seq[:i]
    return (1,) + seq[:0:-1] if seq[1] > seq[-1] else seq


def _identity(seq: Seq) -> Seq:
    return seq


@dataclass(frozen=True, slots=True)
class _Member:
    """A vertex sequence over [n], stored in its kind's canonical form.

    ``canon`` maps any valid sequence of the kind to that form without
    validating it, so hot loops can call it directly.
    """

    seq: Seq
    MIN_N: ClassVar[int] = 1
    canon: ClassVar = staticmethod(_identity)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seq", self.canon(check_perm_seq(self.seq, self.MIN_N)))

    @property
    def n(self) -> int:
        return len(self.seq)


@dataclass(frozen=True, slots=True)
class Permutation(_Member):
    """A linear order of [n]; doubles as a consecutively oriented Hamilton path."""


@dataclass(frozen=True, slots=True)
class HamiltonPath(_Member):
    """An undirected Hamilton path of K_n, stored with its smaller endpoint first."""

    MIN_N: ClassVar[int] = 2
    canon: ClassVar = staticmethod(path_canon)


@dataclass(frozen=True, slots=True)
class HamiltonCycle(_Member):
    """A Hamilton cycle of K_n, rotated to start at 1 and oriented so seq[2] < seq[n]."""

    MIN_N: ClassVar[int] = 3
    canon: ClassVar = staticmethod(cycle_canon)


#: Member kind -> canonical class; a family's kind names one of these.
KINDS = {
    "permutations": Permutation,
    "paths": HamiltonPath,
    "cycles": HamiltonCycle,
}


def kind_class(kind: str) -> type:
    """The canonical class of a member kind."""
    try:
        return KINDS[kind]
    except KeyError:
        raise UnknownKind(f"unknown kind {kind!r}") from None


@dataclass(frozen=True, slots=True)
class Family:
    """An ordered, duplicate-free family of canonical objects over [n]."""

    n: int
    kind: str  # a key of KINDS
    members: Tuple
    meta: Dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        seqs = self.seqs()
        for s in seqs:
            if len(s) != self.n:
                raise SizeMismatch(f"member {s!r} of a family over [{self.n}]")
        if len(set(seqs)) != len(seqs):
            raise ValueError("family members are not pairwise distinct")

    def __len__(self) -> int:
        return len(self.members)

    def seqs(self):
        return [as_seq(m) for m in self.members]


def sorted_family(kind: str, n: int, seqs: Iterable[Seq], meta: Dict) -> Family:
    """Family of the canonical forms of *seqs* as *kind* members, sorted by sequence."""
    cls = kind_class(kind)
    members = sorted((cls(s) for s in seqs), key=lambda o: o.seq)
    return Family(n=n, kind=kind, members=tuple(members), meta=meta)


@dataclass(frozen=True)
class CoupleOrder:
    """The sequence of floor(n/2) unordered consecutive pairs of a permutation."""

    n: int
    couples: Tuple[frozenset, ...]


@dataclass
class DegreeProfile:
    """Vertex degrees of the edge-set union of two paths/cycles on [n]."""

    n: int
    deg: Dict[int, int] = field(default_factory=dict)

    def max_degree(self) -> int:
        return max(self.deg.values())


def canonical_path(raw: Iterable[int]) -> HamiltonPath:
    """Canonical representative of an undirected path: a path equals its reverse."""
    return HamiltonPath(tuple(raw))


def canonical_cycle(raw: Iterable[int]) -> HamiltonCycle:
    """Canonical representative of a cycle up to rotation and reflection."""
    return HamiltonCycle(tuple(raw))


def path_edges(seq: Seq) -> frozenset:
    """Edge set of a vertex sequence read as an undirected path."""
    return frozenset(
        (a, b) if a < b else (b, a) for a, b in zip(seq, seq[1:])
    )


def cycle_edges(seq: Seq) -> frozenset:
    """Edge set of a vertex sequence read as a cycle (closing edge included)."""
    closing = (seq[-1], seq[0]) if seq[-1] < seq[0] else (seq[0], seq[-1])
    return path_edges(seq) | {closing}


def edge_degrees(n: int, edges: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """The degree of each vertex of [n] in an edge set."""
    deg = {v: 0 for v in range(1, n + 1)}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def union_degree_profile(p, q) -> DegreeProfile:
    """Degrees in the union of the edge sets of two paths over the same [n]."""
    a, b = as_seq(p), as_seq(q)
    n = same_n(a, b)
    return DegreeProfile(n=n, deg=edge_degrees(n, path_edges(a) | path_edges(b)))


def inverse(p: Permutation) -> Permutation:
    """The inverse linear order: q[p[i]] = i."""
    seq = as_seq(p)
    out = [0] * len(seq)
    for i, v in enumerate(seq, start=1):
        out[v - 1] = i
    return Permutation(tuple(out))


def couple_order(p) -> CoupleOrder:
    """Pairs {p[1],p[2]}, {p[3],p[4]}, ...; for odd n the last element is dropped."""
    seq = as_seq(p)
    n = len(seq)
    if n < 2:
        raise NotAPermutation("couple order needs n >= 2")
    couples = tuple(
        frozenset((seq[2 * i], seq[2 * i + 1])) for i in range(n // 2)
    )
    return CoupleOrder(n=n, couples=couples)


def positions(seq: Seq) -> Dict[int, int]:
    """Map each value to its 1-based position."""
    return {v: i for i, v in enumerate(seq, start=1)}
