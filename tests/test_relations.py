import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepham.core import (
    KINDS,
    Permutation,
    cycle_edges,
    inverse,
    positions,
    union_degree_profile,
)
from sepham.errors import DomainError, SameCycle, SizeMismatch, UnknownRelation
from sepham.relations import (
    RELABEL_INVARIANT,
    RELATIONS,
    OrbitLookup,
    cycles_degree3_equiv,
    is_crossing,
    is_two_different,
    is_two_separated,
    is_value_separated,
    require,
    shares_edge,
    verify_unrelated,
    verify_witness,
)
from sepham.structure import property_uno_holds
from sepham.universes import get_universe, hamilton_cycles, hamilton_paths

perm6 = st.permutations(list(range(1, 7)))


class TestCrossing:
    def test_witness_vertex_three(self):
        w = is_crossing((1, 2, 3, 4, 5), (2, 4, 1, 3, 5))
        assert w is not None and w.payload == 3

    def test_self_is_never_crossing(self):
        assert is_crossing((3, 1, 4, 2, 5), (3, 1, 4, 2, 5)) is None

    def test_impossible_on_four_vertices(self):
        for a, b in itertools.combinations(itertools.permutations(range(1, 5)), 2):
            assert is_crossing(a, b) is None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_crossing((1, 2, 3), (1, 2, 3, 4))

    def test_witness_is_degree_four(self):
        a, b = (1, 2, 3, 4, 5), (2, 4, 1, 3, 5)
        w = is_crossing(a, b)
        assert union_degree_profile(a, b).deg[w.payload] == 4


class TestTwoDifferent:
    def test_witness_element(self):
        w = is_two_different((1, 2, 3, 4), (3, 1, 2, 4))
        assert w is not None and w.payload == 3

    def test_gap_only_at_last_position(self):
        assert is_two_different((1, 2, 3), (2, 3, 1)) is None

    def test_identical(self):
        assert is_two_different((1, 2, 3, 4), (1, 2, 3, 4)) is None


class TestValueSeparated:
    def test_witness_position(self):
        w = is_value_separated((1, 2, 3), (2, 3, 1))
        assert w is not None and w.payload == 3

    def test_adjacent_swaps_not_separated(self):
        assert is_value_separated((1, 2, 3, 4), (2, 1, 4, 3)) is None

    def test_identical(self):
        assert is_value_separated((2, 1, 3), (2, 1, 3)) is None

    def test_bridge_to_two_different_without_last_exclusion(self):
        # positions of an element in (a, b) differ by >= 2 for some element
        # iff the inverses are value-separated at some position
        for a, b in itertools.combinations(itertools.permutations(range(1, 6)), 2):
            pa, pb = positions(a), positions(b)
            gap = any(abs(pa[e] - pb[e]) >= 2 for e in range(1, 6))
            ia, ib = inverse(Permutation(a)), inverse(Permutation(b))
            assert (is_value_separated(ia, ib) is not None) == gap


class TestTwoSeparated:
    def test_witness_vertex(self):
        w = is_two_separated((1, 2, 3, 4, 5, 6), (1, 4, 5, 2, 3, 6))
        assert w is not None and w.payload == 1

    def test_impossible_on_four_elements(self):
        for a, b in itertools.combinations(itertools.permutations(range(1, 5)), 2):
            assert is_two_separated(a, b) is None

    def test_identical(self):
        assert is_two_separated((2, 1, 3, 4, 5), (2, 1, 3, 4, 5)) is None

    def test_matches_closeness_property_against_identity(self):
        for n in (5, 6):
            ident = tuple(range(1, n + 1))
            for p in itertools.permutations(ident):
                holds, _ = property_uno_holds(p)
                assert holds == (is_two_separated(ident, p) is None)


#: Relation name -> the universe its pairs are drawn from, of a kind it
#: applies to, and the n checked exhaustively.
DOMAINS = {
    "crossing": ("permutations", (5,)),
    "two-different": ("permutations", (5,)),
    "value-separated": ("permutations", (5,)),
    "two-separated": ("permutations", (5,)),
    "shared-edge": ("cycles", (5, 6)),
}


def domain_members(name):
    universe, ns = DOMAINS[name]
    enum, _ = get_universe(universe)
    return [list(enum(n)) for n in ns]


class TestSymmetryAndSoundness:
    def test_every_relation_has_a_domain_it_applies_to(self):
        assert sorted(DOMAINS) == sorted(RELATIONS)
        for name, (universe, _) in DOMAINS.items():
            require(name, get_universe(universe)[1])

    def test_symmetry_exhaustive_n5(self):
        for name, rel in RELATIONS.items():
            for members in domain_members(name):
                for a, b in itertools.combinations(members, 2):
                    assert bool(rel(a, b)) == bool(rel(b, a)), (name, a, b)

    def test_relabel_invariant_exhaustive(self):
        # a transposition and an n-cycle generate S_n, so a relation that
        # both preserve is preserved by every relabelling of [n]
        for name, rel in RELATIONS.items():
            preserved = True
            for members in domain_members(name):
                n = len(members[0])
                for g in ({1: 2, 2: 1}, {v: v % n + 1 for v in range(1, n + 1)}):
                    def relabel(s):
                        return tuple(g.get(v, v) for v in s)

                    preserved &= all(
                        bool(rel(relabel(a), relabel(b))) == bool(rel(a, b))
                        for a, b in itertools.combinations(members, 2)
                    )
            assert preserved == (name in RELABEL_INVARIANT), name

    def test_orbit_lookup_of_one_element_members(self):
        # itemgetter with one index returns a bare value, not a 1-tuple
        lookup = OrbitLookup((1,), frozenset({(1,)}), "permutations")
        assert lookup.first_unrelated((1,), [lookup.relabelling((1,))]) == 0

    @given(perm6, perm6)
    def test_symmetry_sampled_n6(self, a, b):
        a, b = tuple(a), tuple(b)
        for name, rel in RELATIONS.items():
            assert bool(rel(a, b)) == bool(rel(b, a)), name

    def test_witnesses_reverify(self):
        for name, rel in RELATIONS.items():
            for members in domain_members(name):
                for a, b in itertools.combinations(members, 2):
                    w = rel(a, b)
                    if w is not None:
                        assert w.kind == name
                        assert verify_witness(a, b, w), (name, a, b)

    @given(perm6, perm6)
    def test_witnesses_reverify_sampled_n6(self, a, b):
        a, b = tuple(a), tuple(b)
        for name, rel in RELATIONS.items():
            w = rel(a, b)
            if w is not None:
                assert w.kind == name and verify_witness(a, b, w), name

    def test_unrelated_pairs_reverify(self):
        for name, rel in RELATIONS.items():
            for members in domain_members(name):
                for a, b in itertools.combinations(members, 2):
                    assert verify_unrelated(a, b, name) == (rel(a, b) is None), (name, a, b)

    def test_anti_reflexive(self):
        for name, rel in RELATIONS.items():
            for members in domain_members(name):
                for p in members:
                    assert rel(p, p) is None, (name, p)


def smallest_degree_four_vertex(a, b):
    deg = union_degree_profile(a, b).deg
    return min((v for v in deg if deg[v] == 4), default=None)


def smallest_shared_edge(c, d):
    if c == d:  # a cycle is not related to itself
        return None
    return min(cycle_edges(c) & cycle_edges(d), default=None)


def payload(w):
    return None if w is None else w.payload


pair_7_to_9 = st.integers(7, 9).flatmap(
    lambda n: st.tuples(*[st.permutations(range(1, n + 1))] * 2)
)


class TestFindersMatchDefinitions:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_crossing_exhaustive(self, n):
        for a, b in itertools.combinations(hamilton_paths(n), 2):
            assert payload(is_crossing(a, b)) == smallest_degree_four_vertex(a, b)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_shares_edge_exhaustive(self, n):
        for c, d in itertools.combinations(hamilton_cycles(n), 2):
            assert payload(shares_edge(c, d)) == smallest_shared_edge(c, d)

    @given(pair_7_to_9)
    def test_sampled_7_to_9(self, pair):
        a, b = map(tuple, pair)
        assert payload(is_crossing(a, b)) == smallest_degree_four_vertex(a, b)
        assert payload(shares_edge(a, b)) == smallest_shared_edge(a, b)


class TestRequire:
    def test_unknown_relation_names_the_allowed_ones(self):
        with pytest.raises(UnknownRelation) as exc:
            require("nope")
        assert "'nope'" in str(exc.value)
        assert ", ".join(RELATIONS) in str(exc.value)

    def test_kind_rule(self):
        # shared-edge applies to cycles only, cycles take only shared-edge,
        # and paths take only crossing, the one relation that does not
        # depend on a path's stored orientation
        applies = {
            "permutations": {"crossing", "two-different", "value-separated", "two-separated"},
            "paths": {"crossing"},
            "cycles": {"shared-edge"},
        }
        assert sorted(applies) == sorted(KINDS)
        for name in RELATIONS:
            for kind in KINDS:
                if name in applies[kind]:
                    assert require(name, kind) is RELATIONS[name]
                else:
                    with pytest.raises(DomainError, match=f"does not apply to kind={kind}"):
                        require(name, kind)


class TestCyclesDegree3:
    def test_shared_edge_pair(self):
        shares, deg3, w = cycles_degree3_equiv((1, 2, 3, 4, 5), (1, 2, 4, 3, 5))
        assert shares and deg3
        assert w is not None and w.payload == (1, 2)

    def test_edge_disjoint_pair(self):
        shares, deg3, w = cycles_degree3_equiv((1, 2, 3, 4, 5), (1, 3, 5, 2, 4))
        assert not shares and not deg3 and w is None

    def test_same_cycle_raises(self):
        with pytest.raises(SameCycle):
            cycles_degree3_equiv((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))

    @pytest.mark.parametrize("n", [5, 6])
    def test_equivalence_exhaustive(self, n):
        cycles = list(hamilton_cycles(n))
        for c, d in itertools.combinations(cycles, 2):
            shares, deg3, _ = cycles_degree3_equiv(c, d)
            assert shares == deg3
