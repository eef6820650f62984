import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepham.core import (
    MAX_N,
    HamiltonCycle,
    Permutation,
    canonical_cycle,
    canonical_path,
    couple_order,
    inverse,
    union_degree_profile,
)
from sepham.errors import CapExceeded, NotAPermutation, SizeMismatch

perm5 = st.permutations(list(range(1, 6)))
perm_any = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


class TestCanonicalPath:
    def test_keeps_smaller_endpoint_first(self):
        assert canonical_path([2, 1, 3]).seq == (2, 1, 3)

    def test_reverse_maps_to_same_representative(self):
        assert canonical_path([3, 1, 2]).seq == (2, 1, 3)

    def test_rejects_repeated_value(self):
        with pytest.raises(NotAPermutation):
            canonical_path([1, 1, 2])

    def test_rejects_oversized_n(self):
        with pytest.raises(CapExceeded):
            canonical_path(range(1, MAX_N + 2))

    @given(perm_any)
    def test_reverse_invariant_and_idempotent(self, seq):
        p = canonical_path(seq)
        assert canonical_path(seq[::-1]) == p
        assert canonical_path(p.seq) == p


class TestCanonicalCycle:
    def test_starts_at_one_second_smaller_than_last(self):
        c = canonical_cycle([3, 5, 1, 4, 2])
        assert c.seq[0] == 1
        assert c.seq[1] < c.seq[-1]

    def test_rotations_and_reflections_coincide(self):
        base = (1, 3, 5, 2, 4)
        variants = [base[i:] + base[:i] for i in range(5)]
        variants += [v[::-1] for v in variants]
        assert len({canonical_cycle(v) for v in variants}) == 1

    def test_needs_three_vertices(self):
        with pytest.raises(NotAPermutation):
            HamiltonCycle((1, 2))


class TestUnionDegreeProfile:
    def test_identical_paths(self):
        prof = union_degree_profile((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
        assert prof.deg == {1: 1, 2: 2, 3: 2, 4: 2, 5: 1}

    def test_degree_four_vertex(self):
        prof = union_degree_profile((1, 2, 3, 4, 5), (2, 4, 1, 3, 5))
        assert prof.deg[3] == 4

    def test_max_degree_three(self):
        prof = union_degree_profile((1, 2, 3, 4), (2, 1, 3, 4))
        assert prof.max_degree() == 3
        assert prof.deg[3] == 3

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            union_degree_profile((1, 2, 3), (1, 2, 3, 4))

    @given(perm5, perm5)
    def test_symmetric_and_degrees_in_range(self, a, b):
        pa = union_degree_profile(a, b)
        pb = union_degree_profile(b, a)
        assert pa.deg == pb.deg
        assert all(1 <= d <= 4 for d in pa.deg.values())

    def test_degree_sum_counts_union_edges(self):
        from sepham.core import path_edges

        a, b = (1, 2, 3, 4, 5), (2, 4, 1, 3, 5)
        prof = union_degree_profile(a, b)
        assert sum(prof.deg.values()) == 2 * len(path_edges(a) | path_edges(b))


class TestInverse:
    def test_identity(self):
        assert inverse(Permutation((1, 2, 3))).seq == (1, 2, 3)

    def test_three_cycle(self):
        assert inverse(Permutation((2, 3, 1))).seq == (3, 1, 2)

    def test_direct_index_computation(self):
        assert inverse(Permutation((4, 1, 3, 2))).seq == (2, 4, 3, 1)

    @given(perm_any)
    def test_involution(self, seq):
        p = Permutation(tuple(seq))
        assert inverse(inverse(p)) == p


class TestCoupleOrder:
    def test_odd_n_drops_last(self):
        co = couple_order(Permutation((3, 1, 4, 2, 5)))
        assert co.couples == (frozenset({1, 3}), frozenset({2, 4}))

    def test_identity_case(self):
        co = couple_order(Permutation((1, 2, 3, 4)))
        assert co.couples == (frozenset({1, 2}), frozenset({3, 4}))

    def test_distinct_couple_orders_n5(self):
        import itertools

        orders = {couple_order(p).couples for p in itertools.permutations(range(1, 6))}
        assert len(orders) == 30  # 5!/2^2

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_class_sizes(self, n):
        import itertools
        from collections import Counter

        counts = Counter(
            couple_order(p).couples for p in itertools.permutations(range(1, n + 1))
        )
        assert set(counts.values()) == {2 ** (n // 2)}

    def test_couples_are_disjoint(self):
        co = couple_order(Permutation((5, 2, 1, 4, 3, 6, 7)))
        union = set().union(*co.couples)
        assert len(union) == 2 * (co.n // 2)
