import itertools
import time
from math import factorial

import pytest

from sepham import constructions, core
from sepham.constructions import (
    Family,
    bipartite_crossing_family,
    bipartite_path,
    kernel_cycle_family,
    two_diff_family,
    walecki_decomposition,
)
from sepham.core import canonical_cycle, cycle_edges
from sepham.errors import BadEdge, CapExceeded, EvenN, SizeMismatch
from sepham.relations import is_crossing, is_value_separated


class TestBipartitePath:
    def test_even_n(self):
        # built as 4 1 5 2 6 3, stored in path-canonical orientation
        from sepham.core import canonical_path

        assert bipartite_path(6, (1, 2, 3)) == canonical_path((4, 1, 5, 2, 6, 3))

    def test_odd_n_trailing_element(self):
        assert bipartite_path(7, (2, 1, 3)).seq == (4, 2, 5, 1, 6, 3, 7)

    def test_wrong_alpha_size(self):
        with pytest.raises(SizeMismatch):
            bipartite_path(6, (1, 2, 3, 4))

    def test_crossing_not_guaranteed_without_two_difference(self):
        p = bipartite_path(6, (1, 2, 3))
        q = bipartite_path(6, (2, 1, 3))
        assert is_crossing(p, q) is None


class TestTwoDiffFamily:
    @pytest.mark.parametrize("m,expected", [(2, 1), (3, 3), (4, 6), (5, 30)])
    def test_exact_sizes(self, m, expected):
        fam = two_diff_family(m, mode="exact")
        assert len(fam) == expected == factorial(m) // 2 ** (m // 2)
        for a, b in itertools.combinations(fam.seqs(), 2):
            assert is_value_separated(a, b) is not None

    def test_m3_witness_family_is_valid(self):
        fam = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
        for a, b in itertools.combinations(fam, 2):
            assert is_value_separated(a, b) is not None

    def test_greedy_is_maximal(self):
        fam = two_diff_family(5, mode="greedy", seed=7)
        members = set(fam.seqs())
        for p in itertools.permutations(range(1, 6)):
            if p in members:
                continue
            assert any(
                is_value_separated(p, q) is None for q in members
            ), f"{p} could be added"

    def test_exact_cap(self):
        with pytest.raises(CapExceeded):
            two_diff_family(7, mode="exact")

    def test_seeded_greedy_cap(self):
        t0 = time.monotonic()
        with pytest.raises(CapExceeded):
            two_diff_family(9, mode="greedy", seed=1)
        assert time.monotonic() - t0 < 1.0


class TestBipartiteCrossingFamily:
    def test_n8_meets_bound(self):
        fam = bipartite_crossing_family(8, mode="exact")
        assert fam.meta["base_size"] == 6
        assert len(fam) >= 2  # ceil((4-1)!/2^2)
        for p, q in itertools.combinations(fam.members, 2):
            assert is_crossing(p, q) is not None

    def test_n4_degenerates_gracefully(self):
        fam = bipartite_crossing_family(4, mode="exact")
        assert len(fam) == 1

    def test_crossing_witnesses_lie_in_a_side(self):
        n = 10
        fam = bipartite_crossing_family(n, mode="exact")
        for p, q in itertools.combinations(fam.members, 2):
            w = is_crossing(p, q)
            assert w is not None and w.payload <= n // 2

    def test_pigeonhole_on_last_elements(self):
        n = 10
        fam = bipartite_crossing_family(n, mode="exact")
        m = n // 2
        assert len(fam) * m >= fam.meta["base_size"]


class TestKernelCycleFamily:
    def test_n4(self):
        fam = kernel_cycle_family(4, (1, 2))
        assert len(fam) == 2
        assert {c.seq for c in fam.members} == {(1, 2, 3, 4), (1, 2, 4, 3)}

    def test_n5(self):
        assert len(kernel_cycle_family(5, (1, 2))) == 6  # (n-2)!

    def test_n3_triangle(self):
        fam = kernel_cycle_family(3, (1, 3))
        assert len(fam) == 1

    def test_matches_filtering_all_cycles(self):
        # independent route: enumerate every Hamilton cycle of K_4 and filter
        from sepham.universes import hamilton_cycles

        edge = (1, 2)
        expected = {
            c for c in hamilton_cycles(4) if tuple(sorted(edge)) in cycle_edges(c)
        }
        fam = kernel_cycle_family(4, edge)
        assert {c.seq for c in fam.members} == expected

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_all_pairs_share_the_edge(self, n):
        fam = kernel_cycle_family(n, (1, 2))
        assert len(fam) == factorial(n - 2)
        for c, d in itertools.combinations(fam.members, 2):
            assert (1, 2) in cycle_edges(c.seq) & cycle_edges(d.seq)

    def test_bad_edge(self):
        with pytest.raises(BadEdge):
            kernel_cycle_family(5, (2, 2))
        with pytest.raises(BadEdge):
            kernel_cycle_family(5, (1, 6))

    def test_output_cap(self, monkeypatch):
        monkeypatch.setattr(constructions, "DEFAULT_FAMILY_CAP", 1000)
        with pytest.raises(CapExceeded):
            kernel_cycle_family(12, (1, 2))


class TestWalecki:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_edge_partition(self, n):
        cycles = walecki_decomposition(n)
        assert len(cycles) == (n - 1) // 2
        seen = set()
        for c in cycles:
            edges = cycle_edges(c.seq)
            assert len(edges) == n
            assert not seen & edges
            seen |= edges
        assert len(seen) == n * (n - 1) // 2

    def test_n3_is_the_triangle(self):
        cycles = walecki_decomposition(3)
        assert [c.seq for c in cycles] == [(1, 2, 3)]

    def test_even_n_rejected(self):
        with pytest.raises(EvenN):
            walecki_decomposition(6)


class TestFamily:
    def test_rejects_duplicates(self):
        c = canonical_cycle((1, 2, 3, 4))
        with pytest.raises(ValueError):
            Family(n=4, kind="cycles", members=(c, c))

    def test_rejects_member_of_another_size(self):
        with pytest.raises(SizeMismatch):
            Family(n=4, kind="cycles", members=(canonical_cycle((1, 2, 3, 4, 5)),))

    def test_is_the_core_type(self):
        assert Family is core.Family
