import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepham.core import Permutation
from sepham.errors import CapExceeded, PositionOutOfRange
from sepham.relations import is_two_separated
from sepham.structure import (
    close_enough_follower,
    constrained_closeness_holds,
    count_incompatible,
    incompatible_with_identity,
    property_uno_holds,
    run_structure,
    standardize_against,
)

# frozen brute-force counts of permutations incompatible with the identity
INCOMPATIBLE_COUNTS = {4: 24, 5: 89, 6: 304, 7: 936}


class TestPropertyUno:
    def test_identity_holds(self):
        assert property_uno_holds((1, 2, 3, 4, 5)) == (True, None)

    def test_large_values_skipped(self):
        assert property_uno_holds((1, 4, 2, 3)) == (True, None)

    def test_failure_reports_first_bad_position(self):
        holds, j = property_uno_holds((3, 1, 2, 4, 5))
        assert not holds and j == 1


class TestCloseEnoughFollower:
    def test_identity_both(self):
        # in the identity, position j+1 carries value+1 and j+2 carries value+2
        assert close_enough_follower((1, 2, 3, 4), 1) == "both"

    def test_second(self):
        assert close_enough_follower((1, 4, 2, 3), 1) == "second"

    def test_neither(self):
        assert close_enough_follower((3, 1, 2, 4), 1) == "neither"

    def test_first_only(self):
        assert close_enough_follower((1, 2, 4, 3), 1) == "first"

    def test_both(self):
        assert close_enough_follower((1, 3, 2, 4), 1) == "both"

    def test_out_of_range(self):
        with pytest.raises(PositionOutOfRange):
            close_enough_follower((1, 2, 3, 4), 3)


class TestRunStructure:
    def test_single_run_example(self):
        rs = run_structure((2, 6, 4, 1, 3, 5))
        assert rs.runs == ((1, 4),)
        assert rs.free_positions == frozenset({1, 2, 3, 4})
        assert rs.constrained_positions == frozenset({5, 6})

    def test_identity_has_no_runs(self):
        n = 6
        rs = run_structure(tuple(range(1, n + 1)))
        assert rs.runs == ()
        assert rs.free_positions == frozenset({1, n})

    def test_partition_is_exact(self):
        rs = run_structure((4, 1, 6, 3, 5, 2, 7))
        assert rs.free_positions | rs.constrained_positions == frozenset(range(1, 8))
        assert not rs.free_positions & rs.constrained_positions

    @given(st.permutations(list(range(1, 8))))
    def test_runs_are_maximal(self, seq):
        seq = tuple(seq)
        rs = run_structure(seq)
        head_small = {-2, -1, 1, 2, 3}
        cont_small = {-1, 1, 2}
        for head, length in rs.runs:
            last = head + length - 1
            assert length >= 2
            assert seq[head] - seq[head - 1] not in head_small
            for k in range(head + 1, last):
                assert seq[k] - seq[k - 1] not in cont_small
            # not extendable to the right
            if last < len(seq):
                assert seq[last] - seq[last - 1] in cont_small
            # not extendable to the left: the head difference launching at
            # head-1 would need to be a big jump
            if head > 1:
                assert seq[head - 1] - seq[head - 2] in head_small

    def test_constrained_closeness_on_incompatible_perms(self):
        for n in (5, 6):
            for p in itertools.permutations(range(1, n + 1)):
                if not incompatible_with_identity(p):
                    continue
                rs = run_structure(p)
                for j in sorted(rs.constrained_positions):
                    assert constrained_closeness_holds(p, j), (p, j)


class TestCountIncompatible:
    def test_n4_all_pairs_incompatible(self):
        assert count_incompatible(4) == 24

    @pytest.mark.parametrize("n,expected", sorted(INCOMPATIBLE_COUNTS.items()))
    def test_frozen_counts(self, n, expected):
        assert count_incompatible(n) == expected

    def test_matches_relation_based_count(self):
        # independent route: the witness-returning relation, not the closeness property
        for n in range(2, 9):
            ident = tuple(range(1, n + 1))
            by_relation = sum(
                1
                for p in itertools.permutations(ident)
                if is_two_separated(ident, p) is None
            )
            assert by_relation == count_incompatible(n), n

    def test_cap(self):
        with pytest.raises(CapExceeded):
            count_incompatible(10)


class TestStandardize:
    @given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
    def test_reduction_to_identity_base(self, p, base):
        p, base = Permutation(tuple(p)), Permutation(tuple(base))
        std = standardize_against(p, base)
        ident = tuple(range(1, 7))
        assert (is_two_separated(base, p) is None) == (
            is_two_separated(ident, std) is None
        )

    def test_base_maps_to_identity(self):
        base = Permutation((3, 1, 4, 2))
        assert standardize_against(base, base).seq == (1, 2, 3, 4)
