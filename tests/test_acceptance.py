"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import time
from collections import defaultdict
from math import comb, factorial

import pytest

from sepham.bounds import check_inequalities
from sepham.constructions import (
    bipartite_crossing_family,
    kernel_cycle_family,
    two_diff_family,
    walecki_decomposition,
)
from sepham.core import couple_order, cycle_edges
from sepham.greedy import GreedyConfig, greedy_family
from sepham.oracle import STATUS_EXACT, oracle_quantity
from sepham.relations import (
    RELATIONS,
    cycles_degree3_equiv,
    is_crossing,
    is_two_separated,
    verify_witness,
)
from sepham.structure import (
    count_incompatible,
    incompatible_with_identity,
    property_uno_holds,
    run_structure,
)
from sepham.universes import hamilton_cycles

R6_TIME_BUDGET = 30.0  # seconds; the criterion allows up to 10 minutes


def test_criterion_1_crossing_pipeline_n12():
    t0 = time.monotonic()
    fam = bipartite_crossing_family(12, mode="exact")
    elapsed = time.monotonic() - t0
    bound = factorial(6 - 1) // 2 ** 3  # (floor(n/2)-1)!/2^floor(n/4)
    assert len(fam) >= 15 == bound
    pairs = 0
    for p, q in itertools.combinations(fam.members, 2):
        w = is_crossing(p, q)
        assert w is not None and verify_witness(p, q, w)
        pairs += 1
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 1: {len(fam)} pairwise-crossing paths at n=12 "
        f"({pairs} pairs verified, {elapsed:.1f}s)"
    )


def test_criterion_2_value_separated_cardinalities():
    t0 = time.monotonic()
    sizes = {}
    for m in (2, 3, 4, 5, 6):
        fam = two_diff_family(m, mode="exact")
        assert fam.meta["status"] == STATUS_EXACT
        sizes[m] = len(fam)
    expected = {m: factorial(m) // 2 ** (m // 2) for m in sizes}
    assert sizes == expected == {2: 1, 3: 3, 4: 6, 5: 30, 6: 90}
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"\nPASS criterion 2: exact sizes {sizes} ({elapsed:.1f}s)")


@pytest.mark.parametrize("n", [5, 6])
def test_criterion_3_couple_order_classes(n):
    classes = defaultdict(list)
    for p in itertools.permutations(range(1, n + 1)):
        classes[couple_order(p).couples].append(p)
    assert len(classes) == factorial(n) // 2 ** (n // 2)
    violations = pairs = 0
    for members in classes.values():
        assert len(members) == 2 ** (n // 2)
        for a, b in itertools.combinations(members, 2):
            pairs += 1
            if is_two_separated(a, b) is not None:
                violations += 1
    assert violations == 0
    print(
        f"\nPASS criterion 3 (n={n}): {len(classes)} classes, "
        f"{pairs} in-class pairs, zero two-separated"
    )


def test_criterion_4_exact_sandwich_for_r():
    assert oracle_quantity("R", 4).value == 1
    r5 = oracle_quantity("R", 5)
    assert r5.status == STATUS_EXACT and r5.value <= 30
    r6 = oracle_quantity("R", 6, time_limit=R6_TIME_BUDGET)
    assert r6.status == STATUS_EXACT and r6.value == 10
    rel = RELATIONS["two-separated"]
    for a, b in itertools.combinations(r6.witness.seqs(), 2):
        assert rel(a, b)
    print(
        f"\nPASS criterion 4: R(4)=1, R(5)={r5.value} (exact), "
        f"R(6)={r6.value} ({r6.status})"
    )


def test_criterion_5_structure_properties_up_to_n8():
    t0 = time.monotonic()
    checked = 0
    for n in range(3, 9):
        ident = tuple(range(1, n + 1))
        for p in itertools.permutations(ident):
            incompatible = is_two_separated(ident, p) is None
            holds, _ = property_uno_holds(p)
            assert holds == incompatible, f"(a) fails at {p}"
            if not incompatible:
                continue
            checked += 1
            rs = run_structure(p)
            r = rs.num_runs
            assert r <= 3, f"(b) fails at {p}"
            for head, length in rs.runs:
                values = set(p[head - 1 : head + length - 1])
                if n not in values and n - 1 not in values:
                    assert head + length - 1 == n, f"(c) fails at {p}"
            assert len(rs.free_positions) <= r + 5, f"(d) fails at {p}"
            for j in rs.constrained_positions:
                from sepham.structure import constrained_closeness_holds

                assert constrained_closeness_holds(p, j), f"(e) fails at {p}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(
        f"\nPASS criterion 5: properties (a)-(e) hold for all {checked} incompatible "
        f"permutations, n <= 8 ({elapsed:.1f}s)"
    )


def test_criterion_6_counting_bound():
    results = {}
    for n in (8, 9):
        count = count_incompatible(n)
        bound = 4 * comb(n - 1, 5) * n ** 8 * 5 ** (n - 8)
        assert count <= bound
        results[n] = (count, bound)
    print(
        "\nPASS criterion 6: "
        + ", ".join(f"count({n})={c} <= {b}" for n, (c, b) in results.items())
    )


def test_criterion_7_kernel_families_and_mcy():
    for n in (4, 5, 6, 7):
        fam = kernel_cycle_family(n, (1, 2))
        assert len(fam) == factorial(n - 2)
        for c, d in itertools.combinations(fam.members, 2):
            assert (1, 2) in cycle_edges(c.seq) & cycle_edges(d.seq)
    mcy5 = oracle_quantity("Mcy", 5)
    assert mcy5.value == 6 and mcy5.status == STATUS_EXACT
    mcy4 = oracle_quantity("Mcy", 4)
    assert mcy4.value <= 3 == (4 - 1) * factorial(4 - 3)
    print(
        f"\nPASS criterion 7: kernel sizes (n-2)! for n=4..7, "
        f"Mcy(5)={mcy5.value}, Mcy(4)={mcy4.value} <= 3"
    )


def test_criterion_8_degree3_equivalence():
    for n in (5, 6):
        cycles = list(hamilton_cycles(n))
        pairs = 0
        for c, d in itertools.combinations(cycles, 2):
            shares, deg3, _ = cycles_degree3_equiv(c, d)
            assert shares == deg3
            pairs += 1
        if n == 5:
            assert pairs == 66
    print("\nPASS criterion 8: shared-edge <=> degree-3 for all pairs, n=5 and 6")


def test_criterion_9_walecki_partition():
    for n in range(3, 14, 2):
        cycles = walecki_decomposition(n)
        assert len(cycles) == (n - 1) // 2
        covered = set()
        for c in cycles:
            edges = cycle_edges(c.seq)
            assert not covered & edges
            covered |= edges
        assert len(covered) == n * (n - 1) // 2
    print("\nPASS criterion 9: Walecki edge partition for odd n = 3..13")


def test_criterion_10_bounds_ledger():
    report = check_inequalities(range(6, 31))
    assert report.ok, report.first_failure()
    for entry in report.entries:
        assert entry.checks["new_dominates_kmm"]
        assert entry.checks["incompat_le_total"]
    print("\nPASS criterion 10: all bound inequalities hold for n = 6..30")
