import functools
import itertools
import random
import time

import pytest

from sepham import oracle
from sepham.core import kind_class
from sepham.errors import CapExceeded, DomainError, SephamError
from sepham.oracle import (
    _QUANTITY_SPECS,
    STATUS_EXACT,
    STATUS_TIMEOUT,
    CompatibilityGraph,
    OrbitLookup,
    build_compatibility_graph,
    check_certificate,
    max_clique_exact,
    oracle_quantity,
)
from sepham.relations import RELATIONS, verify_witness
from sepham.universes import get_universe, hamilton_cycles, hamilton_paths, universe_size


@functools.lru_cache(maxsize=None)
def full_graph(quantity, n):
    """The quantity's compatibility graph on the whole universe, every pair evaluated."""
    universe, relation, _ = _QUANTITY_SPECS[quantity]
    enum, _ = get_universe(universe)
    return build_compatibility_graph(list(enum(n)), relation)


@functools.lru_cache(maxsize=None)
def full_graph_search(quantity, n):
    """The full graph and its exact search."""
    g = full_graph(quantity, n)
    return g, max_clique_exact(g)


class TestBuildGraph:
    def test_two_separated_on_n4_is_edgeless(self):
        perms = list(itertools.permutations(range(1, 5)))
        g = build_compatibility_graph(perms, "two-separated")
        assert g.num_vertices == 24
        assert all(row == 0 for row in g.adj)

    def test_shared_edge_cycles_k5(self):
        cycles = list(hamilton_cycles(5))
        g = build_compatibility_graph(cycles, "shared-edge")
        assert g.num_vertices == 12
        handshake = sum(g.degree(i) for i in range(12))
        assert handshake % 2 == 0
        # brute-force degree recount
        rel = RELATIONS["shared-edge"]
        for i, c in enumerate(cycles):
            assert g.degree(i) == sum(
                1 for d in cycles if d != c and rel(c, d)
            )

    def test_symmetric_and_loop_free(self):
        paths = list(hamilton_paths(5))
        g = build_compatibility_graph(paths, "crossing")
        assert g.num_vertices == 60
        for i in range(60):
            assert not g.adj[i] >> i & 1
            for j in range(60):
                assert (g.adj[i] >> j & 1) == (g.adj[j] >> i & 1)

    def test_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_VERTEX_CAP", 100)
        with pytest.raises(CapExceeded):
            build_compatibility_graph(
                list(itertools.permutations(range(1, 6))), "two-separated"
            )


class TestMaxClique:
    def test_edgeless(self):
        g = CompatibilityGraph(objects=[(1,)] * 5, adj=[0] * 5)
        value, witness, status = max_clique_exact(g)
        assert value == 1 and len(witness) == 1 and status == STATUS_EXACT

    def test_complete_graph(self):
        k = 7
        full = (1 << k) - 1
        g = CompatibilityGraph(
            objects=[(i,) for i in range(k)],
            adj=[full & ~(1 << i) for i in range(k)],
        )
        value, witness, status = max_clique_exact(g)
        assert value == k and sorted(witness) == list(range(k))

    def test_k5_shared_edge_cycles(self):
        g = build_compatibility_graph(list(hamilton_cycles(5)), "shared-edge")
        value, witness, status = max_clique_exact(g)
        assert value == 6 and status == STATUS_EXACT

    def test_witness_is_a_clique(self):
        g, (value, witness, status) = full_graph_search("Q", 6)
        assert status == STATUS_EXACT
        for i, j in itertools.combinations(witness, 2):
            assert g.adj[i] >> j & 1

    def test_timeout_degrades_to_lower_bound(self):
        g = build_compatibility_graph(
            list(itertools.permutations(range(1, 7))), "two-separated"
        )
        value, witness, status = max_clique_exact(g, time_limit=0.5)
        assert status in (STATUS_EXACT, STATUS_TIMEOUT)
        assert value >= len(witness) >= 1
        for i, j in itertools.combinations(witness, 2):
            assert g.adj[i] >> j & 1

    def test_deterministic_value(self):
        g = build_compatibility_graph(list(hamilton_paths(5)), "crossing")
        v1, w1, _ = max_clique_exact(g)
        v2, w2, _ = max_clique_exact(g)
        assert v1 == v2 and w1 == w2


class TestOracleQuantity:
    def test_q4(self):
        res = oracle_quantity("Q", 4)
        assert res.value == 1 and res.status == STATUS_EXACT

    def test_r4(self):
        assert oracle_quantity("R", 4).value == 1

    def test_mcy5_tight(self):
        res = oracle_quantity("Mcy", 5)
        assert res.value == 6 and res.status == STATUS_EXACT

    def test_r5(self):
        res = oracle_quantity("R", 5)
        assert res.status == STATUS_EXACT
        assert res.value == 4  # frozen from the 120-vertex clique search
        assert res.value <= 30  # n!/2^(n/2)

    def test_witness_passes_pairwise_verification(self):
        res = oracle_quantity("Mcy", 5)
        rel = RELATIONS["shared-edge"]
        seqs = res.witness.seqs()
        assert len(seqs) == res.value
        for a, b in itertools.combinations(seqs, 2):
            assert rel(a, b)

    def test_unknown_quantity(self):
        with pytest.raises(SephamError):
            oracle_quantity("X", 5)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            oracle_quantity("R", 9)

    def test_max_n_keeps_every_universe_within_the_vertex_cap(self):
        # max n is the oracle's one cap, so the graph build's cap never fires
        for universe, _, max_n in _QUANTITY_SPECS.values():
            assert universe_size(universe, max_n) <= oracle.DEFAULT_VERTEX_CAP

    def test_n_below_the_bounds_floor(self):
        for quantity in _QUANTITY_SPECS:
            with pytest.raises(DomainError):
                oracle_quantity(quantity, 2)
        with pytest.raises(DomainError):
            oracle_quantity("R", -1)


def _brute_force_clique_number(adj):
    # is_clique[s] for every vertex subset s, from s minus its lowest vertex
    is_clique = [True] * (1 << len(adj))
    best = 0
    for s in range(1, 1 << len(adj)):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        is_clique[s] = is_clique[rest] and adj[low] & rest == rest
        if is_clique[s]:
            best = max(best, bin(s).count("1"))
    return best


def test_max_clique_exact_matches_subset_enumeration():
    for seed in range(30):
        rng = random.Random(seed)
        nv = rng.randint(1, 14)
        density = rng.uniform(0.2, 0.8)
        adj = [0] * nv
        for i, j in itertools.combinations(range(nv), 2):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        g = CompatibilityGraph(objects=[(v,) for v in range(nv)], adj=adj)
        clique_number = _brute_force_clique_number(adj)
        # a proven upper bound may stop the search early, never change its value
        for upper in (None, clique_number):
            value, witness, status = max_clique_exact(g, upper=upper)
            assert status == STATUS_EXACT
            assert value == len(witness) == clique_number, f"seed {seed}"
            for i, j in itertools.combinations(witness, 2):
                assert adj[i] >> j & 1


#: Known values of the largest cases.
PINNED = {("Q", 6): 7, ("B", 8): 8, ("R", 5): 4, ("Mcy", 6): 24}


@pytest.mark.parametrize(
    "quantity,n",
    [("Q", n) for n in range(4, 7)]
    + [("B", n) for n in range(4, 9)]
    + [("R", n) for n in range(4, 6)]
    + [("Mcy", n) for n in range(5, 7)],
)
def test_neighbourhood_search_equals_full_graph_search(quantity, n):
    res = oracle_quantity(quantity, n)
    _, (value, _, status) = full_graph_search(quantity, n)
    assert res.status == status == STATUS_EXACT
    assert res.value == value == PINNED.get((quantity, n), value)
    universe, relation, _ = _QUANTITY_SPECS[quantity]
    seqs = res.witness.seqs()
    assert len(seqs) == res.value
    assert set(seqs) <= set(get_universe(universe)[0](n))
    for a, b in itertools.combinations(seqs, 2):
        w = RELATIONS[relation](a, b)
        assert w is not None and verify_witness(a, b, w)


#: The n checked per quantity.  Every _QUANTITY_SPECS entry needs one: the
#: oracle searches only the first member's neighbourhood, which is sound
#: only for a vertex-transitive compatibility graph.
SYMMETRY_NS = {"Q": range(4, 7), "B": range(4, 9), "R": range(4, 7), "Mcy": range(5, 8)}
ALL_PAIRS_MAX = 120
SAMPLED_PAIRS = 2000


def relabelling_generators(universe, n):
    """A transposition and a full cycle on [n] as maps of [n]; for the
    bipartite universe, the same on each side of the bipartition (S_A x S_B)."""
    if universe == "bipartite-paths":
        sides = [range(1, n // 2 + 1), range(n // 2 + 1, n + 1)]
    else:
        sides = [range(1, n + 1)]
    gens = []
    for side in sides:
        vs = list(side)
        for step in ({vs[0]: vs[1], vs[1]: vs[0]}, dict(zip(vs, vs[1:] + vs[:1]))):
            g = {v: v for v in range(1, n + 1)}
            g.update(step)
            gens.append(g)
    return gens


@pytest.mark.parametrize("quantity", sorted(_QUANTITY_SPECS))
def test_compatibility_graph_is_vertex_transitive(quantity):
    universe, relation, _ = _QUANTITY_SPECS[quantity]
    enum, kind = get_universe(universe)
    cls = kind_class(kind)
    related = RELATIONS[relation]
    for n in SYMMETRY_NS[quantity]:
        objects = list(enum(n))
        members = set(objects)
        images = [
            {o: cls(tuple(g[v] for v in o)).seq for o in objects}
            for g in relabelling_generators(universe, n)
        ]
        for image in images:
            assert set(image.values()) == members
        orbit, todo = {objects[0]}, [objects[0]]
        while todo:
            o = todo.pop()
            for image in images:
                if image[o] not in orbit:
                    orbit.add(image[o])
                    todo.append(image[o])
        assert orbit == members, f"{quantity}({n}): the first member's orbit is not the universe"
        if len(objects) <= ALL_PAIRS_MAX:
            pairs = itertools.combinations(objects, 2)
        else:
            rng = random.Random(n)
            pairs = (rng.sample(objects, 2) for _ in range(SAMPLED_PAIRS))
        for a, b in pairs:
            for image in images:
                assert bool(related(image[a], image[b])) == bool(related(a, b)), (
                    quantity, n, a, b)


def orbit_graph(quantity, n):
    """The quantity's graph on the whole universe, built by orbit lookup."""
    universe, relation, _ = _QUANTITY_SPECS[quantity]
    enum, kind = get_universe(universe)
    objects = list(enum(n))
    first = objects[0]
    related = frozenset(o for o in objects if RELATIONS[relation](first, o))
    return build_compatibility_graph(objects, relation, orbit=OrbitLookup(first, related, kind))


@pytest.mark.parametrize(
    "quantity,n",
    [(q, n) for q in ("Q", "R", "Mcy") for n in range(3, 7)] + [("B", n) for n in range(3, 8)],
)
def test_orbit_build_equals_the_finder_on_all_pairs(quantity, n):
    g = orbit_graph(quantity, n)
    assert g.objects == full_graph(quantity, n).objects
    assert g.adj == full_graph(quantity, n).adj


@pytest.mark.parametrize("quantity,n", [("B", 8), ("Mcy", 7)])
def test_orbit_build_equals_the_finder_on_sampled_pairs(quantity, n):
    g = orbit_graph(quantity, n)
    related = RELATIONS[_QUANTITY_SPECS[quantity][1]]
    rng = random.Random(n)
    for _ in range(SAMPLED_PAIRS):
        i, j = rng.sample(range(g.num_vertices), 2)
        assert bool(g.adj[i] >> j & 1) == bool(related(g.objects[i], g.objects[j]))


#: (quantity, n, time limit) -> (known value, certified bound if it is tight).
CERTIFIED = {
    ("Q", 6, None): (7, 7),
    ("B", 8, None): (8, 8),
    ("R", 5, None): (4, 4),
    ("R", 6, 0.5): (10, None),
    ("Mcy", 6, None): (24, None),
    ("Mcy", 7, None): (120, 120),
}


@functools.lru_cache(maxsize=None)
def certified(quantity, n, time_limit):
    return oracle_quantity(quantity, n, time_limit=time_limit)


class TestCertificate:
    @pytest.mark.parametrize("case", sorted(CERTIFIED, key=str))
    def test_bound(self, case):
        res = certified(*case)
        known, tight = CERTIFIED[case]
        assert res.upper >= known
        if tight is not None:
            assert res.upper == res.value == tight
        quantity, n, _ = case
        assert res.upper == universe_size(_QUANTITY_SPECS[quantity][0], n) // len(res.coclique)

    @pytest.mark.parametrize("case", [("Q", 6, None), ("R", 5, None), ("Mcy", 6, None)])
    def test_planted_related_pair_is_rejected(self, case):
        res = certified(*case)
        universe, relation, _ = _QUANTITY_SPECS[case[0]]
        size = universe_size(universe, case[1])
        clique, coclique = res.witness.seqs(), res.coclique
        check_certificate(relation, size, clique, coclique)
        a = coclique[0]
        planted = next(
            o for o in get_universe(universe)[0](case[1])
            if o not in coclique and RELATIONS[relation](a, o)
        )
        with pytest.raises(SephamError, match="coclique pair"):
            check_certificate(relation, size, clique, [a, planted] + coclique[2:])
        # both start at the first member, which no other coclique member is related to
        with pytest.raises(SephamError, match="clique pair"):
            check_certificate(relation, size, clique[:1] + coclique[1:2], coclique)
        with pytest.raises(SephamError, match="exceeds"):
            check_certificate(relation, len(clique) * len(coclique) - 1, clique, coclique)

    def test_coclique_is_sorted_members_with_the_first(self):
        for case in CERTIFIED:
            members = list(get_universe(_QUANTITY_SPECS[case[0]][0])[0](case[1]))
            coclique = certified(*case).coclique
            assert coclique == sorted(set(coclique)) and set(coclique) <= set(members)
            assert members[0] in coclique

    def test_mcy7_stops_at_the_bound(self):
        t0 = time.monotonic()
        res = oracle_quantity("Mcy", 7)
        elapsed = time.monotonic() - t0
        assert res.status == STATUS_EXACT and res.value == res.upper == 120
        assert elapsed < 5.0, f"Mcy(7) took {elapsed:.1f}s"
