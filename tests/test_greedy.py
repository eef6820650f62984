import itertools

import pytest

from sepham import greedy
from sepham.errors import CapExceeded, DomainError, UnknownRelation, UnknownUniverse
from sepham.greedy import GreedyConfig, greedy_family
from sepham.oracle import oracle_quantity
from sepham.relations import RELATIONS
from sepham.structure import count_incompatible

# frozen sizes of the lexicographic greedy pass
LEX_GREEDY_SIZES = {
    ("cycles", "shared-edge", 5): 6,
    ("permutations", "two-separated", 5): 4,
    ("permutations", "two-separated", 6): 6,
    ("paths", "crossing", 5): 3,
    ("paths", "crossing", 6): 5,
}


def test_empty_relation_gives_singleton():
    cfg = GreedyConfig(universe="permutations", relation="two-separated", n=4)
    assert len(greedy_family(cfg)) == 1


@pytest.mark.parametrize("key,expected", sorted(LEX_GREEDY_SIZES.items()))
def test_frozen_lex_sizes(key, expected):
    universe, relation, n = key
    fam = greedy_family(GreedyConfig(universe=universe, relation=relation, n=n))
    assert len(fam) == expected


def test_output_is_valid_and_maximal():
    cfg = GreedyConfig(universe="permutations", relation="two-separated", n=5)
    fam = greedy_family(cfg)
    rel = RELATIONS["two-separated"]
    members = fam.seqs()
    for a, b in itertools.combinations(members, 2):
        assert rel(a, b)
    member_set = set(members)
    for p in itertools.permutations(range(1, 6)):
        if p not in member_set:
            assert any(not rel(p, q) for q in members)


def test_counting_lower_bound_law():
    # greedy eliminates at most count_incompatible(n) permutations per pick
    for n in (5, 6):
        cfg = GreedyConfig(universe="permutations", relation="two-separated", n=n)
        fam = greedy_family(cfg)
        import math

        assert len(fam) * count_incompatible(n) >= math.factorial(n)


def test_greedy_never_beats_oracle():
    for universe, relation, quantity, n in [
        ("permutations", "two-separated", "R", 5),
        ("cycles", "shared-edge", "Mcy", 5),
        ("paths", "crossing", "Q", 5),
    ]:
        fam = greedy_family(GreedyConfig(universe=universe, relation=relation, n=n))
        assert len(fam) <= oracle_quantity(quantity, n).value


def test_shuffle_determinism():
    cfg = GreedyConfig(
        universe="permutations", relation="two-separated", n=5, order="shuffle", seed=42
    )
    fam1 = greedy_family(cfg)
    fam2 = greedy_family(cfg)
    assert fam1.seqs() == fam2.seqs()
    assert fam1.meta["seed"] == 42


def test_shuffle_requires_seed():
    cfg = GreedyConfig(
        universe="permutations", relation="two-separated", n=5, order="shuffle"
    )
    with pytest.raises(ValueError):
        greedy_family(cfg)


def test_unknown_names():
    with pytest.raises(UnknownRelation):
        greedy_family(GreedyConfig(universe="permutations", relation="nope", n=4))
    with pytest.raises(UnknownUniverse):
        greedy_family(GreedyConfig(universe="nope", relation="crossing", n=4))


def test_relation_of_another_kind():
    for universe, relation in [("cycles", "crossing"), ("paths", "shared-edge")]:
        with pytest.raises(DomainError, match="does not apply to kind="):
            greedy_family(GreedyConfig(universe=universe, relation=relation, n=5))


def test_predicate_is_read_from_the_module_table_at_call_time(monkeypatch):
    # a benchmark counts relation calls by replacing greedy.RELATIONS
    calls = []

    def counted(fn):
        def wrapper(a, b):
            calls.append(1)
            return fn(a, b)

        return wrapper

    monkeypatch.setattr(greedy, "RELATIONS", {k: counted(f) for k, f in RELATIONS.items()})
    fam = greedy_family(GreedyConfig(universe="permutations", relation="two-separated", n=5))
    assert len(fam) == 4 and len(calls) > 0


def test_universe_cap(monkeypatch):
    monkeypatch.setattr(greedy, "DEFAULT_UNIVERSE_CAP", 1000)
    cfg = GreedyConfig(universe="permutations", relation="two-separated", n=8)
    with pytest.raises(CapExceeded):
        greedy_family(cfg)
