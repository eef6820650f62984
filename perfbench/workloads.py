"""The benchmark's workloads: seeded inputs, the calls a pass makes, output checks.

Each workload is a closed loop with one caller: a pass makes its calls one
after another, each starting when the previous one has returned.  Calls look
sepham functions up through their modules at call time, so that the traced
run's wrappers see them.  Checks run after the timed passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Tuple

from sepham import bounds, cli, constructions, core, greedy, oracle, relations, structure, universes

#: quantity -> (universe, relation); mirrors the oracle's own table.
QUANTITIES = {
    "Q": ("paths", "crossing"),
    "B": ("bipartite-paths", "crossing"),
    "R": ("permutations", "two-separated"),
    "Mcy": ("cycles", "shared-edge"),
}

#: Per-instance search limit on the frontier.  Both incumbents are found in
#: under 0.5 s on a 2-core VM, so the reported best values do not depend
#: on machine speed; the search then runs to this limit.
FRONTIER_LIMIT_S = 5.0


@dataclass
class Call:
    name: str
    run: Callable[[], object]
    seeded: bool = False  # the output depends on the workload seed


@dataclass
class Record:
    call: Call
    result: object
    seconds: float
    error: bool = False


Pass = List[Record]


# -- checks shared by the workloads -------------------------------------------


def _shared_edge_witness(a, b):
    shares, has_degree3, w = relations.cycles_degree3_equiv(a, b)
    return w if shares and has_degree3 else None


WITNESS = {
    "crossing": relations.is_crossing,
    "two-separated": relations.is_two_separated,
    "value-separated": relations.is_value_separated,
    "shared-edge": _shared_edge_witness,
}


def unwitnessed_pairs(seqs, relation: str) -> int:
    """Pairs without a witness that re-verifies against the raw definition."""
    find = WITNESS[relation]
    bad = 0
    for a, b in itertools.combinations(seqs, 2):
        w = find(a, b)
        if w is None or not relations.verify_witness(a, b, w):
            bad += 1
    return bad


def sandwich(quantity: str, n: int) -> Tuple:
    """The closed-form (lower, upper) bounds the oracle's value must lie in."""
    rec = bounds.eval_bounds(n)
    if quantity in ("Q", "B"):
        return rec.q_lower_new, rec.q_upper_kmm
    if quantity == "R":
        return rec.r_lower, rec.r_upper
    return rec.mcy_lower, rec.mcy_lower if n % 2 else rec.mcy_upper_even


def check_oracle_result(res, quantity: str, n: int) -> List[str]:
    universe, relation = QUANTITIES[quantity]
    fails = []
    seqs = res.witness.seqs()
    if len(seqs) != res.value:
        fails.append(f"witness has {len(seqs)} members, value is {res.value}")
    enum, _ = universes.get_universe(universe)
    if not set(seqs) <= set(enum(n)):
        fails.append(f"witness members outside the {universe} universe")
    bad = unwitnessed_pairs(seqs, relation)
    if bad:
        fails.append(f"{bad} witness pairs fail {relation}")
    lower, upper = sandwich(quantity, n)
    if not lower <= res.value <= upper:
        fails.append(f"value {res.value} outside [{lower}, {upper}]")
    return fails


def run_cli(argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def digest(result) -> str:
    """Stable fingerprint of a call's output, to compare passes and seeds."""
    if isinstance(result, oracle.OracleResult):
        key = (result.value, result.status, result.witness.seqs())
    elif isinstance(result, constructions.Family):
        key = result.seqs()
    elif isinstance(result, bounds.InequalityReport):
        key = (result.ok, len(result.entries))
    else:
        key = result
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _oracle_call(quantity: str, n: int, time_limit=None) -> Callable:
    return lambda: oracle.oracle_quantity(quantity, n, time_limit=time_limit)


def _median_over(passes: List[Pass], name: str) -> float:
    return median(r.seconds for p in passes for r in p if r.call.name == name)


# -- workloads ----------------------------------------------------------------


class OracleExact:
    """Exact oracle values: enumeration, all-pairs build, clique search to proof."""

    name = "oracle-exact"
    CASES = (("Q", 6, 7), ("B", 8, 8), ("R", 5, 4), ("Mcy", 6, 24))

    def calls(self, rng: random.Random, workdir: Path) -> List[Call]:
        calls = [Call(f"{q}{n}", _oracle_call(q, n)) for q, n, _ in self.CASES]
        rng.shuffle(calls)
        return calls

    def check(self, last: Pass) -> Dict[str, List[str]]:
        out = {}
        for q, n, known in self.CASES:
            res = _result(last, f"{q}{n}")
            fails = check_oracle_result(res, q, n)
            if res.value != known or res.status != oracle.STATUS_EXACT:
                fails.append(f"{q}({n}) = {res.value} ({res.status}), expected {known} exact")
            out[f"{q}{n}"] = fails
        return out

    def members(self, last: Pass) -> int:
        return sum(r.result.value for r in last)

    def report(self, passes: List[Pass]) -> Dict[str, Tuple[float, str]]:
        return {f"proof_s.{q}{n}": (_median_over(passes, f"{q}{n}"), "s") for q, n, _ in self.CASES}

    def deterministic(self, last: Pass) -> Dict[str, int]:
        return {}


class Frontier:
    """R(6) and Mcy(7): the search runs to its time limit with a fixed incumbent."""

    name = "frontier"
    #: (quantity, n, the incumbent the search reaches today well within the limit)
    CASES = (("R", 6, 10), ("Mcy", 7, 120))

    def calls(self, rng: random.Random, workdir: Path) -> List[Call]:
        calls = [Call(f"{q}{n}", _oracle_call(q, n, FRONTIER_LIMIT_S)) for q, n, _ in self.CASES]
        rng.shuffle(calls)
        return calls

    def check(self, last: Pass) -> Dict[str, List[str]]:
        out = {}
        for q, n, incumbent in self.CASES:
            res = _result(last, f"{q}{n}")
            fails = check_oracle_result(res, q, n)
            if res.value < incumbent:
                fails.append(f"{q}({n}) best {res.value}, below the incumbent {incumbent}")
            out[f"{q}{n}"] = fails
        return out

    def members(self, last: Pass) -> int:
        return sum(r.result.value for r in last)

    def deterministic(self, last: Pass) -> Dict[str, int]:
        proved = gap = 0
        for q, n, _ in self.CASES:
            res = _result(last, f"{q}{n}")
            if res.status == oracle.STATUS_EXACT:
                proved += 1
                upper = res.value
            else:
                upper = sandwich(q, n)[1]
            gap += upper - res.value
        return {"frontier.proved": proved, "frontier.gap": int(gap)}

    def report(self, passes: List[Pass]) -> Dict[str, Tuple[float, str]]:
        det = self.deterministic(passes[-1])
        return {name: (value, "count") for name, value in det.items()}


class Families:
    """Greedy elimination (early-exit negatives) and file verification (all positives)."""

    name = "families"
    #: (universe, relation, n, lex family size or None for a seeded shuffle):
    #: three lex-order runs at n=8, whose first-fit families have fixed sizes,
    #: and one shuffle small enough that its seed barely changes its cost.
    GREEDY = (
        ("paths", "crossing", 8, 33),
        ("permutations", "two-separated", 8, 95),
        ("cycles", "shared-edge", 8, 720),
        ("permutations", "two-separated", 7, None),
    )
    BIPARTITE_N = 12
    KERNEL_N = 8
    INEQUALITY_NS = range(6, 201)
    INCOMPATIBLE_N = 9

    def calls(self, rng: random.Random, workdir: Path) -> List[Call]:
        self.greedy_specs = {}
        jobs = []
        for u, rel, n, size in self.GREEDY:
            shuffled = size is None
            name = f"greedy {'shuffle' if shuffled else 'lex'} {u} {rel} n={n}"
            seed = rng.randrange(2 ** 31) if shuffled else None
            self.greedy_specs[name] = (u, rel, n, size)
            jobs.append([Call(name, self._greedy(u, rel, n, seed), seeded=shuffled)])
        self.bipartite_file = workdir / "bipartite-crossing.txt"
        jobs.append(self._construct_verify(
            "bipartite-crossing",
            ["--which", "bipartite-crossing", "--n", str(self.BIPARTITE_N)],
            "crossing", self.bipartite_file, seeded=False))
        self.edge = tuple(sorted(rng.sample(range(1, self.KERNEL_N + 1), 2)))
        self.kernel_file = workdir / "kernel-cycles.txt"
        jobs.append(self._construct_verify(
            "kernel-cycles",
            ["--which", "kernel-cycles", "--n", str(self.KERNEL_N),
             "--edge", "{},{}".format(*self.edge)],
            "shared-edge", self.kernel_file, seeded=True))
        jobs.append([Call("check_inequalities",
                          lambda: bounds.check_inequalities(self.INEQUALITY_NS))])
        jobs.append([Call("count_incompatible",
                          lambda: structure.count_incompatible(self.INCOMPATIBLE_N))])
        rng.shuffle(jobs)
        return [c for job in jobs for c in job]

    @staticmethod
    def _greedy(universe, relation, n, seed=None) -> Callable:
        cfg = greedy.GreedyConfig(universe=universe, relation=relation, n=n,
                                  order="lex" if seed is None else "shuffle", seed=seed)
        return lambda: greedy.greedy_family(cfg)

    @staticmethod
    def _construct_verify(which, args, relation, path, seeded) -> List[Call]:
        construct = ["construct", *args, "--out", str(path)]
        verify = ["verify", "--relation", relation, "--family", str(path)]
        return [Call(f"construct {which}", lambda: run_cli(construct), seeded),
                Call(f"verify {which}", lambda: run_cli(verify), seeded)]

    def _family_file(self, path: Path):
        text = path.read_text()
        return text, cli.parse_family(text)

    def check(self, last: Pass) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for name, (u, rel, n, size) in self.greedy_specs.items():
            fam = _result(last, name)
            fails = []
            if fam.kind != universes.get_universe(u)[1] or fam.n != n:
                fails.append(f"family of kind {fam.kind} n={fam.n}")
            if size is not None and len(fam) != size:
                fails.append(f"{len(fam)} members, lex greedy gives {size}")
            if u == "cycles":
                # every lex-first cycle contains edge (1, 2); pairwise sharing follows
                if fam.seqs() != constructions.kernel_cycle_family(n, (1, 2)).seqs():
                    fails.append("lex greedy cycles differ from the (1,2) kernel")
            elif unwitnessed_pairs(fam.seqs(), rel):
                fails.append(f"greedy family is not pairwise {rel}")
            out[name] = fails

        for which, path, relation in (("bipartite-crossing", self.bipartite_file, "crossing"),
                                      ("kernel-cycles", self.kernel_file, "shared-edge")):
            code, _ = _result(last, f"construct {which}")
            text, fam = self._family_file(path)
            fails = [] if code == 0 else [f"construct exit {code}"]
            if cli.serialize_family(fam) != text:
                fails.append("family file does not round-trip byte-identically")
            if which == "bipartite-crossing":
                if len(fam) < 15:
                    fails.append(f"{len(fam)} members, expected >= 15")
                if unwitnessed_pairs(fam.seqs(), relation):
                    fails.append("bipartite family is not pairwise crossing")
            else:
                if len(fam) != factorial(self.KERNEL_N - 2):
                    fails.append(f"{len(fam)} members, expected {factorial(self.KERNEL_N - 2)}")
                if not all(self.edge in core.cycle_edges(s) for s in fam.seqs()):
                    fails.append(f"a kernel cycle misses edge {self.edge}")
            out[f"construct {which}"] = fails
            code, text = _result(last, f"verify {which}")
            k = len(fam)
            expected = f"OK: {k} members, {k * (k - 1) // 2} pairs verified\n"
            out[f"verify {which}"] = [] if code == 0 and text == expected else [
                f"verify exit {code}: {text.strip()!r}"]

        report = _result(last, "check_inequalities")
        out["check_inequalities"] = [] if report.ok else [f"failed at {report.first_failure()}"]
        count = _result(last, "count_incompatible")
        ident = tuple(range(1, self.INCOMPATIBLE_N + 1))
        independent = sum(
            1 for p in itertools.permutations(ident) if relations.is_two_separated(ident, p) is None
        )
        out["count_incompatible"] = [] if count == independent else [
            f"count_incompatible = {count}, independent count {independent}"]
        return out

    def members(self, last: Pass) -> int:
        total = sum(len(r.result) for r in last if r.call.name.startswith("greedy"))
        return total + sum(len(self._family_file(p)[1]) for p in (self.bipartite_file, self.kernel_file))

    def deterministic(self, last: Pass) -> Dict[str, int]:
        lex = (name for name in self.greedy_specs if name.startswith("greedy lex"))
        return {"greedy.admitted": sum(len(_result(last, name)) for name in lex)}

    def report(self, passes: List[Pass]) -> Dict[str, Tuple[float, str]]:
        cand, greedy_s, pairs, verify_s = [], [], [], []
        for p in passes:
            g = [r for r in p if r.call.name.startswith("greedy")]
            cand.append(sum(universes.universe_size(u, n) for u, _, n, _ in
                            (self.greedy_specs[r.call.name] for r in g)))
            greedy_s.append(sum(r.seconds for r in g))
            v = [r for r in p if r.call.name.startswith("verify")]
            pairs.append(sum(_verified_pairs(r.result[1]) for r in v))
            verify_s.append(sum(r.seconds for r in v))
        return {
            "greedy.candidates_per_s": (median(c / s for c, s in zip(cand, greedy_s)), "1/s"),
            "verify.pairs_per_s": (median(k / s for k, s in zip(pairs, verify_s)), "1/s"),
            "construct_s.bipartite-crossing-12": (
                _median_over(passes, "construct bipartite-crossing"), "s"),
        }


def _verified_pairs(text: str) -> int:
    # "OK: <k> members, <pairs> pairs verified"
    return int(text.split()[3])


def _result(p: Pass, name: str):
    for r in p:
        if r.call.name == name:
            return r.result
    raise KeyError(name)


WORKLOADS = {w.name: w for w in (OracleExact(), Frontier(), Families())}


# -- relation micro-sweep -----------------------------------------------------

#: relation -> (universe kind, n) it is swept on.
SWEEP = {
    "crossing": ("paths", 8),
    "two-separated": ("permutations", 8),
    "shared-edge": ("cycles", 8),
    "value-separated": ("permutations", 6),
}
SWEEP_PAIRS = 2000  # pairs in the natural mix
SWEEP_CLASS = 400  # positives and negatives each
SWEEP_MAX_DRAWS = 200_000
SWEEP_REPEATS = 21

_CANONICAL = {
    "paths": lambda s: core.HamiltonPath(s).seq,
    "cycles": lambda s: core.HamiltonCycle(s).seq,
    "permutations": lambda s: s,
}


def sample_pairs(rng: random.Random, relation: str):
    """Seeded random pairs of distinct members: (natural mix, positives, negatives)."""
    kind, n = SWEEP[relation]
    canon = _CANONICAL[kind]
    holds = relations.RELATIONS[relation]
    ground = list(range(1, n + 1))

    def member():
        rng.shuffle(ground)
        return canon(tuple(ground))

    mix, pos, neg = [], [], []
    for _ in range(SWEEP_MAX_DRAWS):
        a, b = member(), member()
        if a == b:
            continue
        if len(mix) < SWEEP_PAIRS:
            mix.append((a, b))
        (pos if holds(a, b) else neg).append((a, b))
        if len(mix) >= SWEEP_PAIRS and len(pos) >= SWEEP_CLASS and len(neg) >= SWEEP_CLASS:
            break
    return mix, pos[:SWEEP_CLASS], neg[:SWEEP_CLASS]


def relation_sweep(rng: random.Random, clock: Callable[[], float]) -> Dict[str, float]:
    """Microseconds per pair for each relation, over a mix, positives and negatives.

    The three samples are timed in turn within each repeat, so that a change in
    machine speed during the sweep affects them alike.
    """
    out = {}
    for relation in SWEEP:
        holds = relations.RELATIONS[relation]
        samples = dict(zip(("pair_us", "pos_us", "neg_us"), sample_pairs(rng, relation)))
        times: Dict[str, List[float]] = {label: [] for label in samples}
        for _ in range(SWEEP_REPEATS):
            for label, pairs in samples.items():
                t0 = clock()
                for a, b in pairs:
                    holds(a, b)
                times[label].append((clock() - t0) / len(pairs) * 1e6)
        for label, us in times.items():
            out[f"relations.{relation}.{label}"] = median(us)
    return out
