"""Spans around sepham's layer boundaries, recorded from outside the package.

The traced run replaces module attributes with timing wrappers.  sepham looks
these attributes up at call time (``oracle_quantity`` calls
``build_compatibility_graph`` through its module globals, ``cli`` calls
``greedy.greedy_family`` through the module, and so on), so its internal calls
are traced without editing it.  Spans stay in memory until the run ends.

Enumeration is too fine-grained for a span per member: each ``next()`` on a
universe iterator is timed as *leaf* work and charged to the enclosing span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional

from sepham import cli, constructions, greedy, oracle, relations, structure, universes
from sepham import bounds as bounds_mod

perf_counter = time.perf_counter

ENUM = "universes.enum"
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    pass_index: int
    start: float = 0.0
    end: float = 0.0
    inner: float = 0.0  # time covered by child spans and leaf work
    attrs: Dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.inner


class Tracer:
    """Span recorder with a stack of open spans; one caller, no threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.leaf_s: Dict[tuple, float] = defaultdict(float)  # (pass, layer)
        self.counts: Dict[tuple, int] = defaultdict(int)  # (pass, counter)
        self.pass_index = 0
        self._stack: List[Span] = []
        self._patches: List[tuple] = []

    def leaf(self, layer: str, seconds: float) -> None:
        self.leaf_s[(self.pass_index, layer)] += seconds
        if self._stack:
            self._stack[-1].inner += seconds

    def count(self, counter: str, k: int = 1) -> None:
        self.counts[(self.pass_index, counter)] += k

    def wrap(self, name: str, fn: Callable, describe: Optional[Callable] = None) -> Callable:
        """fn wrapped to record a span; describe(args, result) -> span attrs."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent.id if parent else None, self.pass_index)
            self.spans.append(span)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.inner += span.end - span.start
            if describe is not None:
                t0 = perf_counter()
                span.attrs.update(describe(args, result))
                self.leaf(BOOKKEEPING, perf_counter() - t0)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def timed_enum(self, enum: Callable) -> Callable:
        def traced_enum(n):
            t0 = perf_counter()
            it = iter(enum(n))
            t1 = perf_counter()
            self.leaf(ENUM, t1 - t0)
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self.leaf(ENUM, perf_counter() - t0)
                    return
                self.leaf(ENUM, perf_counter() - t0)
                self.count("universes.members")
                yield item

        return traced_enum

    def counted_relation(self, fn: Callable) -> Callable:
        def counted(a, b):
            self.counts[(self.pass_index, "greedy.relation_calls")] += 1
            return fn(a, b)

        return counted

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        graph = self.wrap("oracle.build", oracle.build_compatibility_graph, _describe_graph)
        search = self.wrap("oracle.search", oracle.max_clique_exact, _describe_search)
        for owner in (oracle, constructions):
            self.patch(owner, "build_compatibility_graph", graph)
            self.patch(owner, "max_clique_exact", search)
        self.patch(oracle, "oracle_quantity",
                   self.wrap("oracle.quantity", oracle.oracle_quantity, _describe_quantity))
        self.patch(universes, "UNIVERSES", {
            name: (self.timed_enum(enum), kind)
            for name, (enum, kind) in universes.UNIVERSES.items()
        })
        self.patch(greedy, "RELATIONS", {
            name: self.counted_relation(fn) for name, fn in relations.RELATIONS.items()
        })
        self.patch(greedy, "greedy_family",
                   self.wrap("greedy.family", greedy.greedy_family, _describe_greedy))
        for attr, layer in (
            ("bipartite_crossing_family", "constructions.bipartite_crossing"),
            ("two_diff_family", "constructions.two_diff"),
            ("kernel_cycle_family", "constructions.kernel"),
        ):
            self.patch(constructions, attr, self.wrap(layer, getattr(constructions, attr)))
        self.patch(cli, "run", self.wrap("cli.run", cli.run, _describe_cli))
        self.patch(cli, "serialize_family",
                   self.wrap("cli.serialize", cli.serialize_family, _describe_text))
        self.patch(cli, "parse_family", self.wrap("cli.parse", cli.parse_family))
        self.patch(bounds_mod, "check_inequalities",
                   self.wrap("bounds.check_inequalities", bounds_mod.check_inequalities))
        self.patch(structure, "count_incompatible",
                   self.wrap("structure.count_incompatible", structure.count_incompatible))

    # -- analysis -----------------------------------------------------------

    def layer_self_s(self, pass_index: int) -> Dict[str, float]:
        """Self time per layer in one pass; cli.run is split by subcommand."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.pass_index != pass_index:
                continue
            name = s.name
            if name == "cli.run":
                name = "cli." + s.attrs.get("command", "run")
            out[name] += s.self_s
        for (p, layer), seconds in self.leaf_s.items():
            if p == pass_index:
                out[layer] += seconds
        return dict(out)

    def span_attrs(self, pass_index: int, name: str) -> List[Dict]:
        return [s.attrs for s in self.spans if s.pass_index == pass_index and s.name == name]

    def by_instance(self, pass_index: int) -> Dict[str, float]:
        """Build and search seconds of each oracle_quantity call, keyed like oracle.build_s.Q6."""
        instance = {s.id: s.attrs["instance"] for s in self.spans
                    if s.pass_index == pass_index and s.name == "oracle.quantity"}
        out = {}
        for s in self.spans:
            if s.parent in instance and s.name in ("oracle.build", "oracle.search"):
                out[f"{s.name}_s.{instance[s.parent]}"] = s.end - s.start
        return out

    def dump(self) -> List[Dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "pass": s.pass_index,
             "start": s.start, "end": s.end, "self_s": s.self_s, "attrs": s.attrs}
            for s in self.spans
        ]


def _describe_quantity(args, res) -> Dict:
    return {"instance": f"{res.quantity}{res.n}"}


def _describe_graph(args, g) -> Dict:
    nv = g.num_vertices
    edges = sum(bin(row).count("1") for row in g.adj) // 2
    return {"vertices": nv, "pairs": nv * (nv - 1) // 2, "edges": edges}


def _describe_search(args, result) -> Dict:
    value, _, status = result
    return {"best": value, "status": status}


def _describe_greedy(args, fam) -> Dict:
    cfg = args[0]
    return {
        "candidates": universes.universe_size(cfg.universe, cfg.n),
        "admitted": len(fam),
        "order": cfg.order,
    }


def _describe_cli(args, code) -> Dict:
    return {"command": args[0][0], "exit": code}


def _describe_text(args, text) -> Dict:
    return {"bytes": len(text.encode())}


def calibrate(rounds: int = 20000) -> Dict[str, float]:
    """Seconds the tracer adds per span, per enumerated member and per counted call."""

    def noop(*_):
        return None

    def per_call(fn) -> float:
        samples = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(rounds):
                fn(1, 2)
            samples.append((perf_counter() - t0) / rounds)
        return median(samples)

    def per_item(enum) -> float:
        samples = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in enum(rounds):
                pass
            samples.append((perf_counter() - t0) / rounds)
        return median(samples)

    t = Tracer()
    base = per_call(noop)
    costs = {
        "span": per_call(t.wrap("calibrate", noop)) - base,
        "count": per_call(t.counted_relation(noop)) - base,
        "member": per_item(t.timed_enum(range)) - per_item(range),
    }
    return {k: max(v, 0.0) for k, v in costs.items()}
