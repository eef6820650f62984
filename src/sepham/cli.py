"""Command-line surface: construct / verify / analyze / oracle / bounds / report.

Exit codes: 0 success, 1 usage or configuration error, 2 verification failure.
Family files are a diff-able line format:

    # sepham family v1
    # kind=paths n=12 construction=bipartite-crossing seed=none
    4 1 5 2 6 3 ...
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from . import bounds as bounds_mod
from . import constructions, greedy, oracle, relations, structure
from .core import Family, Permutation, as_seq, kind_class
from .errors import CapExceeded, SephamError

FORMAT_HEADER = "# sepham family v1"


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(SephamError):
    pass


def serialize_family(fam: Family) -> str:
    meta = fam.meta
    seed = meta.get("seed")
    lines = [
        FORMAT_HEADER,
        "# kind={} n={} construction={} seed={}".format(
            fam.kind, fam.n, meta.get("construction", "unknown"),
            "none" if seed is None else seed,
        ),
    ]
    lines.extend(" ".join(str(v) for v in as_seq(m)) for m in fam.members)
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> Family:
    """Read a family file; any malformed content raises UsageError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise UsageError("not a sepham family file (missing header)")
    header = lines[1] if len(lines) > 1 else ""
    fields = dict(tok.split("=", 1) for tok in header.lstrip("# ").split() if "=" in tok)
    if "kind" not in fields or "n" not in fields:
        raise UsageError("family file needs a '# kind=... n=...' line")
    try:
        seed = fields.get("seed", "none")
        cls = kind_class(fields["kind"])
        return Family(
            n=int(fields["n"]),
            kind=fields["kind"],
            members=tuple(cls(tuple(int(t) for t in ln.split())) for ln in lines[2:]),
            meta={
                "construction": fields.get("construction", "unknown"),
                "seed": None if seed == "none" else int(seed),
            },
        )
    except (SephamError, ValueError) as exc:
        raise UsageError(f"bad family file: {exc}") from None


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)


def _cmd_construct(args) -> int:
    which = args.which
    if which in ("bipartite-crossing", "two-diff") and args.mode == "greedy" and args.seed is None:
        raise UsageError(f"{which} with --mode greedy requires --seed")
    if which == "bipartite-crossing":
        fam = constructions.bipartite_crossing_family(
            args.n, mode=args.mode, seed=args.seed
        )
    elif which == "two-diff":
        fam = constructions.two_diff_family(args.n, mode=args.mode, seed=args.seed)
    elif which == "kernel-cycles":
        if args.edge is None:
            raise UsageError("kernel-cycles needs --edge U,V")
        try:
            u, v = (int(t) for t in args.edge.split(","))
        except ValueError:
            raise UsageError(f"--edge must be U,V, got {args.edge!r}") from None
        fam = constructions.kernel_cycle_family(args.n, (u, v))
    elif which == "walecki":
        cycles = constructions.walecki_decomposition(args.n)
        fam = Family(
            n=args.n,
            kind="cycles",
            members=tuple(cycles),
            meta={"construction": "walecki", "seed": None},
        )
    elif which == "greedy":
        if args.universe is None or args.relation is None:
            raise UsageError("greedy needs --universe and --relation")
        if args.order == "shuffle" and args.seed is None:
            raise UsageError("--order shuffle requires --seed")
        cfg = greedy.GreedyConfig(
            universe=args.universe,
            relation=args.relation,
            n=args.n,
            order=args.order,
            seed=args.seed,
        )
        fam = greedy.greedy_family(cfg)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown construction {which!r}")
    _write_out(serialize_family(fam), args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.family, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"not a sepham family file ({exc.reason})") from None
    fam = parse_family(text)
    rel = relations.require(args.relation, fam.kind)
    seqs = fam.seqs()
    pairs = 0
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            pairs += 1
            if not rel(seqs[i], seqs[j]):
                print(
                    f"FAIL: pair ({i + 1}, {j + 1}) violates {args.relation}:\n"
                    f"  {' '.join(map(str, seqs[i]))}\n"
                    f"  {' '.join(map(str, seqs[j]))}\n"
                    f"  no witness exists"
                )
                return 2
    print(f"OK: {len(seqs)} members, {pairs} pairs verified")
    return 0


def _cmd_analyze(args) -> int:
    try:
        seq = tuple(int(t) for t in args.perm.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"--perm must be integers, got {args.perm!r}") from None
    p = Permutation(seq)
    holds, bad_j = structure.property_uno_holds(p)
    rs = structure.run_structure(p)
    print(f"permutation: {' '.join(map(str, seq))}")
    if holds:
        print("closeness property: holds")
    else:
        print(f"closeness property: fails first at j={bad_j}")
    if rs.runs:
        for head, length in rs.runs:
            print(f"run of big jumps: positions {head}..{head + length - 1}")
    else:
        print("runs of big jumps: none")
    print(f"free positions: {sorted(rs.free_positions)}")
    print(f"constrained positions: {sorted(rs.constrained_positions)}")
    print(
        "incompatible with identity: "
        + ("yes" if structure.incompatible_with_identity(p) else "no")
    )
    return 0


def _cmd_oracle(args) -> int:
    res = oracle.oracle_quantity(args.quantity, args.n, time_limit=args.time_limit)
    if res.status == oracle.STATUS_EXACT:
        print(f"{args.quantity}({args.n}) = {res.value} (exact)")
    else:
        print(f"{args.quantity}({args.n}) in {_interval(res)} (timeout; best found, certified upper)")
    return 0


def _interval(res) -> str:
    return f"[{res.value}, {res.upper}]"


def _frac(x) -> str:
    if x is None:
        return "undefined"
    if isinstance(x, Fraction) and x.denominator == 1:
        return str(x.numerator)
    return str(x)


_BOUND_COLUMNS = [
    "n",
    "q_lower_kmm_lo",
    "q_lower_kmm_hi",
    "q_upper_kmm",
    "q_lower_new",
    "r_lower",
    "r_upper",
    "mcy_lower",
    "mcy_upper_even",
    "incompat_total_bound",
]


def _bounds_row(rec) -> List[str]:
    return [
        str(rec.n),
        f"{float(rec.q_lower_kmm[0]):.6e}",
        f"{float(rec.q_lower_kmm[1]):.6e}",
        _frac(rec.q_upper_kmm),
        _frac(rec.q_lower_new),
        _frac(rec.r_lower),
        _frac(rec.r_upper),
        _frac(rec.mcy_lower),
        _frac(rec.mcy_upper_even),
        _frac(rec.incompat_total_bound),
    ]


def _cmd_bounds(args) -> int:
    rec = bounds_mod.eval_bounds(args.n)
    row = _bounds_row(rec)
    if args.format == "csv":
        print(",".join(_BOUND_COLUMNS))
        print(",".join(row))
    else:
        for name, value in zip(_BOUND_COLUMNS, row):
            print(f"{name} = {value}")
        if rec.r_lower_vacuous:
            print("note: r_lower < 1 (vacuous at this n; the bound is asymptotic)")
    return 0


def _q_construction(n: int) -> str:
    if n < 4:
        return "-"
    mode = "exact" if n // 2 <= constructions.DEFAULT_EXACT_CAP else "greedy"
    try:
        return str(len(constructions.bipartite_crossing_family(n, mode=mode, seed=0)))
    except CapExceeded:  # the seeded greedy base is capped at n // 2 <= 8
        return "-"


def _mcy_construction(n: int) -> str:
    return str(len(constructions.kernel_cycle_family(n, (1, 2)))) if n <= 9 else "-"


#: Report tables: quantity, title, and the explicit construction column if any.
_REPORT_TABLES = [
    ("Q", "Crossing Hamilton path families", _q_construction),
    ("R", "Two-separated permutation families", None),
    ("Mcy", "Edge-sharing Hamilton cycle families", _mcy_construction),
]


def _cmd_report(args) -> int:
    try:
        lo, hi = (int(t) for t in args.n_range.split(":"))
    except ValueError:
        raise UsageError(f"--n-range must be A:B, got {args.n_range!r}") from None
    if lo > hi:
        raise UsageError(f"--n-range A:B needs A <= B, got {args.n_range!r}")
    out = []
    timed_out = False
    for quantity, title, construction in _REPORT_TABLES:
        universe, relation, max_n = oracle._QUANTITY_SPECS[quantity]
        columns = ["n", "greedy", "exact", "lower bound", "upper bound"]
        if construction:
            columns.insert(1, "construction")
        out.append(f"## {title} ({quantity})\n")
        out.append("| " + " | ".join(columns) + " |")
        out.append("|" + "---|" * len(columns))
        for n in range(lo, hi + 1):
            row = [str(n)] + ([construction(n)] if construction else [])
            g = exact = "-"
            if n <= min(args.oracle_max_n, max_n):
                cfg = greedy.GreedyConfig(universe=universe, relation=relation, n=n)
                g = str(len(greedy.greedy_family(cfg)))
                res = oracle.oracle_quantity(quantity, n, time_limit=args.time_limit)
                if res.status == oracle.STATUS_EXACT:
                    exact = str(res.value)
                else:
                    exact, timed_out = _interval(res), True
            row += [g, exact, *(_frac(b) for b in oracle.sandwich(quantity, n))]
            out.append("| " + " | ".join(row) + " |")
        out.append("")
    if timed_out:
        out.append("`[best, upper]` = best found within the time limit and the certified upper bound.")
    _write_out("\n".join(out) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sepham", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family and write it to a file")
    p.add_argument(
        "--which",
        required=True,
        choices=["bipartite-crossing", "two-diff", "kernel-cycles", "walecki", "greedy"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--edge", default=None, help="U,V for kernel-cycles")
    p.add_argument("--universe", default=None)
    p.add_argument("--relation", default=None)
    p.add_argument("--order", choices=["lex", "shuffle"], default="lex")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="verify a family file against a relation")
    p.add_argument("--relation", required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("analyze", help="closeness property and run anatomy of a permutation")
    p.add_argument("--perm", required=True, help='e.g. "3 1 4 2 5"')
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("oracle", help="exact maximum family size by clique search")
    p.add_argument("--quantity", required=True, choices=list(oracle._QUANTITY_SPECS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("bounds", help="closed-form bounds at one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("report", help="Markdown tables comparing constructions and bounds")
    p.add_argument("--n-range", required=True, help="A:B inclusive")
    p.add_argument("--oracle-max-n", type=int, default=6)
    p.add_argument("--time-limit", type=float, default=30.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_report)
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (SephamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
