#!/usr/bin/env python3
"""The sepham benchmark.

One workload in one fresh process (the form used for measurement):

    python3 perfbench/run.py --workload oracle-exact --seed 1 --seconds 20 --trace 0

repeats the workload's pass until --seconds have elapsed (at least one pass),
checks every output, prints one metric per line as ``name = value unit`` and,
as its last line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, measured with
tracing off; ``--trace 1`` wraps sepham's layer boundaries in spans and
reports per-layer metrics.  Details and spans go to ``perfbench/out/``.

Every workload, each in its own fresh process, untraced and traced, under
seeds 1 and 2; then the tracing overhead and a seed-determinism check:

    python3 perfbench/run.py

The workloads, metrics and the layer -> metric -> workload predictions are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, median_low

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Set-up probes per round; a round runs before the first timed pass and after
#: each pass, so that the reported median spans the same stretch of machine
#: time as wall_s.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
#: Seeds of the all-workload run; two are enough to check determinism.
SEEDS = (1, 2)

#: End-to-end metrics, measured untraced on every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "members": "count",
}

#: Per-layer metrics that every workload exercises: name -> unit.  The
#: workload-specific layers are printed and written to the detail file.
PER_LAYER = {
    "universes.enum_s": "s",
    "universes.members": "count",
    **{
        f"relations.{rel}.{kind}": "us"
        for rel in ("crossing", "two-separated", "shared-edge", "value-separated")
        for kind in ("pair_us", "pos_us", "neg_us")
    },
    "oracle.build_s": "s",
    "oracle.build.pairs": "count",
    "oracle.build.density": "ratio",
    "oracle.search_s": "s",
    "oracle.search.calls": "count",
    "oracle.search.exact": "count",
    "oracle.search.timeouts": "count",
    "oracle.search.best": "count",
    "other.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: Layers whose self time makes up other.self_s.
OTHER_LAYERS = {
    "oracle.quantity": "oracle.finish_s",
    "greedy.family": "greedy.family_s",
    "constructions.bipartite_crossing": "constructions.bipartite_crossing_s",
    "constructions.two_diff": "constructions.two_diff_s",
    "constructions.kernel": "constructions.kernel_s",
    "cli.construct": "cli.construct_s",
    "cli.verify": "cli.verify_s",
    "cli.serialize": "cli.serialize_s",
    "cli.parse": "cli.parse_s",
    "bounds.check_inequalities": "bounds.check_inequalities_s",
    "structure.count_incompatible": "structure.count_incompatible_s",
}


def import_sepham() -> None:
    """Import sepham from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import sepham
    except ImportError as exc:
        sys.exit(f"error: cannot import sepham from {SRC}: {exc}")
    if Path(sepham.__file__).resolve().parent != (SRC / "sepham").resolve():
        sys.exit(f"error: sepham was imported from {sepham.__file__}, not {SRC}")


def detail_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def child(args: list) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def probe_setup(workload: str, seed: int) -> list:
    """Seconds from process start to sepham imported and inputs generated, per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = child(["--setup-probe", "--workload", workload, "--seed", str(seed)])
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            stop(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return samples


def timed_passes(calls, seconds: float, tracer=None, after_pass=None):
    """Run the calls in order, pass after pass, until the passes have taken `seconds`.

    `after_pass` runs after each pass, outside the timed passes.
    """
    import workloads

    passes, walls = [], []
    while not passes or sum(walls) < seconds:
        records = []
        if tracer is not None:
            tracer.pass_index = len(passes)
        t0 = time.perf_counter()
        for call in calls:
            run = call.run if tracer is None else tracer.wrap("bench.call", call.run)
            c0 = time.perf_counter()
            try:
                result, error = run(), False
            except Exception:
                traceback.print_exc()
                result, error = None, True
            records.append(workloads.Record(call, result, time.perf_counter() - c0, error))
        walls.append(time.perf_counter() - t0)
        passes.append(records)
        if after_pass is not None:
            after_pass()
    return passes, walls


def check_outputs(wl, passes) -> dict:
    """Failure messages per call name; empty lists mean the call's outputs are correct."""
    import workloads

    failures = {}
    for r in (r for p in passes for r in p if r.error):
        failures.setdefault(r.call.name, []).append("raised")
    if failures:
        return failures
    first = {r.call.name: workloads.digest(r.result) for r in passes[0]}
    for p in passes[1:]:
        for r in p:
            if workloads.digest(r.result) != first[r.call.name]:
                failures.setdefault(r.call.name, []).append("output differs between passes")
    try:
        for name, fails in wl.check(passes[-1]).items():
            failures.setdefault(name, []).extend(fails)
    except Exception:
        traceback.print_exc()
        failures.setdefault("check", []).append("checking raised")
    return {name: fails for name, fails in failures.items() if fails}


def layer_metrics(tracer, walls, sweep: dict, costs: dict) -> dict:
    """Per-pass medians of every layer's self time and counts."""
    per_pass = []
    for p, wall in enumerate(walls):
        selfs = tracer.layer_self_s(p)
        count = lambda name: tracer.counts.get((p, name), 0)  # noqa: E731
        builds = tracer.span_attrs(p, "oracle.build")
        searches = tracer.span_attrs(p, "oracle.search")
        greedies = tracer.span_attrs(p, "greedy.family")
        pairs = sum(a["pairs"] for a in builds)
        candidates = sum(a["candidates"] for a in greedies)
        admitted = sum(a["admitted"] for a in greedies)
        roots = [s for s in tracer.spans if s.pass_index == p and s.parent is None]
        spans = sum(1 for s in tracer.spans if s.pass_index == p)
        m = {
            "universes.enum_s": selfs.get("universes.enum", 0.0),
            "universes.members": count("universes.members"),
            "oracle.build_s": selfs.get("oracle.build", 0.0),
            "oracle.build.pairs": pairs,
            "oracle.build.density": sum(a["edges"] for a in builds) / pairs if pairs else 0.0,
            "oracle.search_s": selfs.get("oracle.search", 0.0),
            "oracle.search.calls": len(searches),
            "oracle.search.exact": sum(a["status"] == "exact" for a in searches),
            "oracle.search.timeouts": sum(a["status"] != "exact" for a in searches),
            "oracle.search.best": sum(a["best"] for a in searches),
            "greedy.candidates": candidates,
            "greedy.admitted": admitted,
            "greedy.admit_ratio": admitted / candidates if candidates else 0.0,
            "greedy.relation_calls": count("greedy.relation_calls"),
            "cli.file_bytes": sum(a["bytes"] for a in tracer.span_attrs(p, "cli.serialize")),
            "bench.self_s": selfs.get("bench.call", 0.0) + wall - sum(s.end - s.start for s in roots),
            "trace.bookkeeping_s": selfs.get("trace.bookkeeping", 0.0),
            "trace.wall_s": wall,
            "trace.spans": spans,
        }
        for layer, name in OTHER_LAYERS.items():
            m[name] = selfs.get(layer, 0.0)
        m["other.self_s"] = sum(m[name] for name in OTHER_LAYERS.values())
        m["trace.overhead_s"] = (
            spans * costs["span"]
            + m["universes.members"] * costs["member"]
            + m["greedy.relation_calls"] * costs["count"]
            + m["trace.bookkeeping_s"]
        )
        m.update(tracer.by_instance(p))
        per_pass.append(m)
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        out[name] = (median_low if all(isinstance(v, int) for v in values) else median)(values)
    out.update(sweep)
    return out


def run_workload(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        probe = None if args.trace else lambda: setup.extend(probe_setup(args.workload, args.seed))
        if probe is not None:
            probe()
        rng = random.Random(args.seed)
        calls = wl.calls(rng, workdir)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            passes, walls = timed_passes(calls, args.seconds, tracer, probe)
        finally:
            if tracer is not None:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_outputs(wl, passes)
        last = passes[-1]
        report, members, deterministic = {}, 0, {}
        if not failures:
            report = wl.report(passes)
            members = wl.members(last)
            deterministic = wl.deterministic(last)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.call.name in failures)
    if "check" in failures:
        failed = attempted
    lines = {"failed_ratio": (failed / attempted, "ratio")}
    if args.trace:
        sweep = workloads.relation_sweep(random.Random(args.seed), time.perf_counter)
        layers = layer_metrics(tracer, walls, sweep, tracing.calibrate())
        deterministic["oracle.build.pairs"] = layers["oracle.build.pairs"]
        units = {**PER_LAYER, "greedy.admit_ratio": "ratio", "cli.file_bytes": "bytes"}
        for name, value in layers.items():
            lines[name] = (value, units.get(name, "s" if "_s" in name else "count"))
        reported = PER_LAYER
    else:
        lines.update({
            "setup_s": (median(setup), "s"),
            "wall_s": (median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "members": (members, "count"),
        })
        lines.update(report)
        reported = END_TO_END

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {len(calls)} calls per pass, closed loop, one caller")
    for name, (value, unit) in lines.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, fails in failures.items():
        print(f"FAILED {name}: {'; '.join(fails)}", file=sys.stderr)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "pass_wall_s": walls,
        "calls": {
            c.name: {"seeded": c.seeded,
                     "seconds": [r.seconds for p in passes for r in p if r.call is c],
                     "digest": workloads.digest(next(r.result for r in last if r.call is c))}
            for c in calls
        },
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in lines.items()},
        "deterministic": deterministic,
        "failures": failures,
        "spans": tracer.dump() if tracer is not None else [],
    }
    detail_path(args.workload, args.seed, args.trace).write_text(json.dumps(detail, indent=1))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": lines[name][0], "unit": unit} for name, unit in reported.items()}
        if not failures else {},
    }
    print(json.dumps(result))
    return 0


def run_child(args: list) -> dict:
    """Run one workload in a fresh process; its JSON result, or a RuntimeError."""
    proc = child(args)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"timed out after {CHILD_TIMEOUT_S} s") from None
    finally:
        stop(proc)
    sys.stdout.write(out)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"exit {proc.returncode} without a JSON result") from None
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"exit {proc.returncode}, correct {result['correct']}")
    return result


def run_all(seconds: float) -> int:
    """Every workload in fresh processes, untraced and traced, under each of SEEDS."""
    import workloads

    problems = []
    for name in workloads.WORKLOADS:
        details = {}
        for seed in SEEDS:
            for trace in (0, 1):
                try:
                    run_child(["--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)])
                    details[seed, trace] = json.loads(detail_path(name, seed, trace).read_text())
                except (RuntimeError, OSError) as exc:
                    problems.append(f"{name} seed {seed} trace {trace}: {exc}")
        if len(details) < 2 * len(SEEDS):
            continue
        print(f"## {name}")
        for seed in SEEDS:
            plain = median(details[seed, 0]["pass_wall_s"])
            traced = median(details[seed, 1]["pass_wall_s"])
            estimate = details[seed, 1]["metrics"]["trace.overhead_s"]["value"]
            print(f"seed {seed}: wall_s untraced {plain:.4f}, traced {traced:.4f}, tracing overhead "
                  f"{traced - plain:+.4f} s ({(traced - plain) / plain:+.2%}), estimated {estimate:.4f} s")
        base = SEEDS[0]
        for seed in SEEDS[1:]:
            for trace in (0, 1):
                a, b = details[base, trace], details[seed, trace]
                if a["deterministic"] != b["deterministic"]:
                    problems.append(f"{name}: counts differ between seeds {base} and {seed}: "
                                    f"{a['deterministic']} vs {b['deterministic']}")
                for call, info in a["calls"].items():
                    if not info["seeded"] and info["digest"] != b["calls"][call]["digest"]:
                        problems.append(f"{name}: output of {call!r} differs between seeds")
        counts = details[base, 1]["deterministic"]
        print(f"seed-independent outputs and counts {counts} compared across seeds {SEEDS}")
    for p in problems:
        print(f"PROBLEM: {p}")
    print("all workloads correct and deterministic" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload; omit to run all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_sepham()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload is None:
        return run_all(args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload].calls(random.Random(args.seed), OUT / "probe")
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
