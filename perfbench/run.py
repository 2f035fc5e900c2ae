#!/usr/bin/env python3
"""sudoku-ryser benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 20 --trace 0

Run it from the repository root.  The library is imported from ./src, so no
install is needed.  The run sets up (imports the library and generates the
seeded inputs) three times and keeps the median, then runs whole passes over
the workload's operations in one single-threaded closed loop until
--seconds have passed and at least the workload's minimum pass count is
reached.  Every output is checked outside the timed region.

With --trace 0 the last line carries the end-to-end metrics.  Their times
are taken at the reference host speed: the host's speed is probed between
operations and each time is divided by the slowness near it (see
hostspeed.py), and each operation's time is its median over the passes.
With --trace 1
it carries the per-layer metrics of a run in which each operation runs
twice in a row: on the plain library, then with its stage and graph
functions rebound to record spans (see tracing.py).  The spans are written
to .bench_build/perfbench/.
The exit code is 0 only if every check passed; if the library cannot be
imported from ./src the run exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from hostspeed import REFERENCE_S, HostSpeed
from tracing import Tracer
from workloads import WORKLOADS, Instance, Workload, staged_square

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
MODULES = ("grid", "bipartite", "outline", "completion", "hall", "fixtures", "cli")
SETUP_REPEATS = 3
SETUP_PROBES = 5  # host-speed probes before and after each set-up
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

KINDS = ("side-alpha", "bottom-beta", "row-coverage", "col-coverage",
         "corner-double-must", "corner-must", "corner-flow")


def import_library() -> SimpleNamespace:
    """Import every library module afresh from ./src."""
    for name in [m for m in sys.modules if m == "sudoku_ryser" or m.startswith("sudoku_ryser.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("sudoku_ryser")
    if Path(package.__file__).resolve().parent != SRC / "sudoku_ryser":
        raise ImportError(f"sudoku_ryser was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module("sudoku_ryser." + m) for m in MODULES})


def install_tracing(tracer: Tracer, mods: SimpleNamespace) -> None:
    """Rebind the public stage and graph functions the library calls."""
    c, o = mods.completion, mods.outline

    def matched(counts, args, result):
        graph = args[0]
        counts["bipartite.matching.edges"] += len(graph.edges)
        if isinstance(result, mods.bipartite.Matching) and len(result.pairs) == graph.left_count:
            counts["bipartite.matching.saturated"] += 1

    def colored(counts, args, result):
        counts["bipartite.coloring.edges"] += len(args[0].edges)

    def subsets(counts, args, result):
        counts["hall.subsets_checked"] += result.subsets_checked

    def nodes(counts, args, result):
        counts["fixtures.oracle.nodes"] += result.nodes_expanded

    for module, attr, name, count in (
        (mods.cli, "main", "cli.main", None),
        (mods.cli, "parse_grid", "grid.parse", None),
        (mods.cli, "serialize_grid", "grid.serialize", None),
        (c, "complete", "completion.complete", None),
        (c, "validate_partial", "grid.validate", None),
        (mods.fixtures, "validate_partial", "grid.validate", None),
        (c, "plan_medium_cells", "completion.plan", None),
        (c, "distribute_free", "completion.dist", None),
        (c, "assemble_outline", "completion.assemble", None),
        (c, "expand_outline", "outline.expand", None),
        (c, "complete_latin_rectangle", "completion.latin", None),
        (c, "verify_obstruction", "completion.verify_obstruction", None),
        (c, "saturating_matching", "bipartite.matching", matched),
        (c, "extend_matching", "bipartite.matching", matched),
        (c, "equitable_edge_coloring", "bipartite.coloring", colored),
        (o, "split_front", "outline.split_front", None),
        (o, "equitable_edge_coloring", "bipartite.coloring", colored),
        (mods.hall, "hall_condition", "hall.condition", subsets),
        (mods.fixtures, "brute_force_complete", "fixtures.oracle", nodes),
    ):
        tracer.wrap(module, attr, name, count)


@dataclass
class Pass:
    wall: float  # summed operation times
    latencies: list[tuple[str, float]]
    times: list[tuple[float, float]]  # start and end of each operation
    failures: int
    verdicts: Counter
    spans: tuple[int, int] = (0, 0)
    counts: Counter = field(default_factory=Counter)
    ops: list[int] = field(default_factory=list)


def run_passes(wl: Workload, mods, instances: list[Instance], seconds: float,
               min_passes: int, tracer: Tracer | None = None,
               keep: list | None = None,
               speed: HostSpeed | None = None) -> tuple[list[Pass], list[Pass]]:
    """Whole passes until `seconds` are up and min_passes are done.

    Returns the untraced passes and the traced ones.  Without a tracer each
    operation runs once per pass.  With one, each operation runs twice in a
    row, untraced and with tracing installed, so that drift in the host's
    speed reaches both timings alike and their difference measures tracing.
    Each operation is timed on its own; exceptions count as failures.  With
    `speed`, the host's speed is probed between operations (see hostspeed.py).
    The results of the last pass (traced, when tracing) are left in `keep`
    when it is given.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(plain) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        first_span = len(tracer.spans) if tracer else 0
        counts_before = Counter(tracer.counts) if tracer else Counter()
        op_ids: list[int] = []
        results: list[tuple[object, float, float]] = []
        traced_results: list[tuple[object, float, float]] = []
        # When tracing, odd passes run the traced twin first, so that neither
        # kind always finds the caches warmed by the other.
        traced_first = tracer is not None and len(plain) % 2 == 1
        if speed:
            speed.probe()
        for inst in instances:
            if speed:
                speed.probe_if_due()
            if not traced_first:
                results.append(timed_op(wl, mods, inst))
            if tracer:
                tracer.op += 1
                op_ids.append(tracer.op)
                install_tracing(tracer, mods)
                try:
                    traced_results.append(timed_op(wl, mods, inst))
                finally:
                    tracer.unwrap()
            if traced_first:
                results.append(timed_op(wl, mods, inst))
        if speed:
            speed.probe()
        plain.append(checked_pass(wl, instances, results))
        if tracer:
            traced.append(checked_pass(wl, instances, traced_results,
                                       (first_span, len(tracer.spans)),
                                       Counter(tracer.counts) - counts_before, op_ids))
        if keep is not None:
            keep[:] = [result for result, _, _ in (traced_results if tracer else results)]
    return plain, traced


def normalise(passes: list[Pass], speed: HostSpeed) -> list[Pass]:
    """The passes with each operation's time taken at the reference speed."""
    out = []
    for ps in passes:
        times = [speed.normalised(began, ended) for began, ended in ps.times]
        out.append(Pass(sum(times), [(label, t) for (label, _), t in zip(ps.latencies, times)],
                        ps.times, ps.failures, ps.verdicts))
    return out


def timed_op(wl: Workload, mods, inst: Instance) -> tuple[object, float, float]:
    """One operation's result, or the exception it raised, its start and end."""
    began = time.perf_counter()
    try:
        result = wl.op(mods, inst)
    except Exception as exc:  # a failed operation, counted by checked_pass
        result = exc
    return result, began, time.perf_counter()


def checked_pass(wl: Workload, instances: list[Instance],
                 results: list[tuple[object, float, float]], spans: tuple[int, int] = (0, 0),
                 counts: Counter | None = None, ops: list[int] | None = None) -> Pass:
    """Check one pass's results, outside the timed region."""
    failures = 0
    verdicts: Counter = Counter()
    for inst, (result, _, _) in zip(instances, results):
        if isinstance(result, Exception):
            failures += 1
            verdicts["exception." + type(result).__name__] += 1
            continue
        ok, verdict = wl.check(inst, result)
        failures += not ok
        verdicts[verdict] += 1
    times = [(began, ended) for _, began, ended in results]
    return Pass(sum(ended - began for began, ended in times),
                [(inst.label, ended - began) for inst, (began, ended) in zip(instances, times)],
                times, failures, verdicts, spans, counts or Counter(), ops or [])


def best_latencies(passes: list[Pass]) -> list[float]:
    """Each operation's fastest time over the passes of the run.

    A shared host's speed drifts for seconds or minutes at a time; the
    fastest of several repeats is the estimate that such drift disturbs least.
    """
    return [min(times) for times in zip(*([t for _, t in ps.latencies] for ps in passes))]


def median_latencies(passes: list[Pass]) -> list[float]:
    """Each operation's median time over the passes of the run."""
    return [statistics.median(times)
            for times in zip(*([t for _, t in ps.latencies] for ps in passes))]


def tail_percentile(instances: int, passes: int) -> int:
    """Highest whole percentile of the per-instance latencies that leaves
    instances above it holding at least TAIL_BEYOND samples in `passes`."""
    beyond = math.ceil(TAIL_BEYOND / passes)
    return max(0, math.floor(100 * (1 - beyond / instances)))


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    index = max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)
    return sorted_values[index]


def end_to_end(wl: Workload, instances: list[Instance], passes: list[Pass],
               setup: list[float], lines: list[str]) -> dict:
    typical = median_latencies(passes)
    ordered = sorted(typical)
    # Fixed per workload, so a faster program (more passes) keeps the percentile.
    pct = tail_percentile(len(instances), wl.min_passes)
    above = len(ordered) - math.ceil(pct / 100 * len(ordered))
    largest = [t for inst, t in zip(instances, typical) if wl.largest in inst.label]
    wall = sum(typical)
    lines.append(f"op_p50_s and op_tail_s (p{pct}) are percentiles of the {len(typical)} "
                 f"per-instance median latencies over {len(passes)} passes; "
                 f"{above} instances, {above * len(passes)} samples lie above p{pct}; "
                 "all times are at the probe's reference speed")
    lines.append(f"largest_s is the median latency of {len(largest)} "
                 f"'{wl.largest}' instances")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(instances) / wall, "1/s"),
        "op_p50_s": (statistics.median(typical), "s"),
        "op_tail_s": (nearest_rank(ordered, pct), "s"),
        "largest_s": (statistics.median(largest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced: list[Pass], untraced: list[Pass], tracer: Tracer,
              verdicts: Counter) -> dict:
    def least(times: str, name: str) -> float:
        """The smallest per-pass sum, for the reason given in best_latencies."""
        source = tracer.self_times if times == "self" else tracer.total_times
        return min(source(*ps.spans).get(name, 0.0) for ps in traced)

    counts = traced[-1].counts
    out = {}
    for name in ("cli.main", "grid.parse", "grid.serialize", "grid.validate",
                 "completion.complete", "completion.plan", "completion.dist",
                 "completion.assemble", "completion.latin", "completion.verify_obstruction",
                 "outline.expand", "outline.split_front", "bipartite.matching",
                 "bipartite.coloring", "hall.condition", "fixtures.oracle"):
        out[name + "_s"] = (least("self", name), "s")
    for name in ("completion.plan", "completion.dist", "outline.expand"):
        out[name + "_total_s"] = (least("total", name), "s")
    for name in ("outline.split_front.calls", "completion.verify_obstruction.calls",
                 "bipartite.matching.calls", "bipartite.matching.edges",
                 "bipartite.coloring.calls", "bipartite.coloring.edges",
                 "hall.subsets_checked", "fixtures.oracle.nodes"):
        out[name] = (counts.get(name, 0), "count")
    calls = counts.get("bipartite.matching.calls", 0)
    out["bipartite.matching.saturated_share"] = (
        counts.get("bipartite.matching.saturated", 0) / calls if calls else 0.0, "share")
    out["trace.overhead_s"] = (sum(best_latencies(traced)) - sum(best_latencies(untraced)), "s")
    for kind in ("completable",) + KINDS:
        out["verdict." + kind] = (verdicts.get(kind, 0), "count")
    return out


def largest_split(wl: Workload, traced: list[Pass], tracer: Tracer) -> list[str]:
    """Self and inclusive time per span name on the largest instances.

    Each figure is the smallest over the traced passes; shares are of the
    summed self times, which add up to the traced operations' time.
    """
    selfs, totals = [], []
    for ps in traced:
        ops = {op for op, (label, _) in zip(ps.ops, ps.latencies) if wl.largest in label}
        selfs.append(tracer.self_times(*ps.spans, ops=ops))
        totals.append(tracer.total_times(*ps.spans, ops=ops))
    names = sorted({name for split in selfs for name in split})
    rows = [(min(split.get(name, 0.0) for split in selfs),
             min(split.get(name, 0.0) for split in totals), name) for name in names]
    whole = sum(own for own, _, _ in rows) or 1.0
    out = [f"  {'span':30s} {'self s':>9s} {'share':>6s} {'inclusive s':>12s}"]
    out.extend(f"  {name:30s} {own:9.4f} {100 * own / whole:5.1f}% {incl:12.4f}"
               for own, incl, name in sorted(rows, reverse=True))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{wl.name}-") as workdir:
        return bench(wl, args, Path(workdir))


def bench(wl: Workload, args: argparse.Namespace, workdir: Path) -> int:
    """Set up, measure and check one run; input files go to workdir."""
    setup_speed = HostSpeed()
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            for _ in range(SETUP_PROBES):
                setup_speed.probe()
            began = time.perf_counter()
            mods = import_library()
            rng = random.Random(f"{wl.name}:{args.seed}")
            instances = wl.build(mods, rng, workdir)
            setup_times.append((began, time.perf_counter()))
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    for _ in range(SETUP_PROBES):
        setup_speed.probe()
    setup = [setup_speed.normalised(began, ended) for began, ended in setup_times]

    lines = [f"workload {wl.name}, seed {args.seed}, {len(instances)} instances per pass, "
             f"python {platform.python_version()}, one process, one thread"]
    problems: list[str] = []
    if args.trace:
        tracer = Tracer()
        kept: list = []
        untraced, traced = run_passes(wl, mods, instances, args.seconds, 2, tracer, kept)
        passes = untraced + traced
        mismatched = 0
        for inst, result in zip(instances, kept):
            square = None if isinstance(result, Exception) else wl.output_square(result)
            if square is not None and inst.p > 1 and inst.q > 1:
                mismatched += staged_square(mods, inst) != square
        if mismatched:
            problems.append(f"{mismatched} staged squares differ from complete()")
        spans_path = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
        labels = {op: label for ps in traced
                  for op, (label, _) in zip(ps.ops, ps.latencies)}
        tracer.dump(spans_path, labels)
        lines.append(f"{len(tracer.spans)} spans written to {spans_path}")
        lines.append(f"self time per layer on '{wl.largest}' instances:")
        lines.extend(largest_split(wl, traced, tracer))
    else:
        speed = HostSpeed()
        raw, _ = run_passes(wl, mods, instances, args.seconds, wl.min_passes, speed=speed)
        passes = normalise(raw, speed)
        lines.append(f"host slowness: median {statistics.median(speed.took) / REFERENCE_S:.3f} "
                     f"over {len(speed.took)} probes; wall_s before normalising "
                     f"{sum(median_latencies(raw)):.4f} s")

    attempted = sum(len(ps.latencies) for ps in passes)
    failed = sum(ps.failures for ps in passes)
    verdicts = passes[0].verdicts
    if any(ps.verdicts != verdicts for ps in passes):
        problems.append("verdicts differ between passes")
    if wl.all_completable:
        recorded = {"completable": len(instances)}
    else:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(wl.name, {})
        recorded = expected.get(str(args.seed))
    if recorded is None:
        lines.append(f"NOT CHECKED: expected.json holds no verdict counts for {wl.name} "
                     f"seed {args.seed}; only the other checks applied")
    elif recorded != dict(verdicts):
        problems.append(f"verdict counts {dict(verdicts)} differ from recorded {recorded}")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    if args.trace:
        metrics = per_layer(traced, untraced, tracer, verdicts)
    else:
        metrics = end_to_end(wl, instances, passes, setup, lines)
    lines.append("pass walls (s): " + " ".join(f"{ps.wall:.3f}" for ps in passes))
    lines.append(f"passes {len(passes)}, attempted {attempted}, failed {failed}, "
                 f"error_share {failed / attempted:.4f}")
    lines.append("verdicts per pass: " + json.dumps(dict(sorted(verdicts.items()))))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.extend("CHECK FAILED: " + problem for problem in problems)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
