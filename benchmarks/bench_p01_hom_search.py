"""P1 — substrate performance: homomorphism search scaling.

Times the CSP solver on positive and negative instances as the target
grows.  Shape: sub-second on all experiment-scale inputs; negative
odd-cycle coloring instances are the hardest (as CSP theory predicts).

Run as a script for the *repeated-query* mode, which replays a mixed
workload of recurring (source, target) pairs through the hom engine and
reports timing plus cache/solver counters as JSON::

    python benchmarks/bench_p01_hom_search.py --repeat 25
    python benchmarks/bench_p01_hom_search.py --repeat 25 --no-cache
    python benchmarks/bench_p01_hom_search.py --repeat 25 --compare

``--compare`` runs both configurations and reports the speedup (the
engine's acceptance bar is >= 5x with the cache on).

The *kernel-compare* mode races the compiled bitset kernel against the
reference backtracking solver on the same grid (memo caches off, so it
times solving, not caching), checks the verdicts agree on every
instance, and writes the machine-readable ``BENCH_hom.json`` next to
the journals under ``benchmarks/results/``::

    python benchmarks/bench_p01_hom_search.py --kernel-compare
    python benchmarks/bench_p01_hom_search.py --kernel-compare --grid tiny

The kernel's acceptance bar is a >= 5x median speedup on the medium
grid with zero disagreements.

The *batch* mode times one ``BatchSolveSession`` (one compiled target +
shared scratch for a whole query list) against a loop of single solves that
recompiles the target per query, and merges a ``batch`` section into
``BENCH_hom.json`` without clobbering the kernel-compare keys::

    python benchmarks/bench_p01_hom_search.py --batch

The batch acceptance bar is >= 2x over the recompile loop (the CI
bench-smoke gate asserts >= 1.0, i.e. batch-not-slower).

The *dp-compare* mode checks the treewidth-DP path against the
backtracking kernel on DP-eligible instances (low-treewidth sources
past the variable-count gate) and writes ``BENCH_dp.json``; its gate is
zero disagreements with ``dp_solves >= 1`` (the DP path actually ran)::

    python benchmarks/bench_p01_hom_search.py --dp-compare

``--only SUBSTRING`` filters the kernel-compare grid by instance name;
an unmatched filter is a structured error (exit 2) listing the valid
names.
"""

import argparse
import json
import os
import statistics
import sys
import time

import pytest

from repro.engine import HomEngine
from repro.exceptions import UnknownInstanceError
from repro.kernel import (
    BatchSolveSession,
    BitsetHomomorphismSolver,
    CompiledTarget,
)
from repro.structures import (
    directed_cycle,
    directed_path,
    path_with_random_chords,
    random_directed_graph,
    undirected_cycle,
    undirected_path,
)

# The microbenchmarks measure the *solver*, so they bypass the memo
# cache (pytest-benchmark replays each call many times and would
# otherwise time cache hits); the instrumentation stays on.
_UNCACHED = HomEngine(cache_enabled=False)


def _solve(source, target):
    return _UNCACHED.find_homomorphism(source, target)


@pytest.mark.parametrize("n", [8, 16, 32])
def bench_p01_path_into_random(benchmark, n):
    source = directed_path(6)
    target = random_directed_graph(n, 0.3, seed=n)
    result = benchmark(_solve, source, target)
    assert result is not None


@pytest.mark.parametrize("n", [5, 7, 9])
def bench_p01_odd_cycle_coloring_negative(benchmark, n):
    # no hom from odd cycle to K2: the classic hard negative
    source = undirected_cycle(n)
    target = undirected_path(2)
    result = benchmark(_solve, source, target)
    assert result is None


@pytest.mark.parametrize("size", [4, 6, 8])
def bench_p01_random_pairs(benchmark, size):
    source = random_directed_graph(size, 0.25, seed=1)
    target = random_directed_graph(size + 2, 0.35, seed=2)
    benchmark(_solve, source, target)


# ----------------------------------------------------------------------
# Repeated-query mode (script entry point)
# ----------------------------------------------------------------------
def repeated_query_workload():
    """The recurring (source, target) pairs the sweeps keep re-asking."""
    pairs = []
    for n in (7, 9, 11):
        # hard negatives: odd cycle has no 2-coloring
        pairs.append((undirected_cycle(n), undirected_path(2)))
    for n in (8, 16, 32):
        pairs.append((directed_path(6), random_directed_graph(n, 0.3, seed=n)))
    for size in (4, 6, 8):
        pairs.append((
            random_directed_graph(size, 0.25, seed=1),
            random_directed_graph(size + 2, 0.35, seed=2),
        ))
    return pairs


def run_repeated_queries(repeat: int, use_cache: bool) -> dict:
    """Replay the workload ``repeat`` times through a private engine."""
    pairs = repeated_query_workload()
    engine = HomEngine(cache_enabled=use_cache)
    found = 0
    started = time.perf_counter()
    for _ in range(repeat):
        for source, target in pairs:
            if engine.find_homomorphism(source, target) is not None:
                found += 1
    elapsed = time.perf_counter() - started
    snapshot = engine.snapshot()
    return {
        "mode": "repeated-query",
        "pairs": len(pairs),
        "repeat": repeat,
        "queries": repeat * len(pairs),
        "positive": found,
        "cache_enabled": use_cache,
        "elapsed_s": elapsed,
        "solver": snapshot["solver"],
        "cache": snapshot["cache"],
    }


# ----------------------------------------------------------------------
# Kernel-vs-reference compare mode (script entry point)
# ----------------------------------------------------------------------
def kernel_compare_workload(grid: str):
    """Named (source, target) pairs for the kernel/reference race.

    The ``medium`` grid is the acceptance grid: it includes the
    chorded-path refutations whose node-by-node AC-3 re-scans dominate
    the reference solver.  ``tiny`` is the CI smoke subset (seconds,
    not minutes, on a cold runner).
    """
    pairs = [
        ("odd-cycle-7-vs-k2", undirected_cycle(7), undirected_path(2)),
        ("odd-cycle-9-vs-k2", undirected_cycle(9), undirected_path(2)),
        ("path6-into-random-8",
         directed_path(6), random_directed_graph(8, 0.3, seed=8)),
        ("random-pair-4",
         random_directed_graph(4, 0.25, seed=1),
         random_directed_graph(6, 0.35, seed=2)),
        ("chorded-30-6-s1-vs-c7",
         path_with_random_chords(30, 6, seed=1), undirected_cycle(7)),
    ]
    if grid == "tiny":
        return pairs
    pairs += [
        ("odd-cycle-11-vs-k2", undirected_cycle(11), undirected_path(2)),
        ("path6-into-random-16",
         directed_path(6), random_directed_graph(16, 0.3, seed=16)),
        ("path6-into-random-32",
         directed_path(6), random_directed_graph(32, 0.3, seed=32)),
        ("random-pair-6",
         random_directed_graph(6, 0.25, seed=1),
         random_directed_graph(8, 0.35, seed=2)),
        ("random-pair-8",
         random_directed_graph(8, 0.25, seed=1),
         random_directed_graph(10, 0.35, seed=2)),
        ("chorded-40-8-s1-vs-c7",
         path_with_random_chords(40, 8, seed=1), undirected_cycle(7)),
        ("chorded-50-10-s3-vs-c7",
         path_with_random_chords(50, 10, seed=3), undirected_cycle(7)),
        ("chorded-60-12-s5-vs-c7",
         path_with_random_chords(60, 12, seed=5), undirected_cycle(7)),
    ]
    return pairs


def _time_solver(engine, source, target, repeat):
    """Best-of-``repeat`` wall time plus the first run's search counters."""
    best = float("inf")
    nodes = backtracks = 0
    found = None
    for attempt in range(repeat):
        before_nodes = engine.stats.nodes
        before_backtracks = engine.stats.backtracks
        started = time.perf_counter()
        result = engine.find_homomorphism(source, target)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        if attempt == 0:
            found = result is not None
            nodes = engine.stats.nodes - before_nodes
            backtracks = engine.stats.backtracks - before_backtracks
    return {
        "found": found,
        "best_s": best,
        "nodes": nodes,
        "backtracks": backtracks,
    }


def _load_existing_bench(name: str) -> dict:
    """The prior ``BENCH_<name>.json`` payload, wrapper fields stripped.

    Lets modes that share one bench file merge their sections instead
    of clobbering each other's keys.
    """
    from _json import RESULTS_DIR

    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(document, dict):
        return {}
    for key in ("schema_version", "bench", "unix_time", "python",
                "machine", "cpu_count", "json_path"):
        document.pop(key, None)
    return document


def filter_workload(pairs, only):
    """The instances whose name contains ``only`` (all if ``None``).

    Raises :class:`~repro.exceptions.UnknownInstanceError` when nothing
    matches, listing the valid names.
    """
    if only is None:
        return pairs
    matched = [row for row in pairs if only in row[0]]
    if not matched:
        raise UnknownInstanceError(only, [row[0] for row in pairs])
    return matched


def run_kernel_compare(grid: str, repeat: int, only=None) -> dict:
    """Race the bitset kernel against the reference solver per instance.

    Memo caches are disabled on both engines so the race times solving;
    the kernel engine still reuses its compiled target across repeats,
    exactly as the production engine does across queries.
    """
    # validate the filter before touching engines or result files, so
    # an unknown --only name fails fast and structurally
    workload = filter_workload(kernel_compare_workload(grid), only)
    from _json import write_bench_json

    reference = HomEngine(cache_enabled=False, use_kernel=False)
    kernel = HomEngine(cache_enabled=False, use_kernel=True)
    rows = []
    disagreements = []
    speedups = []
    for name, source, target in workload:
        ref = _time_solver(reference, source, target, repeat)
        ker = _time_solver(kernel, source, target, repeat)
        speedup = (
            ref["best_s"] / ker["best_s"] if ker["best_s"] > 0
            else float("inf")
        )
        speedups.append(speedup)
        if ref["found"] != ker["found"]:
            disagreements.append(name)
        rows.append({
            "instance": name,
            "found": ker["found"],
            "reference": ref,
            "kernel": ker,
            "speedup": speedup,
        })
    report = {
        "mode": "kernel-compare",
        "grid": grid,
        "repeat": repeat,
        "instances": len(rows),
        "disagreements": disagreements,
        "median_speedup": statistics.median(speedups),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "kernel_snapshot": kernel.snapshot()["compiled_targets"],
        "results": rows,
    }
    prior_batch = _load_existing_bench("hom").get("batch")
    if prior_batch is not None:
        report["batch"] = prior_batch
    report["json_path"] = write_bench_json("hom", report)
    return report


# ----------------------------------------------------------------------
# Batch-vs-loop compare mode (script entry point)
# ----------------------------------------------------------------------
def batch_workload():
    """One medium target plus a list of small recurring queries.

    The shape sweeps ask: many small patterns probed against one shared
    instance, where per-query target compilation dominates a naive loop.
    """
    target = random_directed_graph(64, 0.1, seed=64)
    sources = []
    for n in (2, 3, 4, 5, 6):
        sources.append((f"path-{n}", directed_path(n)))
    for n in (3, 4, 5):
        sources.append((f"cycle-{n}", directed_cycle(n)))
    for seed in range(6):
        sources.append((
            f"random-4-s{seed}",
            random_directed_graph(4, 0.3, seed=seed),
        ))
    for seed in range(4):
        sources.append((
            f"random-5-s{seed}",
            random_directed_graph(5, 0.25, seed=seed),
        ))
    # duplicates: every strategy searches them again (a batch session
    # memoizes no answer; repeats are the engine memo's)
    sources.append(("path-4-again", directed_path(4)))
    sources.append(("cycle-3-again", directed_cycle(3)))
    return target, sources


def _time_batch_strategies(target, sources, repeat):
    """Best-of-``repeat`` wall time for each solving strategy."""
    structures = [s for _, s in sources]

    def loop_singles():
        # the naive loop: a fresh target compilation for every query
        return [
            BitsetHomomorphismSolver(s, CompiledTarget(target)).first()
            for s in structures
        ]

    def engine_loop():
        engine = HomEngine(cache_enabled=False)
        return [engine.find_homomorphism(s, target) for s in structures]

    def batch():
        session = BatchSolveSession(target)
        return [session.solve(s) for s in structures]

    timings = {}
    verdicts = {}
    for name, strategy in (
        ("loop_singles", loop_singles),
        ("engine_loop", engine_loop),
        ("batch", batch),
    ):
        best = float("inf")
        for _ in range(repeat):
            started = time.perf_counter()
            results = strategy()
            best = min(best, time.perf_counter() - started)
        timings[name] = best
        verdicts[name] = [r is not None for r in results]
    return timings, verdicts


def run_batch_compare(repeat: int) -> dict:
    """Time a batch session against loops of single solves.

    Merges the report under the ``batch`` key of ``BENCH_hom.json``,
    preserving any kernel-compare results already there.
    """
    from _json import write_bench_json

    target, sources = batch_workload()
    timings, verdicts = _time_batch_strategies(target, sources, repeat)
    disagreements = [
        name
        for index, (name, _) in enumerate(sources)
        if len({verdicts[k][index] for k in verdicts}) > 1
    ]
    report = {
        "mode": "batch-compare",
        "repeat": repeat,
        "queries": len(sources),
        "target_size": target.size(),
        "found": sum(verdicts["batch"]),
        "disagreements": disagreements,
        "timings_s": timings,
        "speedup_vs_loop": (
            timings["loop_singles"] / timings["batch"]
            if timings["batch"] > 0 else float("inf")
        ),
        "speedup_vs_engine_loop": (
            timings["engine_loop"] / timings["batch"]
            if timings["batch"] > 0 else float("inf")
        ),
    }
    payload = _load_existing_bench("hom")
    payload["batch"] = report
    report["json_path"] = write_bench_json("hom", payload)
    return report


# ----------------------------------------------------------------------
# DP-vs-backtracking compare mode (script entry point)
# ----------------------------------------------------------------------
def dp_compare_workload():
    """DP-eligible instances: large low-treewidth sources.

    Cycles and paths have treewidth <= 2 and every source here has at
    least :data:`~repro.kernel.dp.DP_MIN_VARS` variables, so every
    instance routes through the tree-decomposition DP.
    """
    return [
        ("even-cycle-12-vs-k2", undirected_cycle(12), undirected_path(2)),
        ("odd-cycle-13-vs-k2", undirected_cycle(13), undirected_path(2)),
        ("even-cycle-18-vs-k2", undirected_cycle(18), undirected_path(2)),
        ("odd-cycle-19-vs-k2", undirected_cycle(19), undirected_path(2)),
        ("cycle-14-vs-c7", undirected_cycle(14), undirected_cycle(7)),
        ("cycle-15-vs-c5", undirected_cycle(15), undirected_cycle(5)),
        ("odd-13-vs-odd-15", undirected_cycle(13), undirected_cycle(15)),
        ("path-16-into-random-8",
         directed_path(16), random_directed_graph(8, 0.3, seed=8)),
    ]


def run_dp_compare(repeat: int) -> dict:
    """Race the treewidth DP against the plain backtracking kernel.

    The acceptance gate is *correctness*, not speed: zero verdict
    disagreements and proof (via the ``dp_solves`` counter) that the DP
    path actually handled the instances.  Writes ``BENCH_dp.json``.
    """
    from _json import write_bench_json

    dp_engine = HomEngine(cache_enabled=False, use_dp=True)
    bt_engine = HomEngine(cache_enabled=False, use_dp=False)
    rows = []
    disagreements = []
    for name, source, target in dp_compare_workload():
        dp = _time_solver(dp_engine, source, target, repeat)
        bt = _time_solver(bt_engine, source, target, repeat)
        if dp["found"] != bt["found"]:
            disagreements.append(name)
        rows.append({
            "instance": name,
            "found": dp["found"],
            "dp": dp,
            "backtracking": bt,
        })
    stats = dp_engine.stats
    report = {
        "mode": "dp-compare",
        "repeat": repeat,
        "instances": len(rows),
        "disagreements": disagreements,
        "dp_solves": stats.dp_solves,
        "dp_bags": stats.dp_bags,
        "dp_entries": stats.dp_entries,
        "results": rows,
    }
    report["json_path"] = write_bench_json("dp", report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repeated-query homomorphism benchmark (JSON output)"
    )
    parser.add_argument("--repeat", type=int, default=25,
                        help="times the workload is replayed "
                             "(kernel-compare: best-of runs per instance)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the engine's memo cache")
    parser.add_argument("--compare", action="store_true",
                        help="run cached and uncached, report the speedup")
    parser.add_argument("--kernel-compare", action="store_true",
                        help="race the bitset kernel against the reference "
                             "solver; writes BENCH_hom.json")
    parser.add_argument("--grid", choices=("tiny", "medium"),
                        default="medium",
                        help="kernel-compare instance grid")
    parser.add_argument("--only", metavar="SUBSTRING", default=None,
                        help="kernel-compare: restrict to instances whose "
                             "name contains SUBSTRING")
    parser.add_argument("--batch", action="store_true",
                        help="time a batch session against loops of "
                             "single solves; merges into BENCH_hom.json")
    parser.add_argument("--dp-compare", action="store_true",
                        help="check the treewidth DP against backtracking; "
                             "writes BENCH_dp.json")
    args = parser.parse_args(argv)

    # --repeat defaults to 25 for the replay mode; best-of-3 is plenty
    # for per-instance timing in the compare modes.
    best_of = 3 if args.repeat == 25 else args.repeat

    if args.kernel_compare:
        try:
            report = run_kernel_compare(args.grid, best_of, only=args.only)
        except UnknownInstanceError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(json.dumps(report, indent=2))
        return 0 if not report["disagreements"] else 1

    if args.batch:
        report = run_batch_compare(best_of)
        print(json.dumps(report, indent=2))
        return 0 if not report["disagreements"] else 1

    if args.dp_compare:
        report = run_dp_compare(best_of)
        print(json.dumps(report, indent=2))
        ok = not report["disagreements"] and report["dp_solves"] >= 1
        return 0 if ok else 1

    if args.compare:
        uncached = run_repeated_queries(args.repeat, use_cache=False)
        cached = run_repeated_queries(args.repeat, use_cache=True)
        report = {
            "mode": "repeated-query-compare",
            "repeat": args.repeat,
            "queries": cached["queries"],
            "cached": cached,
            "uncached": uncached,
            "speedup": (
                uncached["elapsed_s"] / cached["elapsed_s"]
                if cached["elapsed_s"] > 0 else float("inf")
            ),
            "cache": cached["cache"],
        }
        print(json.dumps(report, indent=2))
        return 0

    report = run_repeated_queries(args.repeat, use_cache=not args.no_cache)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
