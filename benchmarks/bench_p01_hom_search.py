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

Solver speed end to end is timed by the layered benchmark
(``benchmarks/layers``: hom-cold, hom-warm, edit-stream), and every
answer path (reference solver, kernel, batch handle, forced DP) is
checked against brute force by ``tests/oracle.py``.
"""

import argparse
import json
import time

import pytest

from repro.engine import HomEngine
from repro.structures import (
    directed_path,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repeated-query homomorphism benchmark (JSON output)"
    )
    parser.add_argument("--repeat", type=int, default=25,
                        help="times the workload is replayed")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the engine's memo cache")
    parser.add_argument("--compare", action="store_true",
                        help="run cached and uncached, report the speedup")
    args = parser.parse_args(argv)

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
