"""P3 — substrate performance: exact treewidth and minor search.

Times the branch-and-bound treewidth solver and the minor tester on the
graph families the experiments sweep.

Run as a script for the *governed sweep* mode: every instance runs under
a per-instance deadline with graceful degradation to the heuristic upper
bound, and each result is checkpointed to an append-only journal under
``benchmarks/results/`` the moment it completes — killing the sweep and
rerunning it resumes after the last finished instance::

    python benchmarks/bench_p03_treewidth.py --deadline 5
    python benchmarks/bench_p03_treewidth.py --deadline 5   # resumes
    python benchmarks/bench_p03_treewidth.py --fresh        # start over

The sweep runs through :func:`repro.parallel.run_sweep`; ``--workers N``
fans the instances out over a process pool (per-instance governors are
re-installed inside each worker), and ``--compare-workers N`` races the
serial and parallel paths to report the wall-clock speedup.  Either way
the machine-readable ``BENCH_sweep.json`` lands next to the journal.
"""

import argparse
import json
import os

import pytest

from repro.graphtheory import (
    complete_graph,
    cycle_graph,
    grid_graph,
    has_clique_minor,
    is_planar,
    k_tree,
    random_graph,
    random_tree,
    treewidth_exact,
)


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (4, 4)])
def bench_p03_treewidth_grid(benchmark, dims):
    g = grid_graph(*dims)
    result = benchmark(treewidth_exact, g)
    assert result == min(dims)


@pytest.mark.parametrize("n", [20, 40])
def bench_p03_treewidth_tree(benchmark, n):
    g = random_tree(n, seed=n)
    assert benchmark(treewidth_exact, g) == 1


@pytest.mark.parametrize("n", [8, 10, 12])
def bench_p03_treewidth_random(benchmark, n):
    g = random_graph(n, 0.35, seed=n)
    benchmark(treewidth_exact, g)


@pytest.mark.parametrize("n", [25, 45])
def bench_p03_treewidth_2tree(benchmark, n):
    g = k_tree(2, n, seed=n)
    assert benchmark(treewidth_exact, g) == 2


def bench_p03_minor_k4_in_grid(benchmark):
    g = grid_graph(3, 3)
    assert benchmark(has_clique_minor, g, 4)


def bench_p03_minor_negative_k5_in_cycle(benchmark):
    g = cycle_graph(12)
    assert not benchmark(has_clique_minor, g, 5)


@pytest.mark.parametrize("dims", [(3, 4), (4, 4)])
def bench_p03_planarity_grid(benchmark, dims):
    g = grid_graph(*dims)
    assert benchmark(is_planar, g)


def bench_p03_planarity_negative(benchmark):
    assert not benchmark(is_planar, complete_graph(6))


# ----------------------------------------------------------------------
# Governed, resumable sweep (script entry point)
# ----------------------------------------------------------------------
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
DEFAULT_JOURNAL = os.path.join(RESULTS_DIR, "treewidth_sweep.jsonl")


def sweep_instances(only=None):
    """The (key, spec) pairs the sweep covers, in a deterministic order
    (shared with ``repro sweep treewidth`` via the registry).  ``only``
    keeps the keys containing the substring; an unmatched filter raises
    :class:`~repro.exceptions.UnknownInstanceError`."""
    from repro.parallel.sweeps import filter_instances, treewidth_instances

    instances = treewidth_instances()
    if only is not None:
        instances = filter_instances(instances, only)
    return instances


def _count_fallbacks(results: dict) -> int:
    return sum(
        1
        for record in results.values()
        if record
        and record.get("status") == "ok"
        and not record["result"]["exact"]
    )


def run_sweep(journal_path: str, deadline_s: float, limit: int,
              fresh: bool, workers: int = 1, only=None) -> dict:
    """Run the governed treewidth sweep, resuming from the journal.

    The work goes through :func:`repro.parallel.run_sweep`: each
    instance runs under its own deadline (re-installed inside the
    worker when ``workers > 1``) and degrades to the heuristic upper
    bound on a trip; every completion is flushed to the journal the
    moment it lands, so an interrupted sweep loses at most the
    instances in flight.
    """
    import functools

    from repro.parallel import run_sweep as parallel_sweep
    from repro.parallel.sweeps import treewidth_task
    from repro.resources import SweepJournal

    os.makedirs(os.path.dirname(journal_path), exist_ok=True)
    journal = SweepJournal(journal_path)
    outcome = parallel_sweep(
        functools.partial(treewidth_task, limit=limit),
        sweep_instances(only),
        workers=workers,
        deadline_s=deadline_s,
        journal=journal,
        fresh=fresh,
        mode="treewidth-sweep",
    )
    report = outcome.to_dict()
    report["journal"] = journal_path
    report["fallbacks"] = _count_fallbacks(report["results"])
    return report


def run_worker_compare(deadline_s: float, limit: int, workers: int,
                       only=None) -> dict:
    """Race the serial path against ``workers`` processes (no journal,
    so both runs compute everything) and report the wall-clock speedup.

    On a single-core box the parallel run measures pure overhead; the
    report carries ``cpu_count`` so consumers can gate expectations on
    the hardware instead of pretending a speedup where none is possible.
    """
    import functools

    from repro.parallel import run_sweep as parallel_sweep
    from repro.parallel.sweeps import treewidth_task

    task = functools.partial(treewidth_task, limit=limit)
    instances = sweep_instances(only)
    serial = parallel_sweep(
        task, instances, workers=1, deadline_s=deadline_s,
        mode="treewidth-sweep-serial",
    )
    parallel = parallel_sweep(
        task, instances, workers=workers, deadline_s=deadline_s,
        mode="treewidth-sweep-parallel",
    )
    return {
        "mode": "treewidth-worker-compare",
        "workers": workers,
        "serial_elapsed_s": serial.elapsed_s,
        "parallel_elapsed_s": parallel.elapsed_s,
        "parallel_used_pool": parallel.parallel,
        "speedup": (
            serial.elapsed_s / parallel.elapsed_s
            if parallel.elapsed_s > 0 else float("inf")
        ),
        "serial": serial.to_dict(),
        "parallel": parallel.to_dict(),
    }


def run_fault_bench(fault_rate: float, workers: int, instances: int = 24,
                    seed: int = 20260806) -> dict:
    """Measure the supervised runtime's recovery under worker crashes.

    Each instance crashes its worker with probability ``fault_rate``
    (seeded, at most once per instance); the report carries the
    retry/quarantine/rebuild counters and a correctness check that
    every instance still produced its exact value — supervision pays
    for itself by losing nothing.  The fault-free cost of supervision
    is timed by the layered benchmark's ``sweep-hom`` workload.
    """
    import tempfile
    import time as _time

    from repro.parallel import RetryPolicy
    from repro.parallel import run_sweep as parallel_sweep
    from repro.parallel.faults import faulty_task

    with tempfile.TemporaryDirectory() as sentinel_dir:
        faulted_workload = [
            (f"chaos-{i}", ("chaotic", seed + i, fault_rate, sentinel_dir, i))
            for i in range(instances)
        ]
        started = _time.perf_counter()
        faulted = parallel_sweep(
            faulty_task, faulted_workload, workers=workers,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
            mode="fault-bench-faulted",
        )
        faulted_s = _time.perf_counter() - started
    wrong = [
        key for key, record in faulted.results.items()
        if record.get("status") != "ok"
        or record["result"]["value"] != int(key.rsplit("-", 1)[1])
    ]
    return {
        "mode": "treewidth-fault-bench",
        "workers": workers,
        "instances": instances,
        "fault_rate": fault_rate,
        "seed": seed,
        "faulted_elapsed_s": faulted_s,
        "faulted_retries": faulted.retries,
        "faulted_quarantined": faulted.quarantined,
        "faulted_pool_rebuilds": faulted.pool_rebuilds,
        "faulted_worker_crashes": faulted.worker_crashes,
        "faulted_incorrect_instances": wrong,
        "no_silent_loss": not wrong,
    }


def run_shard_bench(shards: int, workers: int, instances: int = 48,
                    work_s: float = 0.15, repeats: int = 3,
                    hard_timeout_s: float = 30.0) -> dict:
    """Measure the sharded runtime's fault-free overhead at ``shards``.

    The same sleep-task workload runs twice, best of ``repeats`` each:

    * **baseline** — one :func:`repro.parallel.run_sweep` over the full
      grid with ``workers`` processes (the single-host path);
    * **sharded** — one runner working a fresh shard directory through
      :func:`repro.distributed.run_sharded_sweep`: ``shards`` leases
      claimed in turn, each shard swept with the same pool width, every
      record landing in a fenced per-shard journal.

    The lease protocol, heartbeats, fencing stamps, and per-shard pool
    turnover must cost < 10% wall clock when nothing goes wrong, and
    the merged journals must equal the baseline modulo timing fields.
    """
    import tempfile
    import time as _time

    from repro.distributed import (
        merge_journals,
        run_sharded_sweep,
        shard_journal_paths,
    )
    from repro.distributed.merge import normalize_results
    from repro.parallel import run_sweep as parallel_sweep
    from repro.parallel.faults import faulty_task

    workload = [
        (f"work-{i:03d}", ("work", work_s, i)) for i in range(instances)
    ]

    baseline_s = float("inf")
    baseline_results = None
    for _ in range(repeats):
        started = _time.perf_counter()
        outcome = parallel_sweep(
            faulty_task, workload, workers=workers,
            hard_timeout_s=hard_timeout_s, mode="shard-bench-baseline",
        )
        baseline_s = min(baseline_s, _time.perf_counter() - started)
        assert outcome.computed == instances
        baseline_results = outcome.results

    sharded_s = float("inf")
    merged = None
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as shard_dir:
            started = _time.perf_counter()
            outcome = run_sharded_sweep(
                faulty_task, workload, shard_dir=shard_dir, shards=shards,
                runner_id="bench", workers=workers,
                hard_timeout_s=hard_timeout_s,
            )
            sharded_s = min(sharded_s, _time.perf_counter() - started)
            assert outcome.complete
            merged = merge_journals(
                shard_journal_paths(shard_dir, shards),
                expected_keys=[key for key, _ in workload],
            )
            assert merged.clean

    overhead_pct = (
        (sharded_s - baseline_s) / baseline_s * 100
        if baseline_s > 0 else 0.0
    )
    equivalent = (
        normalize_results(merged.results)
        == normalize_results(baseline_results)
    )
    return {
        "mode": "treewidth-shard-bench",
        "shards": shards,
        "workers": workers,
        "instances": instances,
        "work_s": work_s,
        "repeats": repeats,
        "baseline_elapsed_s": baseline_s,
        "sharded_elapsed_s": sharded_s,
        "sharding_overhead_pct": overhead_pct,
        "overhead_budget_pct": 10.0,
        "overhead_within_budget": overhead_pct < 10.0,
        "merged_equals_baseline": equivalent,
        "merged_fenced_out": merged.fenced_out,
        "merged_findings": merged.findings,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="governed, resumable treewidth sweep (JSON output)"
    )
    parser.add_argument("--deadline", type=float, default=10.0,
                        help="per-instance wall-clock deadline in seconds")
    parser.add_argument("--limit", type=int, default=40,
                        help="exact-solver vertex limit before fallback")
    parser.add_argument("--journal", default=DEFAULT_JOURNAL,
                        help="checkpoint journal path")
    parser.add_argument("--fresh", action="store_true",
                        help="discard the journal and start over")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = serial in-process)")
    parser.add_argument("--compare-workers", type=int, default=None,
                        metavar="N",
                        help="race serial vs N workers, report the speedup")
    parser.add_argument("--fault-rate", type=float, default=None,
                        metavar="P",
                        help="fault-injection mode: measure recovery "
                             "under per-instance crash probability P; "
                             "emits BENCH_faults.json")
    parser.add_argument("--shards", type=int, default=None, metavar="K",
                        help="sharded-runtime mode: measure the lease/"
                             "fencing/journal overhead of one runner "
                             "working K shards vs the single-host sweep "
                             "(fault-free); emits BENCH_shards.json")
    parser.add_argument("--only", metavar="SUBSTRING", default=None,
                        help="sweep/compare modes: restrict to instances "
                             "whose name contains SUBSTRING (unknown "
                             "filters exit 2 with the valid names)")
    args = parser.parse_args(argv)

    import sys

    from _json import write_bench_json
    from repro.exceptions import UnknownInstanceError

    try:
        if args.shards is not None:
            report = run_shard_bench(
                args.shards, workers=max(args.workers, 2)
            )
            report["json_path"] = write_bench_json("shards", report)
        elif args.fault_rate is not None:
            report = run_fault_bench(
                args.fault_rate, workers=max(args.workers, 2)
            )
            report["json_path"] = write_bench_json("faults", report)
        elif args.compare_workers is not None:
            report = run_worker_compare(
                args.deadline, args.limit, args.compare_workers,
                only=args.only,
            )
            report["json_path"] = write_bench_json("sweep", report)
        else:
            report = run_sweep(
                args.journal, args.deadline, args.limit, args.fresh,
                workers=args.workers, only=args.only,
            )
            report["json_path"] = write_bench_json("sweep", report)
    except UnknownInstanceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
