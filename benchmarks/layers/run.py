"""Layered hom-decision benchmark: end-to-end and per-layer numbers.

    python3 benchmarks/layers/run.py --workload hom-cold --seed 1 \\
        --seconds 15 --trace 0          # one run, one JSON result line
    python3 benchmarks/layers/run.py [--seed N | --seeds N] [--trace]
                                     [--smoke]
                                        # every workload; writes results/

Each run spawns the workload in a fresh process (``workload.py``), so no
global cache, pool or server carries from one workload into another.
Set-up is timed ``SETUP_REPS`` times per run — spawn to ``READY``, the
last time in the measured process — and reported as the median.  Like
every time the benchmark reports, it is scaled to the reference machine
speed (``speed.py``).  Every answer is checked; a wrong, refused,
overloaded, UNKNOWN or erroring op counts as failed, and any failure
makes the run incorrect and the exit code nonzero.

With ``--workload`` the last stdout line is one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"p50_ms": {"value": 4.8, "unit": "ms"}, ...}}

holding every ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``)
or every ``per_layer`` one (``--trace 1``, measured by a separate traced
run).  Without ``--workload`` it runs every workload ``--runs`` times
untraced, or once per seed with ``--seeds`` (plus once traced with
``--trace``), prints each metric by name and unit, and writes
``results/BENCH_layers.json`` (per-run values and set-up times; median,
quartiles and spread; ``cpu_count``, python, seed, git rev).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOAD = os.path.join(HERE, "workload.py")
RESULTS = os.path.join(HERE, "results")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
sys.path.insert(0, HERE)

import speed  # noqa: E402
from tracing import UNITS as LAYER_UNITS  # noqa: E402

#: Set-ups timed per run; the median is reported as ``setup_s``.
SETUP_REPS = 5
#: Smoke runs take the same path at this share of the time and ops.
SMOKE_SCALE = 0.1
#: A run's process must finish within this many seconds.
RUN_TIMEOUT_S = 170.0
#: Workloads whose traced run differs in shape from the untraced one
#: (spans do not cross processes, so the sweep is traced serially and
#: the server in-process, without the max_rps probes).
TRACED_DIFFERENTLY = ("serve-mixed", "sweep-hom")


class RunFailed(Exception):
    """A workload process failed to start, crashed or timed out."""


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def spawn(workload: str, seed: int, seconds: float, trace: int,
          scale: float, setup_only: bool) -> subprocess.Popen:
    command = [sys.executable, WORKLOAD, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scale", str(scale)]
    if setup_only:
        command.append("--setup-only")
    # Pinned to the vCPUs its speed is sampled on (a single-threaded
    # workload to one), and in its own process group, so a kill also
    # reaches the server or pool workers it started.
    cpus = speed.cpus_of(workload)
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))


def kill(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


def finish(process: subprocess.Popen, timeout: float) -> str:
    """Wait for ``process``; its remaining stdout, or :class:`RunFailed`."""
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill(process)
        raise RunFailed("workload process timed out") from None
    if process.returncode != 0:
        raise RunFailed(f"workload process exited {process.returncode}")
    return out


def timed_setup(process: subprocess.Popen, started: float) -> float:
    line = process.stdout.readline()
    if line.strip() != "READY":
        kill(process)
        raise RunFailed("workload process did not get ready")
    return time.perf_counter() - started


def run_once(workload: str, seed: int, seconds: float, trace: int,
             scale: float, setup_reps: int) -> Dict[str, Any]:
    """One run: ``setup_reps - 1`` set-up-only processes, then the
    measured one; the result carries the median set-up time, each one
    scaled by a speed sample taken just before its spawn."""
    setups: List[float] = []
    raw_setups: List[float] = []
    for rep in range(setup_reps):
        factor = speed.factor(speed.sample(speed.cpus_of(workload)))
        started = time.perf_counter()
        process = spawn(workload, seed, seconds, trace, scale,
                        setup_only=rep < setup_reps - 1)
        try:
            raw_setups.append(timed_setup(process, started))
            out = finish(process, RUN_TIMEOUT_S)
        except BaseException:
            if process.returncode is None:
                kill(process)
            raise
        setups.append(raw_setups[-1] * factor)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RunFailed("workload process printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_runs_s"] = setups
    result["raw"]["setup_s"] = statistics.median(raw_setups)
    attempted = result["ops"]
    result["fail_ratio"] = result["failed"] / attempted
    result["correct"] = result["failed"] == 0 and not result.get(
        "missing_spans")
    return result


def metric_values(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Every metric a run produced, by name (layers for traced runs)."""
    if trace:
        return dict(result["layers"])
    values = {name: result[name] for name in
              ("setup_s", "p50_ms", "p99_ms", "ops_per_s", "peak_rss_mb",
               "fail_ratio")}
    if "max_rps" in result["info"]:
        values["max_rps"] = result["info"]["max_rps"]
    return values


def print_metrics(workload: str, values: Dict[str, Any],
                  units: Dict[str, str]) -> None:
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:12s} {name:28s} {shown:>12s} "
              f"{units.get(name, '')}")


def units_of(spec: Dict[str, Any]) -> Dict[str, str]:
    units = dict(LAYER_UNITS)
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"]})
    units.update({"fail_ratio": "ratio", "max_rps": "req/s"})
    return units


def single(args, spec: Dict[str, Any]) -> int:
    """One run of one workload; the last line printed is its JSON result."""
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = args.seconds * scale
    try:
        # A traced run reports no set-up time, so it sets up once.
        result = run_once(args.workload, args.seed, seconds, args.trace,
                          scale, 1 if args.trace else SETUP_REPS)
    except RunFailed as err:
        print(f"run.py: {args.workload}: {err}", file=sys.stderr)
        return 1
    values = metric_values(result, bool(args.trace))
    units = units_of(spec)
    print_metrics(args.workload, values, units)
    for error in result.get("errors", []):
        print(f"{args.workload}: wrong answer: {error}", file=sys.stderr)
    for target in result.get("missing_spans", []):
        print(f"{args.workload}: no span from {target}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {
        "correct": result["correct"],
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def quartiles(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and spread (IQR ÷ median) of ``values``."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def git_rev() -> str:
    """The checkout's commit, ``-dirty`` when it has local changes."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def full(args, spec: Dict[str, Any]) -> int:
    """Every workload: ``--runs`` untraced runs at ``--seed`` or one per
    seed 1..``--seeds`` (plus one traced run with ``--trace``), printed
    and written to ``BENCH_layers.json``."""
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = args.seconds * scale
    seeds = (list(range(1, args.seeds + 1)) if args.seeds
             else [args.seed] * args.runs)
    units = units_of(spec)
    report: Dict[str, Any] = {
        "benchmark": "layers",
        "schema_version": 1,
        "git_rev": git_rev(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seeds": seeds,
        "seconds": seconds,
        "smoke": args.smoke,
        "units": units,
        "workloads": {},
    }
    correct = True
    for entry in spec["workloads"]:
        name = entry["name"]
        runs: List[Dict[str, Any]] = []
        for seed in seeds:
            try:
                result = run_once(name, seed, seconds, 0, scale,
                                  SETUP_REPS)
            except RunFailed as err:
                print(f"run.py: {name}: {err}", file=sys.stderr)
                return 1
            correct &= result["correct"]
            runs.append({"seed": seed,
                         "values": metric_values(result, False),
                         "raw": result["raw"],
                         "speed_factor": result["speed_factor"],
                         "setups_s": result["setup_runs_s"],
                         "attempted": result["ops"],
                         "failed": result["failed"],
                         "errors": result.get("errors", []),
                         "info": result.get("info", {})})
        names = runs[0]["values"]
        stats = {
            metric: quartiles([run["values"][metric] for run in runs])
            for metric in names
        }
        print_metrics(name, {m: s["median"] for m, s in stats.items()},
                      units)
        row: Dict[str, Any] = {"why": entry["why"], "runs": runs,
                               "stats": stats}
        if args.trace:
            try:
                traced = run_once(name, args.seed, seconds, 1, scale, 1)
            except RunFailed as err:
                print(f"run.py: {name} (traced): {err}", file=sys.stderr)
                return 1
            correct &= traced["correct"]
            layers = traced["layers"]
            # Comparable only when the traced run has the same shape: the
            # sweep is traced with one worker.
            overhead = None if name in TRACED_DIFFERENTLY else (
                1 - traced["ops_per_s"] / stats["ops_per_s"]["median"])
            row["trace"] = {
                "layers": layers,
                "missing_spans": traced.get("missing_spans", []),
                "overhead": overhead,
                "unattributed_share":
                    layers["unattributed.ms"] / layers["op.ms"],
            }
            print_metrics(name, layers, units)
            shown = "n/a" if overhead is None else f"{100 * overhead:.1f}%"
            print(f"{name:12s} {'tracing overhead':28s} {shown:>12s} "
                  "ops_per_s")
            print(f"{name:12s} {'unattributed share':28s} "
                  f"{100 * row['trace']['unattributed_share']:11.1f}% op.ms")
        report["workloads"][name] = row
    report["correct"] = correct
    out = args.out or os.path.join(
        RESULTS, "smoke" if args.smoke else "", "BENCH_layers.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(out, ROOT)}")
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    # SIGTERM unwinds like Ctrl-C, so the running workload is killed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: src/repro not found next to benchmarks/; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="same code path at a tenth of the ops")
    parser.add_argument("--runs", type=int,
                        help="untraced runs per workload (all-workload "
                             "mode; default 5, 1 with --smoke)")
    parser.add_argument("--seeds", type=int,
                        help="one untraced run per seed 1..SEEDS instead "
                             "of --runs runs at --seed (all-workload mode)")
    parser.add_argument("--out", help="result file (all-workload mode; "
                                      "default results/BENCH_layers.json, "
                                      "results/smoke/ with --smoke)")
    args = parser.parse_args(argv)
    if args.runs is None:
        args.runs = 1 if args.smoke else 5
    return single(args, spec) if args.workload else full(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
