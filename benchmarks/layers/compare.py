"""Compare two sets of layered-benchmark results (parent vs change).

    python3 benchmarks/layers/compare.py \\
        --parent parent-1.json [parent-2.json ...] \\
        --change change-1.json [change-2.json ...] \\
        [--claim p50_ms:hom-cold]

Inputs are ``BENCH_layers.json`` files written by ``run.py`` (all-
workload mode, ``--out`` to keep them apart); each side pools the runs
of its files in the order given.  One row per (metric, workload) shows
each side's median and quartiles and a verdict, judged by the bounds in
``BENCHMARK.json``:

* ``worse`` — the change's median is worse than the parent's by more
  than the parent's spread (IQR / median), but at least 10% and at most
  the bound (for ``fail_ratio``: any increase);
* ``unresolved`` — the parent's own spread (IQR / median) exceeds the
  bound, and not every change run beats every parent run;
* ``better`` — better by more than the parent's IQR (or, under a wide
  spread, every change run beats every parent run);
* ``no-worse`` — otherwise.

``--claim metric:workload`` applies the gain rule: at least 10 pairs
(parent run *i* against change run *i*; alternate which side runs
first when producing them), the change winning at least 9 in 10 (ties
count for neither), and a median gap larger than the parent's IQR.

Exit status: 0, or 1 when any row is ``worse`` or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")

#: Reported by run.py but not in BENCHMARK.json (which admits only
#: metrics that are never 0): direction and bound.
EXTRA_METRICS = {"fail_ratio": ("lower", 0.0)}

#: A pair whose parent runs spread less than this is judged at this
#: bound, not at BENCHMARK.json's, which holds one bound per metric and
#: so must cover the noisiest workload.
DEFAULT_BOUND = 0.10

#: Pairs and win share the gain rule requires.
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def load_runs(paths: List[str]) -> Dict[str, List[Dict[str, float]]]:
    """Per workload, every run's metric values across ``paths``."""
    runs: Dict[str, List[Dict[str, float]]] = {}
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        for name, row in report["workloads"].items():
            runs.setdefault(name, []).extend(r["values"] for r in row["runs"])
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(parent: List[float], change: List[float], better: str,
          bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0.0:
        return "worse" if sign * (max(change) - max(parent)) > 0 \
            else "no-worse"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    if spread > bound:
        return "better" if all_better else "unresolved"
    worse_by = sign * (cm - pm) / abs(pm)
    if worse_by > min(bound, max(DEFAULT_BOUND, spread)):
        return "worse"
    if -sign * (cm - pm) > p3 - p1:
        return "better"
    return "no-worse"


def claim_met(parent: List[float], change: List[float],
              better: str) -> Tuple[bool, str]:
    if not parent or not change:
        return False, "no runs"
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    gap = -sign * (quartiles(change)[1] - pm)
    met = (len(pairs) >= CLAIM_MIN_PAIRS
           and wins >= CLAIM_WIN_SHARE * len(pairs)
           and gap > p3 - p1)
    return met, (f"{wins}/{len(pairs)} pairs won, median gap {gap:.6g} "
                 f"vs parent IQR {p3 - p1:.6g}")


def metric_table(spec) -> Dict[str, Tuple[str, float]]:
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update(EXTRA_METRICS)
    return table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD")
    args = parser.parse_args(argv)
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    metrics = metric_table(spec)
    parent, change = load_runs(args.parent), load_runs(args.change)

    status = 0
    print(f"{'metric':12s} {'workload':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric, (better, bound) in metrics.items():
            p_runs = [r[metric] for r in parent.get(workload, [])
                      if r.get(metric) is not None]
            c_runs = [r[metric] for r in change.get(workload, [])
                      if r.get(metric) is not None]
            if not p_runs or not c_runs:
                continue
            verdict = judge(p_runs, c_runs, better, bound)
            if verdict == "worse":
                status = 1
            cells = []
            for runs in (p_runs, c_runs):
                q1, med, q3 = quartiles(runs)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{metric:12s} {workload:12s} {cells[0]:>34s} "
                  f"{cells[1]:>34s}  {verdict}")
    for claim in args.claim:
        metric, _, workload = claim.partition(":")
        if metric not in metrics or not workload:
            print(f"claim {claim!r}: expected METRIC:WORKLOAD with a "
                  f"metric from {sorted(metrics)}", file=sys.stderr)
            return 2
        p_runs = [r[metric] for r in parent.get(workload, [])]
        c_runs = [r[metric] for r in change.get(workload, [])]
        met, detail = claim_met(p_runs, c_runs, metrics[metric][0])
        print(f"claim {metric} on {workload}: "
              f"{'met' if met else 'NOT met'} ({detail})")
        if not met:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
