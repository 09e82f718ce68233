"""Incremental Datalog benchmark: DRed maintenance vs from-scratch.

Races :class:`~repro.incremental.IncrementalFixpoint` (DRed
maintenance) against ``evaluate_semi_naive`` from scratch on one edit
stream: transitive closure over many disjoint components with
single-component edits.  Hom re-decision under edits is timed by the
layered benchmark's ``edit-stream`` workload and checked by the
incremental differential tier (``tests/test_incremental_differential.py``).

Every step's maintained relation is checked against the from-scratch
one — ``disagreements`` must stay empty — and the report carries the
per-step speedups and the ``median_speedup`` the CI bench gate asserts
on.  Writes ``benchmarks/results/BENCH_incr.json``::

    python benchmarks/bench_incr.py
    python benchmarks/bench_incr.py --steps 5 --smoke
"""

import argparse
import json
import random
import statistics
import time

from repro.datalog.evaluation import evaluate_semi_naive
from repro.datalog.program import parse_program
from repro.engine.instrumentation import INCREMENTAL
from repro.incremental import Delta, IncrementalFixpoint
from repro.structures import Structure, Vocabulary

GRAPH = Vocabulary({"E": 2})


def rebuilt(structure):
    """A fresh instance equal to ``structure`` (no cached state)."""
    return Structure(
        structure.vocabulary,
        structure.universe,
        {
            name: structure.relation(name)
            for name in structure.vocabulary.relation_names
        },
        structure.constants,
    )


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


TC_PROGRAM = parse_program(
    "T(x, y) <- E(x, y).\nT(x, z) <- E(x, y), T(y, z).", GRAPH
)


def datalog_stream(steps, seed=3, components=40, length=7):
    """Yield ``(incr_s, scratch_s, agree)`` per edit.

    Transitive closure over many disjoint path components; each edit
    toggles a chord inside ONE component, so DRed maintenance touches
    a 1/components fraction of what the from-scratch evaluation
    recomputes.  Edits are addition-biased: DRed's rederivation phase
    re-runs full joins, so deletions are the scheme's worst case and
    appear at a realistic minority rate.
    """
    rng = random.Random(seed)
    facts = []
    for c in range(components):
        base = c * length
        facts.extend(
            (base + i, base + i + 1) for i in range(length - 1)
        )
    structure = Structure(
        GRAPH, range(components * length), {"E": facts}
    )
    fix = IncrementalFixpoint(TC_PROGRAM, structure)
    fix.relation("T")
    added = []
    for _ in range(steps):
        if added and rng.random() < 0.25:
            tup = added.pop(rng.randrange(len(added)))
            delta = Delta(remove_facts=[("E", tup)])
        else:
            while True:
                base = rng.randrange(components) * length
                a = base + rng.randrange(length - 2)
                tup = (a, a + 2)
                if not fix.structure.has_fact("E", tup):
                    break
            added.append(tup)
            delta = Delta(add_facts=[("E", tup)])

        def incr():
            fix.apply(delta)
            return fix.relation("T")

        incr_s, got = _timed(incr)
        scratch_s, result = _timed(
            lambda: evaluate_semi_naive(TC_PROGRAM, rebuilt(fix.structure))
        )
        yield incr_s, scratch_s, got == set(result.relations["T"])


# ----------------------------------------------------------------------
def run(steps):
    INCREMENTAL.reset()
    disagreements = []
    incr_total = scratch_total = 0.0
    speedups = []
    for step, (incr_s, scratch_s, agree) in enumerate(datalog_stream(steps)):
        if not agree:
            disagreements.append(step)
        incr_total += incr_s
        scratch_total += scratch_s
        speedups.append(scratch_s / max(incr_s, 1e-9))
    return {
        "mode": "incr-compare",
        "workload": "datalog",
        "steps": steps,
        "disagreements": disagreements,
        "incremental_s": incr_total,
        "scratch_s": scratch_total,
        "median_speedup": statistics.median(speedups),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "incremental": INCREMENTAL.snapshot(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="incremental vs from-scratch Datalog edit-stream "
        "benchmark (writes BENCH_incr.json)"
    )
    parser.add_argument(
        "--steps", type=int, default=40, help="edits in the stream"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert only correctness (zero disagreements), not speedups",
    )
    args = parser.parse_args(argv)

    report = run(args.steps)
    from _json import write_bench_json

    report["json_path"] = write_bench_json("incr", report)
    print(json.dumps(report, indent=2))
    if report["disagreements"]:
        return 1
    if not args.smoke and report["median_speedup"] < 5.0:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
