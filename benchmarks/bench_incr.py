"""Incremental engine benchmark: edit streams, warm vs from-scratch.

Races the incremental engine against a from-scratch baseline on
small-edit streams over mutating structures, one stream per workload:

* ``hom-true`` — a TRUE homomorphism query under benign edits: warm
  witness revalidation vs a fresh governed search per edit.
* ``hom-false`` — a FALSE query under hardening edits: monotonicity
  warm starts vs re-proving FALSE by exhaustion per edit.
* ``datalog`` — transitive closure over many disjoint components with
  single-component edits: DRed maintenance vs ``evaluate_semi_naive``
  from scratch.

Every step's incremental answer is checked against the from-scratch
answer — ``disagreements`` must stay empty — and the report carries
per-step speedups, per-workload medians and the overall
``median_speedup`` the CI bench gate asserts on.  Writes
``benchmarks/results/BENCH_incr.json``::

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
from repro.engine.engine import HomEngine
from repro.engine.instrumentation import INCREMENTAL
from repro.incremental import (
    Delta,
    IncrementalFixpoint,
    IncrementalHomSession,
)
from repro.structures import (
    Structure,
    Vocabulary,
    undirected_cycle,
)

GRAPH = Vocabulary({"E": 2})


def rebuilt(structure):
    """A fresh instance equal to ``structure`` (no cached WL state)."""
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


# ----------------------------------------------------------------------
# Workloads — each yields (incr_s, scratch_s, agree) per step
# ----------------------------------------------------------------------
def hom_true_stream(steps, seed=1, n=450, edges=600):
    # A random 3-colorable source (hidden 3-partition, cross-class
    # edges only) mapping into the triangle.  Toggling cross-class
    # edges keeps the coloring witness alive, so every edit warm-starts
    # on an O(facts) revalidation while the from-scratch baseline
    # re-runs a genuine 3-coloring search.
    rng = random.Random(seed)
    cls = {i: i % 3 for i in range(n)}
    chosen = set()
    while len(chosen) < edges:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and cls[a] != cls[b]:
            chosen.add((min(a, b), max(a, b)))
    facts = sorted(
        {(a, b) for a, b in chosen} | {(b, a) for a, b in chosen}
    )
    source = Structure(GRAPH, range(n), {"E": facts})
    target = undirected_cycle(3)
    session = IncrementalHomSession(source, target, engine=HomEngine())
    session.decide()
    for step in range(steps):
        while True:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and cls[a] != cls[b]:
                break
        if session.source.has_fact("E", (a, b)):
            delta = Delta(remove_facts=[("E", (a, b)), ("E", (b, a))])
        else:
            delta = Delta(add_facts=[("E", (a, b)), ("E", (b, a))])
        incr_s, verdict = _timed(lambda: session.edit_source(delta))
        # The baseline is the system's own non-incremental path: a cold
        # default engine (fingerprint for the cache key, target
        # compilation, full search).
        scratch_s, want = _timed(
            lambda: HomEngine().decide_homomorphism(
                rebuilt(session.source), rebuilt(session.target)
            )
        )
        yield incr_s, scratch_s, verdict.is_true == want.is_true


def hom_false_stream(steps, seed=2, girth=15):
    rng = random.Random(seed)
    source = undirected_cycle(girth)
    # C_girth -> C_{girth+2} has no homomorphism (odd girth too small);
    # every hardening edit preserves FALSE by monotonicity while the
    # baseline re-proves it by exhausting the search.
    target = undirected_cycle(girth + 2)
    session = IncrementalHomSession(source, target, engine=HomEngine())
    session.decide()
    for step in range(steps):
        # Hardening edits only: keep adding fresh pendant structure.
        new = 10_000 + step
        anchor = rng.randrange(girth)
        delta = Delta(
            add_elements=(new,),
            add_facts=[("E", (anchor, new)), ("E", (new, anchor))],
        )
        incr_s, verdict = _timed(lambda: session.edit_source(delta))
        scratch_s, want = _timed(
            lambda: HomEngine().decide_homomorphism(
                rebuilt(session.source), rebuilt(session.target)
            )
        )
        yield incr_s, scratch_s, verdict.is_false == want.is_false


TC_PROGRAM = parse_program(
    "T(x, y) <- E(x, y).\nT(x, z) <- E(x, y), T(y, z).", GRAPH
)


def datalog_stream(steps, seed=3, components=40, length=7):
    # Transitive closure over many disjoint path components; each edit
    # toggles a chord inside ONE component, so DRed maintenance touches
    # a 1/components fraction of what the from-scratch evaluation
    # recomputes.  Edits are addition-biased: DRed's rederivation phase
    # re-runs full joins, so deletions are the scheme's worst case and
    # appear at a realistic minority rate.
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


WORKLOADS = {
    "hom-true": hom_true_stream,
    "hom-false": hom_false_stream,
    "datalog": datalog_stream,
}


# ----------------------------------------------------------------------
def run(steps):
    INCREMENTAL.reset()
    workloads = []
    disagreements = []
    for name, stream in WORKLOADS.items():
        incr_total = scratch_total = 0.0
        speedups = []
        for step, (incr_s, scratch_s, agree) in enumerate(stream(steps)):
            if not agree:
                disagreements.append({"workload": name, "step": step})
            incr_total += incr_s
            scratch_total += scratch_s
            speedups.append(scratch_s / max(incr_s, 1e-9))
        workloads.append(
            {
                "workload": name,
                "steps": steps,
                "incremental_s": incr_total,
                "scratch_s": scratch_total,
                "median_speedup": statistics.median(speedups),
                "min_speedup": min(speedups),
                "max_speedup": max(speedups),
            }
        )
    return {
        "mode": "incr-compare",
        "steps_per_workload": steps,
        "disagreements": disagreements,
        "median_speedup": statistics.median(
            w["median_speedup"] for w in workloads
        ),
        "workloads": workloads,
        "incremental": INCREMENTAL.snapshot(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="incremental vs from-scratch edit-stream benchmark "
        "(writes BENCH_incr.json)"
    )
    parser.add_argument(
        "--steps", type=int, default=40, help="edits per workload stream"
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
