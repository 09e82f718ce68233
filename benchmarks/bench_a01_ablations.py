"""A1 — ablations of the design choices DESIGN.md calls out.

Three switchable mechanisms, each measured on a workload where it
matters:

* constraint propagation in the homomorphism solver (AC pruning on/off)
  on negative odd-cycle coloring instances (search nodes and
  backtracks, so the table is the same on every run);
* containment-based minimization inside Datalog stage unfolding
  (disjunct counts with/without);
* greedy vs exact scattered-set search (solution quality gap).
"""

from _tables import emit_table, run_once

from repro.datalog import (nonlinear_transitive_closure_program,
                           transitive_closure_program)
from repro.datalog.stages import stage_ucqs
from repro.graphtheory import (
    greedy_scattered_set,
    grid_graph,
    max_scattered_set,
    random_regular_graph,
    star_graph,
)
from repro.engine.instrumentation import SolverStats
from repro.homomorphism import HomomorphismSearch
from repro.structures import undirected_cycle, undirected_path


def _search(source, target, propagate):
    """Nodes and backtracks of one refuting search."""
    stats = SolverStats()
    found = HomomorphismSearch(source, target, propagate=propagate,
                               stats=stats).first()
    assert found is None
    return stats.nodes, stats.backtracks


def run_experiment():
    # -- propagation ablation on negative 2-coloring instances
    propagation_rows = []
    for n in (7, 9, 11):
        source, target = undirected_cycle(n), undirected_path(2)
        propagation_rows.append(
            (f"C{n} -> K2", *_search(source, target, True),
             *_search(source, target, False))
        )

    # -- stage minimization ablation (nonlinear TC squares its stages)
    stage_rows = []
    for m in (2, 3, 4):
        program = nonlinear_transitive_closure_program()
        minimized = stage_ucqs(program, m, minimize=True)
        raw = stage_ucqs(program, m, minimize=False)
        stage_rows.append((
            m, len(minimized[m]["T"]), len(raw[m]["T"]),
        ))

    # -- greedy vs exact scattered sets
    scattered_rows = []
    for name, graph, d in (
        ("grid(5x5)", grid_graph(5, 5), 1),
        ("star(20)", star_graph(20), 1),
        ("3-regular(30)", random_regular_graph(30, 3, seed=5), 2),
    ):
        greedy = len(greedy_scattered_set(graph, d))
        exact = len(max_scattered_set(graph, d))
        scattered_rows.append((name, d, greedy, exact))
    return propagation_rows, stage_rows, scattered_rows


def bench_a01_ablations(benchmark):
    propagation_rows, stage_rows, scattered_rows = run_once(
        benchmark, run_experiment
    )
    emit_table(
        "a01_propagation",
        "A1a hom-search propagation ablation (negative coloring)",
        ["instance", "nodes with AC", "backtracks with AC",
         "nodes without AC", "backtracks without AC"],
        propagation_rows,
    )
    emit_table(
        "a01_stage_minimization",
        "A1b stage-unfolding minimization ablation (disjunct counts)",
        ["stage", "minimized", "raw"],
        stage_rows,
    )
    emit_table(
        "a01_scattered",
        "A1c greedy vs exact scattered sets",
        ["graph", "d", "greedy", "exact"],
        scattered_rows,
    )
    # minimization can only shrink; exact can only beat greedy
    assert all(row[1] <= row[2] for row in stage_rows)
    assert all(row[2] <= row[3] for row in scattered_rows)
    # the raw stage-m TC unfolding has exponentially many disjuncts
    assert stage_rows[-1][2] > stage_rows[-1][1]
