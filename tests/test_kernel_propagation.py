"""The kernel's propagation against an independent GAC oracle.

``BitsetHomomorphismSolver._propagate`` revises facts through memoized
support unions and projections (see DESIGN.md §4).  These tests hold it
to three things:

* **GAC exactness** — on seeded instances over unary, binary and
  ternary relations (repeated-variable facts such as ``E(x, x)``
  included, with pins and forbidden images), a pass from every fact
  reports a wipe-out exactly when the brute-force generalized arc
  consistency closure below empties the domain of a variable that
  occurs in a fact, and otherwise leaves exactly that closure.  The
  oracle scans the target's raw tuple lists and shares no code with the
  kernel's support tables or memos.  A second pass from one variable's
  facts, after fixing it to a value, checks the incremental worklist
  against the oracle run with that value pinned; it runs on the memo
  tables the first pass filled.
* **Counter invariance** — nodes, backtracks, ``ac3_prunings`` and
  governor checkpoints on a fixed corpus equal the values measured
  before the memos existed, so search trees and budget charging are
  unchanged.
* **Bounded memos** — after long solves no memo table holds more than
  :data:`repro.kernel.solver.MEMO_LIMIT` entries, and clearing full
  tables leaves verdicts equal to the reference solver's and counters
  equal to the kernel's under the real cap.
"""

import random

import pytest

import repro.kernel.solver as kernel_solver
from repro.engine import HomEngine
from repro.engine.instrumentation import SolverStats
from repro.exceptions import ResourceError
from repro.kernel import BitsetHomomorphismSolver, CompiledTarget
from repro.resources import governed
from repro.structures import (
    Structure,
    Vocabulary,
    clique_structure,
    grid_structure,
    random_structure,
    undirected_cycle,
)

from .oracle import Case, agrees

MIXED = Vocabulary({"U": 1, "E": 2, "T": 3})
GRAPH = Vocabulary({"E": 2})


# ----------------------------------------------------------------------
# Brute-force oracle
# ----------------------------------------------------------------------
def gac_closure(source, target, pinned, forbidden):
    """The greatest generalized-arc-consistent domains, by fixpoint.

    Domains start at the target universe minus ``forbidden``, cut to
    the pinned value where one is given.  Each sweep keeps, per fact
    and per variable, the values some consistent target tuple gives it
    (a tuple matching a repeated variable must repeat the value), and
    sweeps repeat until nothing changes.
    """
    universe = set(target.universe) - set(forbidden)
    domains = {x: set(universe) for x in source.universe}
    for x, value in pinned.items():
        domains[x] &= {value}
    facts = list(source.facts())
    changed = True
    while changed:
        changed = False
        for name, tup in facts:
            matching = []
            for t in target.relation(name):
                image = {}
                if all(
                    t[i] in domains[x] and image.setdefault(x, t[i]) == t[i]
                    for i, x in enumerate(tup)
                ):
                    matching.append(image)
            for x in set(tup):
                supported = {image[x] for image in matching}
                if domains[x] - supported:
                    domains[x] &= supported
                    changed = True
    return domains


def wiped_out(source, domains):
    """Whether a variable occurring in some fact has an empty domain
    (a variable in no fact is never revised, so propagation cannot
    report it)."""
    return any(
        not domains[x] for _, tup in source.facts() for x in tup
    )


def decoded(solver, domains):
    """Bitmask domains as element sets, keyed by source element."""
    elements = solver.target.elements
    return {
        x: {elements[i] for i in range(len(elements)) if mask >> i & 1}
        for x, mask in zip(solver.vars, domains)
    }


def _instance(seed):
    rng = random.Random(seed)
    source = random_structure(
        MIXED, rng.randint(1, 5), rng.choice((0.05, 0.15, 0.3)),
        seed=rng.randrange(1 << 30),
    )
    target = random_structure(
        MIXED, rng.randint(1, 4), rng.choice((0.2, 0.4, 0.6)),
        seed=rng.randrange(1 << 30),
    )
    pinned = {}
    if rng.random() < 0.3:
        pinned[rng.choice(source.universe)] = rng.choice(target.universe)
    forbidden = set()
    if rng.random() < 0.3:
        forbidden.add(rng.choice(target.universe))
    return source, target, pinned, forbidden


def _check_root_and_child(source, target, pinned, forbidden):
    solver = BitsetHomomorphismSolver(
        source, CompiledTarget(target), pinned=pinned,
        forbidden_images=forbidden,
    )
    expected = gac_closure(source, target, pinned, forbidden)
    domains = list(solver.domains)
    ok = solver._propagate(domains, range(len(solver.facts)))
    assert ok == (not wiped_out(source, expected)), (source, target)
    if not ok:
        return
    assert decoded(solver, domains) == expected
    # Fix one fact variable, as a search node does, and re-propagate
    # from its facts only, through the memos the root pass filled.
    for var, facts in enumerate(solver.facts_of):
        if facts and domains[var]:
            break
    else:
        return
    low = domains[var] & -domains[var]
    element = solver.vars[var]
    value = solver.target.elements[low.bit_length() - 1]
    child = list(domains)
    child[var] = low
    ok = solver._propagate(child, solver.facts_of[var])
    expected = gac_closure(
        source, target, {**pinned, element: value}, forbidden
    )
    assert ok == (not wiped_out(source, expected)), (source, target, element)
    if ok:
        assert decoded(solver, child) == expected


# ----------------------------------------------------------------------
# GAC exactness
# ----------------------------------------------------------------------
def test_seeded_instances_match_the_gac_oracle():
    for seed in range(400):
        _check_root_and_child(*_instance(seed))


def test_the_corpus_covers_every_case():
    """The seeded corpus meets unary, binary and ternary facts,
    repeated variables, pins, forbidden images and both outcomes."""
    seen = set()
    for seed in range(400):
        source, target, pinned, forbidden = _instance(seed)
        for name, tup in source.facts():
            seen.add(name)
            if len(set(tup)) < len(tup):
                seen.add("repeated")
        seen.add("pinned" if pinned else "free")
        seen.add("forbidden" if forbidden else "allowed")
        closure = gac_closure(source, target, pinned, forbidden)
        seen.add("wipe-out" if wiped_out(source, closure) else "closure")
    assert seen >= {"U", "E", "T", "repeated", "pinned", "free",
                    "forbidden", "allowed", "wipe-out", "closure"}


def test_diagonal_fact_needs_a_loop():
    loop = Structure(GRAPH, [0], {"E": [(0, 0)]})
    edge = Structure(GRAPH, [0, 1], {"E": [(0, 1)]})
    with_loop = Structure(GRAPH, [0, 1], {"E": [(0, 1), (1, 1)]})
    _check_root_and_child(loop, edge, {}, set())
    _check_root_and_child(loop, with_loop, {}, set())
    _check_root_and_child(loop, with_loop, {}, {1})


def test_pin_wipes_out_an_odd_cycle_into_an_edge():
    """Arc consistency alone accepts C5 → K2; a pin refutes it by
    carrying the parity around the cycle."""
    c5, k2 = undirected_cycle(5), clique_structure(2)
    _check_root_and_child(c5, k2, {}, set())
    _check_root_and_child(c5, k2, {c5.universe[0]: k2.universe[0]}, set())


def test_ternary_facts_with_repeats():
    sigma = Vocabulary({"T": 3})
    source = Structure(sigma, "xyz", {"T": [("x", "x", "y"),
                                           ("y", "z", "z")]})
    target = Structure(sigma, [0, 1, 2], {"T": [(0, 0, 1), (1, 2, 2),
                                               (2, 2, 0), (1, 1, 1)]})
    _check_root_and_child(source, target, {}, set())
    _check_root_and_child(source, target, {"x": 0}, set())
    _check_root_and_child(source, target, {}, {1})


# ----------------------------------------------------------------------
# Counter invariance
# ----------------------------------------------------------------------
#: (source, target, use_dp) → (nodes, backtracks, ac3_prunings,
#: checkpoints).  ``first()`` stops at the first witness, so a TRUE
#: answer backtracks only out of failed subtrees (none on the grid).
PINNED_COUNTERS = [
    (lambda: undirected_cycle(25), lambda: undirected_cycle(27), False,
     (27, 27, 12636, 1995)),
    (lambda: clique_structure(7), lambda: clique_structure(6), True,
     (5, 5, 20, 247)),
    (lambda: grid_structure(3, 7), lambda: clique_structure(3), False,
     (21, 0, 20, 314)),
    (lambda: undirected_cycle(31), lambda: clique_structure(2), True,
     (0, 0, 0, 193)),
]


@pytest.mark.parametrize(
    "make_source, make_target, use_dp, expected", PINNED_COUNTERS,
    ids=["C25-C27-nodp", "K7-K6", "grid37-K3-nodp", "C31-K2-dp"],
)
def test_search_counters_are_pinned(make_source, make_target, use_dp,
                                    expected):
    engine = HomEngine(cache_enabled=False, use_dp=use_dp)
    with governed() as ctx:
        engine.find_homomorphism(make_source(), make_target())
    stats = engine.stats
    assert (stats.nodes, stats.backtracks, stats.ac3_prunings,
            ctx.checkpoints) == expected
    assert stats.dp_solves == (1 if expected[0] == 0 else 0)


# ----------------------------------------------------------------------
# Bounded memos
# ----------------------------------------------------------------------
def memo_tables(solver):
    """Every revision memo of ``solver`` (a group's tables appear once
    per fact of that group)."""
    return [
        table
        for _, occurrences in solver.facts
        for _, _, unions, projs in occurrences
        for table in (unions, projs)
    ]


def _largest_table(solver):
    return max(len(table) for table in memo_tables(solver))


def test_long_solve_keeps_every_memo_under_its_cap():
    """``C101 → C103`` would fill ≈10k entries in one table; odd
    cycles map only into odd cycles no longer than themselves."""
    solver = BitsetHomomorphismSolver(
        undirected_cycle(101), CompiledTarget(undirected_cycle(103))
    )
    assert solver.first() is None
    assert _largest_table(solver) <= kernel_solver.MEMO_LIMIT


def test_governed_run_keeps_every_memo_under_its_cap():
    solver = BitsetHomomorphismSolver(
        undirected_cycle(101), CompiledTarget(undirected_cycle(103)),
        context=governed(budget=20_000),
    )
    with pytest.raises(ResourceError):
        solver.first()
    assert _largest_table(solver) <= kernel_solver.MEMO_LIMIT


def _clearing_corpus():
    pairs = [(undirected_cycle(n), undirected_cycle(m))
             for n, m in ((9, 11), (11, 9), (13, 15), (8, 5))]
    pairs.append((grid_structure(3, 4), clique_structure(2)))
    for seed in range(60):
        source, target, _, _ = _instance(seed)
        pairs.append((source, target))
    return pairs


def _kernel_run(source, target):
    stats = SolverStats()
    solver = BitsetHomomorphismSolver(
        source, CompiledTarget(target), stats=stats
    )
    witness = solver.first()
    return solver, witness, (stats.nodes, stats.backtracks,
                             stats.ac3_prunings)


@pytest.mark.parametrize("limit", [1, 2, 7])
def test_clearing_full_tables_changes_no_verdict(monkeypatch, limit):
    """With a tiny cap the tables clear constantly; verdicts and
    witnesses still satisfy the shared oracle, and the search counters
    equal the kernel's
    under the real cap.  (The trees are compared kernel to kernel: on
    ternary facts with a repeated variable the reference solver's
    propagation is weaker than GAC and can expand extra nodes.)"""
    pairs = _clearing_corpus()
    expected = [_kernel_run(source, target)[2] for source, target in pairs]
    monkeypatch.setattr(kernel_solver, "MEMO_LIMIT", limit)
    for (source, target), counters in zip(pairs, expected):
        solver, witness, observed = _kernel_run(source, target)
        assert agrees(Case(source, target), witness)
        assert observed == counters
        assert all(len(t) <= limit for t in memo_tables(solver))
