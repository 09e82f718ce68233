"""Kernel tier: the bitset kernel vs the reference solver.

Every case also runs through :func:`tests.oracle.check` on every answer
path.  Specific to this tier: *node-for-node* tree identity with the
reference solver on arity ≤ 2 in every option mode and on twin-rich
targets, identical enumeration order, ``ValidationError`` parity, and
budget trips that answer UNKNOWN or agree with the oracle.
"""

import itertools

import pytest

from repro.engine import HomEngine
from repro.engine.instrumentation import SolverStats
from repro.exceptions import ResourceError, ValidationError
from repro.homomorphism.search import HomomorphismSearch
from repro.kernel import BitsetHomomorphismSolver, CompiledTarget
from repro.resources import governed
from repro.graphtheory.generators import complete_bipartite_graph
from repro.structures import (
    Structure,
    Vocabulary,
    clique_structure,
    graph_as_structure,
    star_structure,
    undirected_cycle,
    undirected_path,
)

from . import oracle
from .oracle import (
    COLORED,
    GRAPH,
    Case,
    check,
    option_modes,
    random_pair,
    ternary_pair,
)

#: Targets full of twin values (swapping two is an automorphism), where
#: both solvers prune failed twins and must still explore one tree.
SYMMETRIC_TARGETS = [
    clique_structure(2), clique_structure(3), clique_structure(4),
    graph_as_structure(complete_bipartite_graph(2, 3)),
    star_structure(3), undirected_cycle(4),
]


def _symmetric_cases(seed):
    a, _ = random_pair(GRAPH, seed)
    target = SYMMETRIC_TARGETS[seed % len(SYMMETRIC_TARGETS)]
    n = 2 + seed % 4
    return option_modes(a, target) + [
        Case(a, target, {"propagate": False}),
        Case(clique_structure(n + 1), clique_structure(n)),
    ]


def _ternary_cases(seed):
    source, target = ternary_pair(seed)
    value = target.universe[seed % len(target)]
    return [
        Case(source, target),
        Case(source, target, {"pinned": {source.universe[0]: value}}),
        Case(source, target, {"forbidden_images": frozenset([value])}),
    ]


GRAPH_MODES = [option_modes(*random_pair(GRAPH, s)) for s in range(80)]
COLORED_MODES = [option_modes(*random_pair(COLORED, s)) for s in range(40)]
NO_PROPAGATION = [
    [Case(a, b, {"propagate": False}), Case(b, a, {"propagate": False})]
    for a, b in (random_pair(GRAPH, s) for s in range(30))
]
SYMMETRIC = [_symmetric_cases(seed) for seed in range(48)]
TERNARY = [_ternary_cases(seed) for seed in range(40)]


def _same_tree(case, judge=True):
    """Check ``case`` against the oracle (unless the oracle tier already
    judges it), then require the kernel to expand exactly the reference
    solver's search tree."""
    if judge:
        check(case)
    ref_stats, ker_stats = SolverStats(), SolverStats()
    HomomorphismSearch(
        case.source, case.target, stats=ref_stats, **case.options
    ).first()
    BitsetHomomorphismSolver(
        case.source, CompiledTarget(case.target), stats=ker_stats,
        **case.options,
    ).first()
    assert (ref_stats.nodes, ref_stats.backtracks) == (
        ker_stats.nodes, ker_stats.backtracks
    ), f"search trees diverged: {case}"


# The plain modes (the first two) are the oracle tier's random cases.
@pytest.mark.parametrize("seed", range(80))
def test_kernel_differential_graph_pairs(seed):
    for k, case in enumerate(GRAPH_MODES[seed]):
        _same_tree(case, judge=k >= 2)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_differential_colored_pairs(seed):
    for k, case in enumerate(COLORED_MODES[seed]):
        _same_tree(case, judge=k >= 2)


@pytest.mark.parametrize("seed", range(30))
def test_kernel_differential_without_propagation(seed):
    for case in NO_PROPAGATION[seed]:
        _same_tree(case)


@pytest.mark.parametrize("seed", range(48))
def test_kernel_differential_symmetric_targets(seed):
    for case in SYMMETRIC[seed]:
        _same_tree(case)


def test_harness_covers_500_cases():
    """The generated cases give the kernel and the reference solver
    over 500 (pair, mode) cases, and each option-capable path sees
    every one it supports."""
    cases = list(itertools.chain(
        *GRAPH_MODES, *COLORED_MODES, *NO_PROPAGATION, *SYMMETRIC, *TERNARY
    ))
    covered = oracle.coverage(cases)
    assert covered["kernel"] == covered["reference"] == len(cases) >= 1000
    assert covered["batch"] == covered["memo"] == len(cases)
    assert covered["dp"] == len(cases) - sum(
        "injective" in case.options for case in cases
    )


def test_kernel_enumeration_matches_reference_order():
    """Full enumerations agree solution-for-solution, in order."""
    for source, target in [
        (undirected_path(3), undirected_path(4)),
        (undirected_cycle(3), undirected_cycle(3)),
        (undirected_path(2), undirected_cycle(5)),
        (undirected_path(4), clique_structure(3)),
        (undirected_cycle(5), undirected_cycle(4)),
        (undirected_path(3), star_structure(3)),
    ]:
        reference = list(HomomorphismSearch(source, target).solutions())
        kernel = list(
            BitsetHomomorphismSolver(
                source, CompiledTarget(target)
            ).solutions()
        )
        assert reference == kernel


def test_kernel_validation_parity():
    """Misuse raises the same typed error as the reference solver."""
    a = undirected_path(2)
    mismatched = Structure(Vocabulary({"R": 1}), [0], {"R": [(0,)]})
    with pytest.raises(ValidationError):
        HomomorphismSearch(a, mismatched)
    with pytest.raises(ValidationError):
        BitsetHomomorphismSolver(a, CompiledTarget(mismatched))
    b = undirected_path(3)
    bad_pin = {"not-an-element": b.universe[0]}
    with pytest.raises(ValidationError):
        HomomorphismSearch(a, b, pinned=bad_pin)
    with pytest.raises(ValidationError):
        BitsetHomomorphismSolver(a, CompiledTarget(b), pinned=bad_pin)


def test_pin_to_foreign_target_value_is_a_clean_false():
    """Pinning onto a value outside the target universe refutes on
    every path that takes pins, it does not crash."""
    a, b = undirected_path(2), undirected_path(3)
    assert not check(
        Case(a, b, {"pinned": {a.universe[0]: "no-such-target-element"}})
    ).exists


# ----------------------------------------------------------------------
# Governor trips inside the kernel stay honest
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [0, 1, 3, 10, 100])
def test_kernel_budget_trips_yield_unknown_never_wrong(budget):
    """Under any budget, the kernel path answers UNKNOWN or agrees with
    the oracle — a trip must never flip a verdict."""
    engine = HomEngine(cache_enabled=False, use_kernel=True)
    for seed in range(12):
        case = Case(*random_pair(GRAPH, seed))
        with governed(budget=budget):
            verdict = engine.decide_homomorphism(case.source, case.target)
        assert verdict.is_unknown or oracle.agrees(case, verdict.witness)


def test_kernel_raw_solver_raises_typed_resource_error():
    """The raw solver (no trivalent wrapper) surfaces trips as typed
    ResourceErrors from its checkpoint sites, like the reference."""
    source = undirected_cycle(7)
    target = CompiledTarget(undirected_path(2))
    with pytest.raises(ResourceError):
        with governed(budget=1):
            BitsetHomomorphismSolver(source, target).first()


# ----------------------------------------------------------------------
# Ternary facts that repeat a variable
# ----------------------------------------------------------------------
# On a fact like T(x, y, x) the reference solver propagates more weakly
# than the kernel's GAC (a tuple with t[0] != t[2] still supports y
# there), so the two may expand different trees.  Node counts are
# therefore not compared; the oracle still requires equal verdicts and
# equal solution sets on every path.
@pytest.mark.parametrize("seed", range(40))
def test_ternary_repeated_variables_match_brute_force(seed):
    cases = TERNARY[seed]
    assert any(len(set(fact)) < 3 for fact in cases[0].source.relation("T"))
    for case in cases:
        assert check(case).judge == "brute"


def test_weaker_reference_propagation_keeps_enumerations_equal():
    """The seeded instance on which the two trees differ in size (the
    reference expands more nodes) still yields equal enumerations."""
    from .test_kernel_propagation import _instance

    source, target, pinned, forbidden = _instance(10)
    assert (1, 4, 1) in source.relation("T")
    options = {"pinned": pinned, "forbidden_images": frozenset(forbidden)}
    assert check(Case(source, target, options)).judge == "brute"
