"""Differential harness: the bitset kernel vs the reference solver.

The compiled kernel is only allowed to be *fast*, never *different*:
its value interning and MRV tie-breaks are aligned with the reference
solver on purpose, so the two explore identical search trees.  The
harness feeds 500+ seeded random instances to both solvers across every
mode (plain, injective, pinned, forbidden images, propagation off) and
asserts

* existence agreement and witness validity in every mode,
* *node-for-node* tree identity (equal ``nodes`` and ``backtracks``
  counters), which pins the alignment down far harder than existence,
* identical full enumerations (same solutions, same order),
* the same ``ValidationError`` behavior on misuse, and
* honest trivalence under governor trips: with a budget installed, the
  kernel answers UNKNOWN or agrees with the brute-force oracle — never
  a wrong definite verdict.
"""

import itertools

import pytest

from repro.engine import HomEngine
from repro.engine.instrumentation import SolverStats
from repro.exceptions import ResourceError, ValidationError
from repro.homomorphism import is_homomorphism
from repro.homomorphism.search import HomomorphismSearch
from repro.kernel import BitsetHomomorphismSolver, CompiledTarget
from repro.resources import governed
from repro.graphtheory.generators import complete_bipartite_graph
from repro.structures import (
    Structure,
    Vocabulary,
    clique_structure,
    graph_as_structure,
    random_structure,
    star_structure,
    undirected_cycle,
    undirected_path,
)

GRAPH = Vocabulary({"E": 2})
COLORED = Vocabulary({"E": 2, "P": 1})


def _random_pair(vocabulary, seed):
    size_a = 1 + seed % 4
    size_b = 1 + (seed // 4) % 4
    density_a = 0.15 + 0.2 * (seed % 3)
    density_b = 0.15 + 0.2 * ((seed // 3) % 3)
    a = random_structure(vocabulary, size_a, density_a, seed=2 * seed)
    b = random_structure(vocabulary, size_b, density_b, seed=2 * seed + 1)
    return a, b


def _both(source, target, **options):
    """Run both solvers on one instance; return the two witnesses after
    asserting agreement and tree identity."""
    ref_stats, ker_stats = SolverStats(), SolverStats()
    reference = HomomorphismSearch(
        source, target, stats=ref_stats, **options
    ).first()
    kernel = BitsetHomomorphismSolver(
        source, CompiledTarget(target), stats=ker_stats, **options
    ).first()
    assert (reference is None) == (kernel is None), (
        f"existence disagreement: {source!r} -> {target!r} {options}"
    )
    assert ref_stats.nodes == ker_stats.nodes, (
        f"search trees diverged (nodes {ref_stats.nodes} vs "
        f"{ker_stats.nodes}): {source!r} -> {target!r} {options}"
    )
    assert ref_stats.backtracks == ker_stats.backtracks, (
        f"search trees diverged (backtracks): {source!r} -> {target!r}"
    )
    if kernel is not None:
        assert is_homomorphism(source, target, kernel)
    return reference, kernel


def _modes(a, b):
    """Every solver mode for one (a, b) pair: 5 differential cases."""
    _both(a, b)
    _both(b, a)
    _, injective = _both(a, b, injective=True)
    if injective is not None:
        assert len(set(injective.values())) == len(injective)
    if a.universe and b.universe:
        pin = {a.universe[0]: b.universe[0]}
        _, pinned = _both(a, b, pinned=pin)
        if pinned is not None:
            assert pinned[a.universe[0]] == b.universe[0]
        forbidden = frozenset([b.universe[0]])
        _, avoiding = _both(a, b, forbidden_images=forbidden)
        if avoiding is not None:
            assert not set(avoiding.values()) & forbidden
    else:
        _both(a, b, propagate=False)
        _both(b, a, propagate=False)


@pytest.mark.parametrize("seed", range(80))
def test_kernel_differential_graph_pairs(seed):
    a, b = _random_pair(GRAPH, seed)
    _modes(a, b)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_differential_colored_pairs(seed):
    a, b = _random_pair(COLORED, seed)
    _modes(a, b)


@pytest.mark.parametrize("seed", range(30))
def test_kernel_differential_without_propagation(seed):
    a, b = _random_pair(GRAPH, seed)
    _both(a, b, propagate=False)
    _both(b, a, propagate=False)


#: Targets full of twin values (swapping two is an automorphism), where
#: both solvers prune failed twins and must still explore one tree.
SYMMETRIC_TARGETS = [
    clique_structure(2),
    clique_structure(3),
    clique_structure(4),
    graph_as_structure(complete_bipartite_graph(2, 3)),
    star_structure(3),
    undirected_cycle(4),
]


@pytest.mark.parametrize("seed", range(48))
def test_kernel_differential_symmetric_targets(seed):
    a, _ = _random_pair(GRAPH, seed)
    target = SYMMETRIC_TARGETS[seed % len(SYMMETRIC_TARGETS)]
    _modes(a, target)
    _both(a, target, propagate=False)
    n = 2 + seed % 4
    _both(clique_structure(n + 1), clique_structure(n))


def test_harness_covers_500_cases():
    """The sweeps above run >= 500 (pair, mode) differential cases."""
    assert (80 + 40) * 5 + 30 * 2 >= 500


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
    """Pinning onto a value outside the target universe refutes (both
    solvers), it does not crash."""
    a, b = undirected_path(2), undirected_path(3)
    pin = {a.universe[0]: "no-such-target-element"}
    assert HomomorphismSearch(a, b, pinned=pin).first() is None
    assert (
        BitsetHomomorphismSolver(a, CompiledTarget(b), pinned=pin).first()
        is None
    )


# ----------------------------------------------------------------------
# Governor trips inside the kernel stay honest
# ----------------------------------------------------------------------
def _oracle(source, target):
    src, tgt = list(source.universe), list(target.universe)
    if not src:
        return True
    if not tgt:
        return False
    return any(
        is_homomorphism(source, target, dict(zip(src, images)))
        for images in itertools.product(tgt, repeat=len(src))
    )


@pytest.mark.parametrize("budget", [0, 1, 3, 10, 100])
def test_kernel_budget_trips_yield_unknown_never_wrong(budget):
    """Under any budget, the kernel path answers UNKNOWN or agrees with
    the brute-force oracle — a trip must never flip a verdict."""
    engine = HomEngine(cache_enabled=False, use_kernel=True)
    for seed in range(12):
        a, b = _random_pair(GRAPH, seed)
        expected = _oracle(a, b)
        with governed(budget=budget):
            verdict = engine.decide_homomorphism(a, b)
        if verdict.is_unknown:
            continue
        assert verdict.is_true == expected
        if verdict.is_true:
            assert is_homomorphism(a, b, verdict.witness)


def test_kernel_raw_solver_raises_typed_resource_error():
    """The raw solver (no trivalent wrapper) surfaces trips as typed
    ResourceErrors from its checkpoint sites, like the reference."""
    source = undirected_cycle(7)
    target = CompiledTarget(undirected_path(2))
    with pytest.raises(ResourceError):
        with governed(budget=1):
            BitsetHomomorphismSolver(source, target).first()
