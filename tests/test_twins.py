"""Twin classes of a target and the twin pruning both solvers apply.

Two target values are twins when swapping them is an automorphism.  The
partition helper must find exactly those classes (checked against a
brute-force swap test), and the solvers use it to refute pigeonhole
instances such as ``K_{n+1} → K_n`` in a linear number of nodes instead
of about ``n!``.
"""

import itertools
import random
import time

import pytest

from repro.engine import HomEngine
from repro.engine.instrumentation import SolverStats
from repro.graphtheory.generators import complete_bipartite_graph
from repro.homomorphism.search import HomomorphismSearch
from repro.kernel import BitsetHomomorphismSolver, CompiledTarget
from repro.resources import governed
from repro.structures import (
    GRAPH_VOCABULARY,
    Structure,
    Vocabulary,
    clique_structure,
    directed_cycle,
    graph_as_structure,
    random_structure,
    single_edge,
    star_structure,
    undirected_cycle,
    undirected_path,
)
from repro.structures.twins import twin_classes


def _partition(structure):
    return {frozenset(group) for group in twin_classes(structure)}


def _singletons(structure):
    return {frozenset([e]) for e in structure.universe}


def _swap_is_automorphism(structure, a, b):
    def swap(x):
        return b if x == a else a if x == b else x

    for name in structure.vocabulary.relation_names:
        rel = structure.relation(name)
        if any(tuple(swap(x) for x in tup) not in rel for tup in rel):
            return False
    return all(
        swap(value) == value for value in structure.constants.values()
    )


# ----------------------------------------------------------------------
# The partition helper
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", range(1, 7))
def test_clique_is_one_class(n):
    k = clique_structure(n)
    assert _partition(k) == {frozenset(k.universe)}


@pytest.mark.parametrize("n", range(5, 10))
def test_long_cycles_are_all_singletons(n):
    c = undirected_cycle(n)
    assert _partition(c) == _singletons(c)


@pytest.mark.parametrize("n", range(4, 9))
def test_long_paths_are_all_singletons(n):
    p = undirected_path(n)
    assert _partition(p) == _singletons(p)


def test_four_cycle_pairs_opposite_vertices():
    assert _partition(undirected_cycle(4)) == {
        frozenset({0, 2}), frozenset({1, 3})
    }


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 4)])
def test_complete_bipartite_has_two_classes(m, n):
    k = graph_as_structure(complete_bipartite_graph(m, n))
    assert _partition(k) == {
        frozenset(("L", i) for i in range(m)),
        frozenset(("R", j) for j in range(n)),
    }


@pytest.mark.parametrize("n", range(2, 6))
def test_star_leaves_form_one_class(n):
    assert _partition(star_structure(n)) == {
        frozenset({0}), frozenset(range(1, n + 1))
    }


def test_loop_splits_a_clique():
    k = clique_structure(3)
    looped = Structure(
        GRAPH_VOCABULARY, k.universe,
        {"E": set(k.relation("E")) | {(0, 0)}},
    )
    assert _partition(looped) == {frozenset({0}), frozenset({1, 2})}


def test_asymmetric_directed_tuples_split_classes():
    assert _partition(single_edge()) == {frozenset({0}), frozenset({1})}
    assert _partition(directed_cycle(3)) == _singletons(directed_cycle(3))
    # A transitive tournament has no non-trivial automorphism.
    tournament = Structure(
        GRAPH_VOCABULARY, range(4),
        {"E": [(i, j) for i in range(4) for j in range(i + 1, 4)]},
    )
    assert _partition(tournament) == _singletons(tournament)


def test_ternary_tuples_split_by_position():
    vocab = Vocabulary({"R": 3})
    one = Structure(vocab, range(3), {"R": [(0, 1, 2)]})
    assert _partition(one) == _singletons(one)
    two = Structure(vocab, range(3), {"R": [(0, 1, 2), (1, 0, 2)]})
    assert _partition(two) == {frozenset({0, 1}), frozenset({2})}
    every = Structure(
        vocab, range(3), {"R": list(itertools.permutations(range(3)))}
    )
    assert _partition(every) == {frozenset(range(3))}


def test_constants_stay_singletons():
    vocab = Vocabulary({"E": 2}, constants=["c"])
    k = clique_structure(4)
    with_constant = Structure(
        vocab, k.universe, {"E": k.relation("E")}, {"c": 0}
    )
    assert _partition(with_constant) == {
        frozenset({0}), frozenset({1, 2, 3})
    }


def test_isolated_elements_are_twins():
    s = Structure(GRAPH_VOCABULARY, range(4), {"E": [(0, 1)]})
    assert _partition(s) == {
        frozenset({0}), frozenset({1}), frozenset({2, 3})
    }


@pytest.mark.parametrize("seed", range(60))
def test_partition_matches_brute_force_swaps(seed):
    """Same class exactly when the transposition is an automorphism."""
    vocab = [
        GRAPH_VOCABULARY,
        Vocabulary({"E": 2, "P": 1}),
        Vocabulary({"R": 3}),
        Vocabulary({"E": 2}, constants=["c"]),
    ][seed % 4]
    rng = random.Random(seed)
    s = random_structure(vocab, rng.randint(1, 6), rng.choice(
        [0.1, 0.3, 0.6, 0.9]), seed=seed)
    partition = twin_classes(s)
    assert sorted(e for g in partition for e in g) == sorted(s.universe)
    class_of = {e: g for g in partition for e in g}
    for a, b in itertools.combinations(s.universe, 2):
        assert (class_of[a] == class_of[b]) == _swap_is_automorphism(
            s, a, b
        ), (s, a, b)


def test_large_cycle_partitions_quickly():
    """The helper buckets elements; it never compares all pairs."""
    c = undirected_cycle(2000)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        partition = twin_classes(c)
        best = min(best, time.perf_counter() - start)
    assert len(partition) == 2000
    assert best < 0.1


# ----------------------------------------------------------------------
# The pigeonhole tail: K_{n+1} -> K_n
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", range(3, 11))
def test_clique_pigeonhole_refutes_in_few_nodes(n):
    source, target = clique_structure(n + 1), clique_structure(n)
    ref_stats, ker_stats = SolverStats(), SolverStats()
    assert HomomorphismSearch(source, target, stats=ref_stats).first() is None
    assert BitsetHomomorphismSolver(
        source, CompiledTarget(target), stats=ker_stats
    ).first() is None
    assert ref_stats.nodes == ker_stats.nodes <= n * (n + 1)
    assert ref_stats.backtracks == ker_stats.backtracks


def test_used_values_are_never_pruned():
    """Without propagation, image values stay in the domains; a failed
    fresh twin must not rule them out (swapping would move the image)."""
    source = Structure(
        GRAPH_VOCABULARY, range(3), {"E": [(0, 2), (1, 0), (2, 0)]}
    )
    target = clique_structure(3)
    options = {"pinned": {2: 2}, "propagate": False}
    reference = list(HomomorphismSearch(source, target, **options).solutions())
    kernel = list(BitsetHomomorphismSolver(
        source, CompiledTarget(target), **options
    ).solutions())
    assert reference == kernel
    assert len(kernel) == 4


#: Enough for the twin-pruned refutation of K_8 -> K_7, far too little
#: for the ~7! nodes the search needs without pruning.
PIGEONHOLE_BUDGET = 2000


@pytest.mark.parametrize("use_kernel", [True, False])
def test_clique_pigeonhole_decides_false_under_budget(use_kernel):
    engine = HomEngine(
        cache_enabled=False, use_kernel=use_kernel, use_dp=False
    )
    with governed(budget=PIGEONHOLE_BUDGET):
        verdict = engine.decide_homomorphism(
            clique_structure(8), clique_structure(7)
        )
    assert verdict.is_false
