"""Property-based tests (hypothesis): twin pruning loses no solution.

Twin pruning only cuts subtrees that hold no solution, so on targets
full of twins — cliques, complete bipartite graphs and disjoint unions
of cliques — every enumeration, count and core must still equal brute
force (the shared oracle of :mod:`tests.oracle`, on every answer
path), under every combination of the solver options that interact with
the pruning rule (injectivity, pins, forbidden images, source
constants, propagation on or off), on graph, digraph and ternary
sources.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import HomEngine
from repro.graphtheory.generators import complete_bipartite_graph
from repro.homomorphism.cores import core_by_retractions
from repro.homomorphism.search import (
    HomomorphismSearch,
    count_homomorphisms,
    iter_homomorphisms,
)
from repro.kernel import BitsetHomomorphismSolver, CompiledTarget
from repro.structures import (
    Structure,
    Vocabulary,
    clique_structure,
    disjoint_union,
    graph_as_structure,
)

from .oracle import Case, brute_force, check, core_size

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = ("graph", "digraph", "ternary")


def _symmetric_graphs():
    """The twin-rich symmetric graphs targets are built from."""
    return (
        [clique_structure(n) for n in range(1, 5)]
        + [graph_as_structure(complete_bipartite_graph(m, n))
           for m, n in [(1, 2), (2, 2), (2, 3)]]
        + [disjoint_union(*[clique_structure(n) for n in sizes])
           for sizes in [(2, 2), (3, 1), (2, 3), (1, 1, 1)]]
    )


SYMMETRIC_GRAPHS = _symmetric_graphs()


def _vocabulary(kind, with_constant):
    relations = {"R": 3} if kind == "ternary" else {"E": 2}
    return Vocabulary(relations, constants=["c"] if with_constant else ())


def _target(kind, graph, constant):
    """``graph`` re-encoded for ``kind`` (ternary: the 2-walks of the
    graph), optionally naming ``constant``.  Every automorphism of the
    graph is one of the target, so its twins carry over."""
    edges = graph.relation("E")
    if kind == "ternary":
        tuples = {(x, y, z) for (x, y) in edges for (y2, z) in edges
                  if y == y2}
    else:
        tuples = set(edges)
    vocab = _vocabulary(kind, constant is not None)
    name = vocab.relation_names[0]
    constants = {"c": constant} if constant is not None else None
    return Structure(vocab, graph.universe, {name: tuples}, constants)


@st.composite
def sources(draw, kind, with_constant):
    """A small random source of ``kind`` (graphs are symmetric)."""
    n = draw(st.integers(min_value=1, max_value=4))
    arity = 3 if kind == "ternary" else 2
    possible = list(itertools.product(range(n), repeat=arity))
    tuples = set(draw(st.lists(st.sampled_from(possible), max_size=6)))
    if kind == "graph":
        tuples = {(x, y) for (x, y) in tuples if x != y}
        tuples |= {(y, x) for (x, y) in tuples}
    vocab = _vocabulary(kind, with_constant)
    constants = {"c": draw(st.integers(0, n - 1))} if with_constant else None
    return Structure(vocab, range(n), {vocab.relation_names[0]: tuples},
                     constants)


@st.composite
def instances(draw):
    """``(source, target, options)`` over every option combination."""
    kind = draw(st.sampled_from(KINDS))
    with_constant = draw(st.booleans())
    graph = draw(st.sampled_from(SYMMETRIC_GRAPHS))
    constant = (draw(st.sampled_from(graph.universe))
                if with_constant else None)
    target = _target(kind, graph, constant)
    source = draw(sources(kind, with_constant))
    options = {"injective": draw(st.booleans()),
               "propagate": draw(st.booleans())}
    if draw(st.booleans()):
        options["pinned"] = {draw(st.sampled_from(source.universe)):
                             draw(st.sampled_from(target.universe))}
    if draw(st.booleans()):
        options["forbidden_images"] = frozenset(
            [draw(st.sampled_from(target.universe))]
        )
    return source, target, options


@SETTINGS
@given(instances())
def test_enumeration_matches_brute_force(instance):
    source, target, options = instance
    check(Case(source, target, options))
    reference = list(
        HomomorphismSearch(source, target, **options).solutions()
    )
    kernel = list(BitsetHomomorphismSolver(
        source, CompiledTarget(target), **options
    ).solutions())
    assert reference == kernel


@SETTINGS
@given(instances())
def test_count_and_iter_match_brute_force(instance):
    source, target, _ = instance
    expected = brute_force(source, target)
    listed = {frozenset(h.items()) for h in iter_homomorphisms(source, target)}
    assert listed == expected
    assert count_homomorphisms(source, target) == len(expected)


@st.composite
def core_inputs(draw):
    """Symmetric targets, sources, and small unions of one of each
    (at most 6 elements, so brute force stays cheap)."""
    kind = draw(st.sampled_from(("graph", "digraph")))
    choice = draw(st.sampled_from(("symmetric", "source", "union")))
    if choice == "source":
        return draw(sources(kind, False))
    graphs = SYMMETRIC_GRAPHS
    if choice == "union":
        graphs = [g for g in graphs if len(g.universe) <= 3]
    graph = draw(st.sampled_from(graphs))
    if choice == "symmetric":
        return graph
    source = draw(sources(kind, False).filter(
        lambda s: len(s.universe) <= 3
    ))
    return disjoint_union(graph, source)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(core_inputs())
def test_core_sizes_match_brute_force(structure):
    expected = core_size(structure, limit=6 ** 6)  # brute force
    for use_kernel in (True, False):
        engine = HomEngine(cache_enabled=False, use_kernel=use_kernel)
        core = core_by_retractions(structure, engine=engine)
        assert len(core.universe) == expected
