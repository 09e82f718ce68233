"""The DP's tables and the planning gate's elimination orders, checked
against naive rebuilds.

``TreewidthDPSolver._introduce`` extends a child entry by a mask
projection through the memoized ``projs`` tables; here every table is
rebuilt per value, by looking each checked fact's image up in the
target's relations, on seeded DP-eligible instances: ternary facts with
repeated variables, pins, forbidden images, ``propagate=False``, and
projection memos small enough to be cleared mid-solve.

``min_fill_order`` recomputes fill-in only near each eliminated vertex,
``treewidth_upper_bound`` builds one decomposition and
``treewidth_lower_bound`` keeps degrees in a heap; all are compared with
the straightforward O(n³) versions kept below.
"""

import random
from typing import List, Optional

import pytest

import repro.kernel.dp as dp_module
import repro.kernel.solver as solver_module
from repro.graphtheory.graphs import Graph
from repro.graphtheory.nice_decomposition import make_nice
from repro.graphtheory.tree_decomposition import (
    decomposition_from_elimination_order,
)
from repro.graphtheory.treewidth import (
    min_degree_order,
    min_fill_order,
    treewidth_lower_bound,
    treewidth_upper_bound,
)
from repro.kernel import CompiledTarget, TreewidthDPSolver
from repro.structures import Structure, Vocabulary, random_structure
from repro.structures.gaifman import gaifman_graph

from .oracle import Case, respects

VOCABULARY = Vocabulary({"T": 3, "E": 2, "P": 1})


# ----------------------------------------------------------------------
# Seeded DP-eligible instances
# ----------------------------------------------------------------------
def _source(rng: random.Random, odd_cycle: bool) -> Structure:
    """A chain of ternary facts (some with a repeated variable) beside
    a symmetric ``E`` path or, with ``odd_cycle``, a closed odd cycle;
    width ≤ 4."""
    n = rng.randint(4, 6) * 2 + 1 if odd_cycle else rng.randint(8, 13)
    facts = {"T": set(), "E": set(), "P": set()}
    for j in range(n - 2):
        if rng.random() < 0.6:
            b = j + rng.choice((1, 2))
            facts["T"].add((j, b, rng.choice((j, j + 1, j + 2, b))))
    for j in range(n if odd_cycle else n - 1):
        if odd_cycle or rng.random() < 0.5:
            edge = (j, (j + 1) % n)
            facts["E"].update((edge, edge[::-1]))
    for j in range(n):
        if rng.random() < 0.2:
            facts["P"].add((j,))
    return Structure(VOCABULARY, range(n), facts)


def _bipartite_target(rng: random.Random) -> Structure:
    """A target whose ``E`` is a symmetric path on 3–4 elements: an odd
    cycle passes arc consistency there but has no homomorphism."""
    m = rng.randint(3, 4)
    edges = {(i, i + 1) for i in range(m - 1)}
    triples = [(a, b, c) for a in range(m) for b in range(m)
               for c in range(m)]
    return Structure(VOCABULARY, range(m), {
        "T": [t for t in triples if rng.random() < 0.7],
        "E": edges | {(b, a) for a, b in edges},
        "P": [(v,) for v in range(m) if rng.random() < 0.8],
    })


def _instance(seed: int):
    rng = random.Random(seed)
    odd_cycle = seed % 3 == 2
    source = _source(rng, odd_cycle)
    if odd_cycle:
        target = _bipartite_target(rng)
    else:
        target = random_structure(
            VOCABULARY, rng.randint(3, 4), 0.35 + 0.1 * (seed % 4),
            seed=seed,
        )
    options = {}
    kind = seed % 4
    if kind == 1:
        options["pinned"] = {0: target.universe[seed % target.size()]}
    elif kind == 2:
        options["forbidden_images"] = frozenset(
            [target.universe[seed % target.size()]]
        )
    elif kind == 3:
        options["propagate"] = False
    return source, target, options


def _solver(source, target, options) -> TreewidthDPSolver:
    graph = gaifman_graph(source)
    nice = make_nice(treewidth_upper_bound(graph)[1], graph)
    return TreewidthDPSolver(source, CompiledTarget(target), nice, **options)


def _domains(solver) -> Optional[List[int]]:
    """The domains ``first()`` hands to ``_run`` (``None`` on a root
    wipe-out)."""
    base = solver.base
    domains = list(base.domains)
    if base.propagate and base.facts:
        if not base._propagate(domains, range(len(base.facts))):
            return None
    return domains


def _bits(mask: int):
    value = 0
    while mask:
        if mask & 1:
            yield value
        mask >>= 1
        value += 1


def _naive_tables(solver, domains):
    """Every node's table, each introduce entry tested value by value:
    a fact is checked where its variables share the bag and the new
    variable is one of them, by looking its image up in the target."""
    base = solver.base
    elements = base.target.elements
    target_facts = set(base.target.structure.facts())
    facts = [(name, tuple(base.var_of[x] for x in tup))
             for name, tup in base.source.facts()]
    tables = []
    for i, node in enumerate(solver.nice.nodes):
        order = solver.orders[i]
        if node.kind == "leaf":
            table = {()}
        elif node.kind == "introduce":
            var = base.var_of[node.vertex]
            bag = set(order)
            checked = [(name, fvars) for name, fvars in facts
                       if var in fvars and set(fvars) <= bag]
            child_order = solver.orders[node.children[0]]
            table = set()
            for entry in tables[node.children[0]]:
                partial = dict(zip(child_order, entry))
                for value in _bits(domains[var]):
                    partial[var] = value
                    if all((name, tuple(elements[partial[x]] for x in fvars))
                           in target_facts for name, fvars in checked):
                        table.add(tuple(partial[x] for x in order))
        elif node.kind == "forget":
            child_order = solver.orders[node.children[0]]
            keep = [k for k, x in enumerate(child_order) if x in order]
            table = {tuple(entry[k] for k in keep)
                     for entry in tables[node.children[0]]}
        else:
            table = (tables[node.children[0]]
                     & tables[node.children[1]])
        tables.append(table)
    return tables


SEEDS = range(96)


@pytest.mark.parametrize("seed", SEEDS)
def test_tables_match_per_value_rebuild(seed):
    source, target, options = _instance(seed)
    solver = _solver(source, target, options)
    domains = _domains(solver)
    witness = solver.first()
    if domains is None:
        assert witness is None
        return
    naive = _naive_tables(solver, domains)
    for i, node in enumerate(solver.nice.nodes):
        if node.kind == "introduce":
            assert solver._introduce(i, node, domains, naive) == naive[i]
    tables = solver._run(domains)
    if all(naive):
        assert tables == naive
        assert respects(Case(source, target, options), witness)
    else:
        assert tables is None
        assert witness is None


def test_instances_cover_every_branch():
    """The seeds build tables under every option, reach both verdicts
    past propagation, and repeat variables in ternary facts."""
    kinds = {"sat": 0, "unsat": 0, "repeated": 0}
    for seed in SEEDS:
        source, target, options = _instance(seed)
        if any(len(set(t)) < 3 for t in source.relation("T")):
            kinds["repeated"] += 1
        solver = _solver(source, target, options)
        domains = _domains(solver)
        if domains is not None:
            kinds["sat" if all(_naive_tables(solver, domains))
                  else "unsat"] += 1
            option = ",".join(options) or "none"
            kinds[option] = kinds.get(option, 0) + 1
    assert len(kinds) == 7 and min(kinds.values()) >= 5, kinds


def test_tables_match_when_projection_memos_are_cleared(monkeypatch):
    """With a two-entry memo bound every solve clears ``projs`` tables
    mid-run; the tables must not change."""
    limit = 2
    calls = []
    real = solver_module.project

    def counting(gsup, projs, surviving):
        calls.append(surviving)
        keep = real(gsup, projs, surviving)
        assert len(projs) <= limit
        return keep

    monkeypatch.setattr(solver_module, "MEMO_LIMIT", limit)
    monkeypatch.setattr(dp_module, "project", counting)
    crossed = 0
    for seed in range(16):
        source, target, options = _instance(seed)
        solver = _solver(source, target, options)
        domains = _domains(solver)
        if domains is None:
            continue
        calls.clear()
        naive = _naive_tables(solver, domains)
        tables = solver._run(domains)
        assert tables == (naive if all(naive) else None)
        crossed += len(set(calls)) > limit
    assert crossed >= 3


# ----------------------------------------------------------------------
# Elimination orders against the naive O(n³) heuristics
# ----------------------------------------------------------------------
def _naive_eliminate(adj, v):
    neighbors = adj[v]
    for u in neighbors:
        adj[u].discard(v)
    nb_list = list(neighbors)
    for i in range(len(nb_list)):
        for j in range(i + 1, len(nb_list)):
            adj[nb_list[i]].add(nb_list[j])
            adj[nb_list[j]].add(nb_list[i])
    del adj[v]


def _naive_fill_in(adj, v):
    nb = list(adj[v])
    missing = 0
    for i in range(len(nb)):
        for j in range(i + 1, len(nb)):
            if nb[j] not in adj[nb[i]]:
                missing += 1
    return missing


def naive_min_degree_order(graph):
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    order = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), str(u)))
        order.append(v)
        _naive_eliminate(adj, v)
    return order


def naive_min_fill_order(graph):
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    order = []
    while adj:
        v = min(adj, key=lambda u: (_naive_fill_in(adj, u), len(adj[u]),
                                    str(u)))
        order.append(v)
        _naive_eliminate(adj, v)
    return order


def naive_lower_bound(graph):
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    best = 0
    while adj:
        v = min(adj, key=lambda u: len(adj[u]))
        best = max(best, len(adj[v]))
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v]
    return best


def naive_upper_bound(graph):
    best = None
    for order_fn in (naive_min_fill_order, naive_min_degree_order):
        decomp = decomposition_from_elimination_order(
            graph, order_fn(graph)
        )
        if best is None or decomp.width() < best[0]:
            best = (decomp.width(), decomp)
    return best


def _graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(0, 24)
    names = [
        lambda i: i,
        lambda i: f"v{i}",
        # str() ties between 1 and "1": order decides.
        lambda i: i if i % 2 else str(i // 2),
    ][seed % 3]
    vertices = [names(i) for i in range(n)]
    rng.shuffle(vertices)
    density = rng.choice((0.1, 0.2, 0.35, 0.6))
    edges = [(a, b) for i, a in enumerate(vertices)
             for b in vertices[i + 1:] if rng.random() < density]
    return Graph(vertices, edges)


GRAPHS = [_graph(seed) for seed in range(120)] + [
    gaifman_graph(_instance(seed)[0]) for seed in range(20)
]


@pytest.mark.parametrize("index", range(len(GRAPHS)))
def test_orders_match_naive_heuristics(index):
    graph = GRAPHS[index]
    assert min_fill_order(graph) == naive_min_fill_order(graph)
    assert min_degree_order(graph) == naive_min_degree_order(graph)
    width, decomp = treewidth_upper_bound(graph)
    naive_width, naive_decomp = naive_upper_bound(graph)
    assert width == naive_width == decomp.width()
    assert decomp.bags == naive_decomp.bags
    assert decomp.tree.edges == naive_decomp.tree.edges
    assert decomp.tree.vertices == naive_decomp.tree.vertices
    assert treewidth_lower_bound(graph) == naive_lower_bound(graph)
