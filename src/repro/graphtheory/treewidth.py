"""Treewidth computation.

Provides an exact branch-and-bound over elimination orders (with
simplicial-vertex reduction, clique lower bounds and memoization on
eliminated sets), plus the classical min-degree and min-fill heuristics
for upper bounds on larger graphs.

Treewidth drives Section 4 of the paper (classes ``T(k)`` of treewidth
``< k``) and Lemma 7.2's bound on canonical structures of ``CQ^k``
sentences.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    ValidationError,
)
from ..resources.governor import current_context
from .graphs import Graph, Vertex, connected_components
from .tree_decomposition import (
    TreeDecomposition,
    decomposition_from_elimination_order,
)

#: Default cap on exact-search instance size; beyond it the exact solver
#: refuses (use :func:`treewidth_upper_bound` instead).
DEFAULT_EXACT_LIMIT = 40


def _copy_adj(graph: Graph) -> Dict[Vertex, Set[Vertex]]:
    return {v: set(graph.neighbors(v)) for v in graph.vertices}


def _eliminate(adj: Dict[Vertex, Set[Vertex]], v: Vertex) -> None:
    """Eliminate ``v`` in-place: clique its neighbourhood, remove it."""
    neighbors = adj[v]
    for u in neighbors:
        adj[u].discard(v)
    nb_list = list(neighbors)
    for i in range(len(nb_list)):
        for j in range(i + 1, len(nb_list)):
            adj[nb_list[i]].add(nb_list[j])
            adj[nb_list[j]].add(nb_list[i])
    del adj[v]


def _fill_in(adj: Dict[Vertex, Set[Vertex]], v: Vertex) -> int:
    """Number of missing edges among the neighbours of ``v``."""
    nb = list(adj[v])
    missing = 0
    for i in range(len(nb)):
        for j in range(i + 1, len(nb)):
            if nb[j] not in adj[nb[i]]:
                missing += 1
    return missing


def _greedy_order(graph: Graph, by_fill: bool) -> Tuple[List[Vertex], int]:
    """A greedy elimination order and its width.

    Each step eliminates the vertex with the least ``(fill-in, degree,
    str)`` key (``by_fill``) or ``(degree, str)`` key, the first in
    vertex order on a full tie.  Keys live in a heap with lazy deletion
    and are recomputed only where an elimination can change them: the
    degree of the eliminated vertex's neighbours, and the fill-in of
    every vertex within distance 2 of it (a new edge between two of its
    neighbours changes the fill-in of their common neighbours).  The
    width is the largest neighbourhood eliminated, ``-1`` for no
    vertices, as :func:`decomposition_from_elimination_order` reports.
    """
    adj = _copy_adj(graph)
    rank = {v: (str(v), i) for i, v in enumerate(adj)}

    def key(u: Vertex) -> tuple:
        fill = _fill_in(adj, u) if by_fill else 0
        return (fill, len(adj[u])) + rank[u] + (u,)

    current = {u: key(u) for u in adj}
    heap = list(current.values())
    heapq.heapify(heap)
    order: List[Vertex] = []
    width = -1
    while heap:
        entry = heapq.heappop(heap)
        v = entry[-1]
        if current.get(v) is not entry:
            continue
        del current[v]
        neighbors = adj[v]
        order.append(v)
        width = max(width, len(neighbors))
        _eliminate(adj, v)
        dirty = set(neighbors)
        if by_fill:
            for u in neighbors:
                dirty |= adj[u]
        for u in dirty:
            new = key(u)
            if new != current[u]:
                current[u] = new
                heapq.heappush(heap, new)
    return order, width


def min_degree_order(graph: Graph) -> List[Vertex]:
    """The min-degree elimination order (classic upper-bound heuristic)."""
    return _greedy_order(graph, by_fill=False)[0]


def min_fill_order(graph: Graph) -> List[Vertex]:
    """The min-fill elimination order (usually tighter than min-degree)."""
    return _greedy_order(graph, by_fill=True)[0]


def _upper_bound_order(graph: Graph) -> Tuple[int, List[Vertex]]:
    """The narrower of the min-fill / min-degree orders (min-fill on a
    tie) with its width."""
    fill_order, fill_width = _greedy_order(graph, by_fill=True)
    degree_order, degree_width = _greedy_order(graph, by_fill=False)
    if degree_width < fill_width:
        return degree_width, degree_order
    return fill_width, fill_order


def treewidth_upper_bound(graph: Graph) -> Tuple[int, TreeDecomposition]:
    """Best of the min-degree / min-fill heuristics, with its decomposition.

    The two orders are compared by width; only the winner is turned
    into a decomposition.
    """
    width, order = _upper_bound_order(graph)
    return width, decomposition_from_elimination_order(graph, order)


def treewidth_lower_bound(graph: Graph) -> int:
    """A cheap lower bound: max over degeneracy-style minimum degrees (MMD).

    The "maximum minimum degree" bound: repeatedly delete a minimum-degree
    vertex; the largest minimum degree seen is at most the treewidth.
    Degrees live in a heap with lazy deletion; which of several
    minimum-degree vertices goes first does not change the bound (it is
    the graph's degeneracy).
    """
    adj = _copy_adj(graph)
    heap = [(len(nb), i, v) for i, (v, nb) in enumerate(adj.items())]
    index = {v: i for _, i, v in heap}
    heapq.heapify(heap)
    best = 0
    while heap:
        degree, _, v = heapq.heappop(heap)
        neighbors = adj.get(v)
        if neighbors is None or len(neighbors) != degree:
            continue
        best = max(best, degree)
        for u in neighbors:
            adj[u].discard(v)
            heapq.heappush(heap, (len(adj[u]), index[u], u))
        del adj[v]
    return best


def _component_treewidth_exact(graph: Graph, limit: int) -> int:
    """Exact treewidth of a connected graph via B&B over elimination orders."""
    n = graph.num_vertices()
    if n <= 1:
        return 0
    upper, _ = _upper_bound_order(graph)
    lower = treewidth_lower_bound(graph)
    if lower == upper:
        return upper
    if n > limit:
        raise BudgetExceededError(
            f"exact treewidth limited to {limit} vertices (got {n}); "
            "use treewidth_upper_bound for larger graphs",
            budget=limit,
            spent=n,
            site="treewidth.exact",
            consumed={"unit": "vertices"},
        )

    context = current_context()
    vertices = list(graph.vertices)
    best = upper
    # memo: frozenset of eliminated vertices -> best width achieved so far
    memo: Dict[FrozenSet[Vertex], int] = {}

    def search(adj: Dict[Vertex, Set[Vertex]], width_so_far: int,
               eliminated: FrozenSet[Vertex]) -> None:
        nonlocal best
        context.checkpoint("treewidth.exact")
        if width_so_far >= best:
            return
        if not adj:
            best = width_so_far
            return
        prev = memo.get(eliminated)
        if prev is not None and prev <= width_so_far:
            return
        memo[eliminated] = width_so_far

        # Simplicial / almost-simplicial reduction: a vertex whose
        # neighbourhood is a clique can always be eliminated first.
        for v in adj:
            nb = adj[v]
            if len(nb) < best and all(
                u2 in adj[u1] for u1 in nb for u2 in nb if u1 != u2
            ):
                new_adj = {u: set(ns) for u, ns in adj.items()}
                _eliminate(new_adj, v)
                search(new_adj, max(width_so_far, len(nb)),
                       eliminated | {v})
                return

        candidates = sorted(adj, key=lambda u: (len(adj[u]), str(u)))
        for v in candidates:
            deg = len(adj[v])
            if deg >= best:
                continue
            new_adj = {u: set(ns) for u, ns in adj.items()}
            _eliminate(new_adj, v)
            search(new_adj, max(width_so_far, deg), eliminated | {v})

    search(_copy_adj(graph), 0, frozenset())
    del vertices
    return best


def treewidth_exact(graph: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    """The exact treewidth of ``graph``.

    Decomposes into connected components (treewidth is the max over
    components) and runs branch-and-bound per component.  Raises
    :class:`BudgetExceededError` when a component exceeds ``limit``
    vertices and the heuristic bounds do not already close the gap.
    """
    if graph.num_vertices() == 0:
        return 0
    result = 0
    for comp in connected_components(graph):
        sub = graph.subgraph(comp)
        result = max(result, _component_treewidth_exact(sub, limit))
    return result


def treewidth_decomposition(
    graph: Graph, limit: int = DEFAULT_EXACT_LIMIT
) -> TreeDecomposition:
    """An optimal-width tree decomposition (exact, small graphs).

    Finds the treewidth exactly, then searches for an elimination order
    realizing it (branch-and-bound constrained to that width).
    """
    target = treewidth_exact(graph, limit)
    order = _order_of_width(graph, target)
    if order is None:  # pragma: no cover - target is achievable by definition
        raise ValidationError("internal error: no order achieves the treewidth")
    return decomposition_from_elimination_order(graph, order)


def _order_of_width(graph: Graph, target: int) -> Optional[List[Vertex]]:
    """An elimination order of width ``<= target``, or ``None``."""
    memo: Set[FrozenSet[Vertex]] = set()
    context = current_context()

    def search(adj: Dict[Vertex, Set[Vertex]],
               eliminated: FrozenSet[Vertex]) -> Optional[List[Vertex]]:
        context.checkpoint("treewidth.order")
        if not adj:
            return []
        if eliminated in memo:
            return None
        for v in sorted(adj, key=lambda u: (len(adj[u]), str(u))):
            if len(adj[v]) > target:
                continue
            new_adj = {u: set(ns) for u, ns in adj.items()}
            _eliminate(new_adj, v)
            rest = search(new_adj, eliminated | {v})
            if rest is not None:
                return [v] + rest
        memo.add(eliminated)
        return None

    return search(_copy_adj(graph), frozenset())


def has_treewidth_less_than(graph: Graph, k: int,
                            limit: int = DEFAULT_EXACT_LIMIT) -> bool:
    """Membership in the paper's class ``T(k)``: treewidth ``< k``."""
    if k < 1:
        return False
    return treewidth_exact(graph, limit) < k


# ----------------------------------------------------------------------
# Graceful degradation: exact width, or a certified upper bound
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TreewidthResult:
    """The outcome of a governed treewidth computation.

    Attributes
    ----------
    width:
        The exact treewidth when ``exact``; otherwise a *valid upper
        bound* (every heuristic elimination order yields one).
    exact:
        Whether ``width`` is the exact value.
    method:
        ``"branch-and-bound"`` or ``"min-fill/min-degree upper bound"``.
    reason:
        For fallbacks: the governor trip that forced the degradation.
    """

    width: int
    exact: bool
    method: str
    reason: str = ""


def treewidth_with_fallback(
    graph: Graph, limit: int = DEFAULT_EXACT_LIMIT
) -> TreewidthResult:
    """Exact treewidth, degrading to the greedy upper bound on a trip.

    Runs the branch-and-bound solver under the ambient
    :mod:`repro.resources` context; when the instance budget
    (``limit``), an installed deadline, or a step budget trips, the
    heuristic min-fill/min-degree upper bound — polynomial, so always
    affordable — is returned instead of failing.  The result records
    whether it is exact and, for fallbacks, why degradation happened.
    """
    from ..engine.instrumentation import GOVERNOR

    try:
        width = treewidth_exact(graph, limit)
        return TreewidthResult(width, True, "branch-and-bound")
    except (BudgetExceededError, DeadlineExceededError) as err:
        GOVERNOR.fallbacks += 1
        upper, _ = _upper_bound_order(graph)
        return TreewidthResult(
            upper,
            False,
            "min-fill/min-degree upper bound",
            reason=f"{type(err).__name__}: {err}",
        )
