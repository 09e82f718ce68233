"""Tree-decomposition-guided dynamic programming solve path.

The paper's tractability engine (§4–§5): when the *source* structure
has small treewidth, homomorphism existence is decidable in polynomial
time by dynamic programming over a tree decomposition of its Gaifman
graph — the Dechter–Pearl / Freuder line the paper cites, and the
algorithmic content of the ``CQ^k`` fragment.  This module implements
that DP over the library's own nice decompositions
(:mod:`repro.graphtheory.nice_decomposition`), with tables of partial
homomorphisms restricted to each bag.

Selection is conservative and fully automatic (see :func:`plan_dp`):
the DP only runs when the source is large enough for backtracking to
plausibly struggle, the decomposition width is small, and the worst-case
table bound ``Σ |target|^|bag|`` is affordable.  Anything else — large
width, UNKNOWN width because the treewidth pass tripped a governor
limit, injective queries, tiny sources — falls back to the
backtracking kernel.  Both paths honor the same governance contract:
the DP checkpoints ``hom.dp`` at every bag *and* every table-entry
expansion, so deadlines and budgets interrupt it mid-table exactly
like they interrupt the search tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..exceptions import ResourceError, ValidationError
from ..graphtheory.nice_decomposition import NiceDecomposition, make_nice
from ..graphtheory.treewidth import (
    treewidth_decomposition,
    treewidth_lower_bound,
    treewidth_upper_bound,
)
from ..resources.governor import RunContext, current_context
from ..structures.gaifman import gaifman_graph
from ..structures.structure import Structure
from .compile import CompiledTarget
from .solver import BitsetHomomorphismSolver, Homomorphism, project

#: Sources with fewer variables than this stay on backtracking (the DP's
#: per-bag bookkeeping only pays off once the search tree can get deep).
DP_MIN_VARS = 12

#: Maximum decomposition width the DP accepts; beyond it the table bound
#: ``|target|^(w+1)`` eats the win.
DP_MAX_WIDTH = 3

#: Cap on the worst-case total table size ``Σ |target|^|bag|`` over
#: introduce/join nodes; plans above it fall back to backtracking.
DP_COST_CAP = 100_000

#: Instance-size budget handed to the exact treewidth pass during
#: planning (bigger sources settle for the heuristic upper bound).
DP_EXACT_LIMIT = 16


#: One fact checked at an introduce node: its all-tuples mask, ``(child
#: entry position, support dict)`` per already-fixed variable, and the
#: introduced variable's support dict and projection memo.
_Check = Tuple[int, Tuple[Tuple[int, Dict[int, int]], ...],
               Dict[int, int], Dict[int, int]]


@dataclass(frozen=True)
class DPPlan:
    """An accepted DP execution plan for one source structure.

    Attributes
    ----------
    nice:
        The nice decomposition (of the source's Gaifman graph) the DP
        will run over: from the narrower of the min-fill / min-degree
        elimination orders, or, when both overshoot
        :data:`DP_MAX_WIDTH` on a source of at most
        :data:`DP_EXACT_LIMIT` elements, from an exact one.
    width:
        The width of ``nice`` (what the DP actually pays for).
    cost:
        The worst-case table bound ``Σ |target|^|bag|`` over
        introduce/join nodes.
    """

    nice: NiceDecomposition
    width: int
    cost: int


def plan_dp(
    source: Structure,
    target_size: int,
    *,
    injective: bool = False,
    min_vars: int = DP_MIN_VARS,
) -> Optional[DPPlan]:
    """Decide whether (and how) to DP-solve ``source``; ``None`` = don't.

    Rejections, in order: injective queries (the bag-local tables can't
    see global image-disjointness), sources below ``min_vars``, a
    minimum-degree lower bound above :data:`DP_MAX_WIDTH`, heuristic
    width above it on a source of more than :data:`DP_EXACT_LIMIT`
    elements, exact width above it (or UNKNOWN because that exact pass
    tripped a governor limit) on a smaller one, and plans whose table
    bound exceeds :data:`DP_COST_CAP`.  Every rejection means "use the
    backtracking kernel", never "fail".

    The gate is polynomial except for that exact fallback: the lower
    bound and the two greedy orders (fill-in recomputed only near each
    eliminated vertex) cost about one pass over the Gaifman graph per
    eliminated vertex, and only the narrower order becomes a
    decomposition.
    """
    if injective:
        return None
    nvars = len(source.universe)
    if nvars < min_vars:
        return None
    try:
        graph = gaifman_graph(source)
        # Cheap poly lower bound first: a dense source is rejected
        # before any exponential planning work happens.
        if treewidth_lower_bound(graph) > DP_MAX_WIDTH:
            return None
        width, decomp = treewidth_upper_bound(graph)
        if width > DP_MAX_WIDTH:
            # The heuristic overshot; an exact decomposition may still
            # come in under the width gate on a small source.
            if nvars > DP_EXACT_LIMIT:
                return None
            decomp = treewidth_decomposition(graph, limit=DP_EXACT_LIMIT)
            if decomp.width() > DP_MAX_WIDTH:
                return None
        nice = make_nice(decomp, graph)
    except ResourceError:
        # Width is UNKNOWN (the planning pass was interrupted): fall
        # back to backtracking rather than guessing.
        return None
    cost = sum(
        target_size ** len(node.bag)
        for node in nice.nodes
        if node.kind in ("introduce", "join")
    )
    if cost > DP_COST_CAP:
        return None
    return DPPlan(nice=nice, width=nice.width(), cost=cost)


class TreewidthDPSolver:
    """Homomorphism existence by DP over a nice decomposition.

    Tables map each node of the decomposition to the set of partial
    homomorphisms of its bag (tuples of target-element indexes, ordered
    by ascending source-variable index) that satisfy every source fact
    whose variables live inside the processed subtree.  Leaf tables are
    ``{()}``; introduce nodes extend entries by every domain value that
    survives the facts *checked at that node* (a fact is checked at
    every introduce node whose new vertex occurs in it and whose bag
    covers it — idempotent, and at least one such node exists because a
    fact's variables form a clique of the Gaifman graph); forget nodes
    project; join nodes intersect.  The empty root bag means the source
    maps into the target iff the root table contains ``()``.

    An introduce step is a mask projection, not a per-value test: for
    each child entry, every checked fact ANDs the supports of its
    already-fixed variables into a surviving-tuple mask, and the new
    variable's allowed values are that mask's projection through its
    group — the same memoized ``projs`` table the kernel's propagation
    fills.  The entry is extended only by the values every checked fact
    allows.

    Accepts ``pinned`` / ``forbidden_images`` / ``propagate`` with the
    same semantics as the backtracking kernel (they act through the
    shared domain construction); ``injective`` is *not* supported —
    :func:`plan_dp` never selects the DP for injective queries.
    """

    def __init__(
        self,
        source: Structure,
        target: CompiledTarget,
        nice: NiceDecomposition,
        *,
        pinned=None,
        forbidden_images=(),
        propagate: bool = True,
        stats=None,
        context: Optional[RunContext] = None,
    ) -> None:
        # The backtracking solver already implements domain
        # construction (unary filters, constants, pins, forbidden
        # images), fact compilation and root GAC — reuse it wholesale
        # and run the DP over its domains and compiled facts.
        self.base = BitsetHomomorphismSolver(
            source,
            target,
            pinned=pinned,
            forbidden_images=forbidden_images,
            propagate=propagate,
            stats=stats,
            context=context,
        )
        self.nice = nice
        self.stats = stats
        self.context = (
            context if context is not None else self.base.context
        )
        base = self.base
        self.unsatisfiable = False

        # Per-node bag as a sorted tuple of variable indexes (the entry
        # layout), plus the facts each introduce node must check.
        self.orders: List[Tuple[int, ...]] = []
        for node in nice.nodes:
            try:
                self.orders.append(
                    tuple(sorted(base.var_of[e] for e in node.bag))
                )
            except KeyError as err:
                raise ValidationError(
                    f"decomposition bag mentions non-source element "
                    f"{err.args[0]!r}"
                ) from None
        bag_sets: List[Set[int]] = [set(order) for order in self.orders]
        introduced_at: Dict[int, List[int]] = {}
        for i, node in enumerate(nice.nodes):
            if node.kind == "introduce":
                introduced_at.setdefault(
                    base.var_of[node.vertex], []
                ).append(i)

        # Each fact is placed only at the introduce nodes of its own
        # variables whose bag covers it.
        self.checks: List[List[_Check]] = [[] for _ in nice.nodes]
        for f, (all_mask, groups) in enumerate(base.facts):
            if not groups:
                # Nullary fact: no bag will ever check it.  An empty
                # relation makes the instance unsatisfiable; a nonempty
                # one is vacuously satisfied.
                if all_mask == 0:
                    self.unsatisfiable = True
                continue
            fset = {group[0] for group in groups}
            placed = False
            for var in fset:
                for i in introduced_at.get(var, ()):
                    if not fset <= bag_sets[i]:
                        continue
                    child_order = self.orders[nice.nodes[i].children[0]]
                    fixed = []
                    for fvar, gsup, _, projs in groups:
                        if fvar == var:
                            new_sup, new_projs = gsup, projs
                        else:
                            fixed.append((child_order.index(fvar), gsup))
                    self.checks[i].append(
                        (all_mask, tuple(fixed), new_sup, new_projs)
                    )
                    placed = True
            if not placed:
                raise ValidationError(
                    "decomposition does not cover a source fact "
                    "(its variables never share a bag)"
                )

    def first(self) -> Optional[Homomorphism]:
        """The first homomorphism found, or ``None``."""
        base = self.base
        stats = self.stats
        if stats is not None:
            stats.dp_solves += 1
        if self.unsatisfiable:
            return None
        if base.nvars == 0:
            return {}
        domains = list(base.domains)
        if base.propagate and base.facts:
            if not base._propagate(domains, range(len(base.facts))):
                return None
        tables = self._run(domains)
        if tables is None:
            return None
        return self._reconstruct(domains, tables)

    # ------------------------------------------------------------------
    # Table construction (bottom-up, post-order)
    # ------------------------------------------------------------------
    def _run(
        self, domains: List[int]
    ) -> Optional[List[Set[Tuple[int, ...]]]]:
        """All node tables, or ``None`` as soon as any table empties.

        An empty table is conclusive: every node lies on the ancestor
        chain to the root, and each parent table is built only from its
        children's entries, so emptiness propagates all the way up.
        """
        base = self.base
        context = self.context
        stats = self.stats
        nice = self.nice
        orders = self.orders
        tables: List[Set[Tuple[int, ...]]] = []
        for i, node in enumerate(nice.nodes):
            context.checkpoint("hom.dp")
            if stats is not None:
                stats.dp_bags += 1
            if node.kind == "leaf":
                table: Set[Tuple[int, ...]] = {()}
            elif node.kind == "introduce":
                table = self._introduce(i, node, domains, tables)
            elif node.kind == "forget":
                child_order = orders[node.children[0]]
                pos = child_order.index(base.var_of[node.vertex])
                table = {
                    entry[:pos] + entry[pos + 1:]
                    for entry in tables[node.children[0]]
                }
            else:  # join
                left = tables[node.children[0]]
                right = tables[node.children[1]]
                if len(right) < len(left):
                    left, right = right, left
                table = left & right
            if stats is not None:
                stats.dp_entries += len(table)
            if not table:
                return None
            tables.append(table)
        return tables

    def _introduce(
        self,
        index: int,
        node,
        domains: List[int],
        tables: List[Set[Tuple[int, ...]]],
    ) -> Set[Tuple[int, ...]]:
        context = self.context
        var = self.base.var_of[node.vertex]
        pos = self.orders[index].index(var)
        checks = self.checks[index]
        domain = domains[var]
        table: Set[Tuple[int, ...]] = set()
        for entry in tables[node.children[0]]:
            context.checkpoint("hom.dp")
            allowed = domain
            for surviving, fixed, gsup, projs in checks:
                for p, fsup in fixed:
                    surviving &= fsup.get(entry[p], 0)
                    if not surviving:
                        break
                if not surviving:
                    allowed = 0
                    break
                keep = projs.get(surviving)
                if keep is None:
                    keep = project(gsup, projs, surviving)
                allowed &= keep
                if not allowed:
                    break
            head, tail = entry[:pos], entry[pos:]
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                table.add(head + (low.bit_length() - 1,) + tail)
        return table

    # ------------------------------------------------------------------
    # Witness reconstruction (top-down)
    # ------------------------------------------------------------------
    def _reconstruct(
        self,
        domains: List[int],
        tables: List[Set[Tuple[int, ...]]],
    ) -> Homomorphism:
        """Extract one concrete witness from the filled tables.

        Walks the decomposition from the (empty-bag) root, carrying the
        chosen entry for each node.  Every vertex is forgotten exactly
        once (its bags form a connected subtree reaching an empty root
        bag), and the forget step is where its value is committed: the
        first domain value whose extension exists in the child table.
        Such a value always exists because the parent entry was
        projected from some child entry.  Join children share the
        parent's entry verbatim, so the two subtrees agree on every
        shared vertex.
        """
        base = self.base
        nice = self.nice
        orders = self.orders
        witness: Dict[int, int] = {}
        stack: List[Tuple[int, Tuple[int, ...]]] = [(nice.root, ())]
        while stack:
            i, entry = stack.pop()
            node = nice.nodes[i]
            if node.kind == "leaf":
                continue
            if node.kind == "join":
                stack.append((node.children[0], entry))
                stack.append((node.children[1], entry))
                continue
            child = node.children[0]
            var = base.var_of[node.vertex]
            if node.kind == "introduce":
                pos = orders[i].index(var)
                witness[var] = entry[pos]
                stack.append(
                    (child, entry[:pos] + entry[pos + 1:])
                )
                continue
            # forget: choose the child extension to commit var's value.
            pos = orders[child].index(var)
            child_table = tables[child]
            d = domains[var]
            chosen = None
            while d:
                low = d & -d
                d ^= low
                value = low.bit_length() - 1
                candidate = entry[:pos] + (value,) + entry[pos:]
                if candidate in child_table:
                    chosen = (value, candidate)
                    break
            if chosen is None:
                raise ValidationError(
                    "DP reconstruction failed: no child extension "
                    "(tables are inconsistent)"
                )
            witness[var] = chosen[0]
            stack.append((child, chosen[1]))
        elements = base.target.elements
        return {
            base.vars[v]: elements[val] for v, val in witness.items()
        }
