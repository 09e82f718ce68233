"""Homomorphism search between finite structures.

A homomorphism ``h : A → B`` maps the universe of ``A`` to that of ``B``
so that every fact of ``A`` is sent to a fact of ``B`` (and constants are
preserved).  Finding one is the classical CSP/conjunctive-query-evaluation
problem (Chandra–Merlin, Theorem 2.1), NP-complete in general.

The solver is backtracking search with:

* unary pre-filtering (an element occurring at position ``i`` of an
  ``R``-fact can only map to values occurring at position ``i`` of
  ``R^B``),
* AC-3-style propagation over the fact hypergraph,
* MRV (fewest remaining values) variable selection, and
* per-position tuple indexes on the target for fast support checks.

The search is *governed*: every node expansion and every propagation
sweep passes a cooperative :meth:`~repro.resources.RunContext.checkpoint`
of the ambient :mod:`repro.resources` context, so an installed deadline
or budget interrupts the search with a typed
:class:`~repro.exceptions.ResourceError` instead of hanging.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..exceptions import ValidationError
from ..resources.governor import RunContext, current_context
from ..structures.structure import Element, Structure, Tup
from ..structures.twins import twin_classes

Homomorphism = Dict[Element, Element]


def is_homomorphism(
    source: Structure, target: Structure, mapping: Mapping[Element, Element]
) -> bool:
    """Verify that ``mapping`` is a homomorphism from ``source`` to ``target``.

    Checks totality, codomain, fact preservation and constant preservation.

    ``mapping`` may carry extra keys outside the source universe (e.g. a
    mapping built on a superstructure and restricted down); only its
    restriction to the universe is verified.  The one exception is an
    extra key that *shadows a constant* — a stray key equal to a
    constant symbol's *name* almost certainly means the caller intended
    to constrain that constant's element, so silently ignoring it would
    mask a wrong mapping; such mappings are rejected.
    """
    if source.vocabulary.relations != target.vocabulary.relations:
        return False
    extra_keys = set(mapping) - source.universe_set
    if extra_keys:
        constant_symbols = set(source.vocabulary.constants) | set(
            target.vocabulary.constants
        )
        if extra_keys & constant_symbols:
            return False
    for e in source.universe:
        if e not in mapping or mapping[e] not in target.universe_set:
            return False
    for cname in source.vocabulary.constants:
        if not target.vocabulary.has_constant(cname):
            return False
        if mapping[source.constant(cname)] != target.constant(cname):
            return False
    for name, tup in source.facts():
        image = tuple(mapping[x] for x in tup)
        if image not in target.relation(name):
            return False
    return True


class _TargetIndex:
    """Per-relation, per-position indexes of the target's tuples."""

    def __init__(self, target: Structure) -> None:
        self.tuples: Dict[str, Tuple[Tup, ...]] = {}
        self.by_position: Dict[str, List[Dict[Element, Set[int]]]] = {}
        self.position_values: Dict[str, List[FrozenSet[Element]]] = {}
        for name in target.vocabulary.relation_names:
            tuples = tuple(sorted(target.relation(name), key=repr))
            self.tuples[name] = tuples
            arity = target.vocabulary.arity(name)
            index: List[Dict[Element, Set[int]]] = [
                defaultdict(set) for _ in range(arity)
            ]
            for t_idx, tup in enumerate(tuples):
                for pos, value in enumerate(tup):
                    index[pos][value].add(t_idx)
            self.by_position[name] = index
            self.position_values[name] = [
                frozenset(index[pos].keys()) for pos in range(arity)
            ]
        self._target = target
        self._twins: Optional[Dict[Element, FrozenSet[Element]]] = None

    @property
    def twins(self) -> Dict[Element, FrozenSet[Element]]:
        """Each element's twin class (see :mod:`repro.structures.twins`),
        computed on first use."""
        if self._twins is None:
            self._twins = {
                e: group
                for group in twin_classes(self._target)
                for e in group
            }
        return self._twins


#: Per-target index reuse: core-retraction loops and containment batches
#: issue many searches against the same (or a recurring) target, and the
#: per-position indexes only depend on the target.  Keyed by the WL
#: fingerprint with equality verification (fingerprints are isomorphism-
#: invariant, so a colliding isomorphic-but-different structure rebuilds
#: and takes over the slot instead of borrowing wrong element tables).
_INDEX_CACHE_SIZE = 256
_INDEX_CACHE: "OrderedDict[str, Tuple[Structure, _TargetIndex]]" = (
    OrderedDict()
)
_INDEX_LOCK = threading.Lock()


def target_index_for(target: Structure) -> _TargetIndex:
    """The (cached) :class:`_TargetIndex` of ``target``."""
    key = target.fingerprint()
    with _INDEX_LOCK:
        entry = _INDEX_CACHE.get(key)
        if entry is not None and entry[0] == target:
            _INDEX_CACHE.move_to_end(key)
            return entry[1]
    index = _TargetIndex(target)
    with _INDEX_LOCK:
        _INDEX_CACHE[key] = (target, index)
        _INDEX_CACHE.move_to_end(key)
        while len(_INDEX_CACHE) > _INDEX_CACHE_SIZE:
            _INDEX_CACHE.popitem(last=False)
    return index


class HomomorphismSearch:
    """A configurable homomorphism search between two fixed structures.

    Parameters
    ----------
    source, target:
        Structures over the same relational vocabulary (constants in the
        source must exist in the target as well).
    injective:
        Require the homomorphism to be injective (used by isomorphism and
        subgraph-embedding style queries).
    pinned:
        A partial assignment the homomorphism must extend.
    forbidden_images:
        Elements of the target that may not be used as images (used by the
        core computation to exclude an element).
    propagate:
        Enable the AC-style constraint propagation (default).  Disabling
        it leaves plain backtracking with forward checking — exposed for
        the ablation benchmarks.
    stats:
        Optional counter record (any object with integer ``nodes``,
        ``backtracks`` and ``ac3_prunings`` attributes, e.g.
        :class:`repro.engine.instrumentation.SolverStats`).  The search
        increments it in place; ``None`` disables counting.
    context:
        The governing :class:`~repro.resources.RunContext`; defaults to
        the ambient context at construction time.  The search
        checkpoints it at every node expansion and propagation sweep.
    """

    def __init__(
        self,
        source: Structure,
        target: Structure,
        injective: bool = False,
        pinned: Optional[Mapping[Element, Element]] = None,
        forbidden_images: Iterator = (),
        propagate: bool = True,
        stats=None,
        context: Optional[RunContext] = None,
    ) -> None:
        if source.vocabulary.relations != target.vocabulary.relations:
            raise ValidationError(
                "source and target must share their relation symbols"
            )
        self.source = source
        self.target = target
        self.injective = injective
        self.propagate = propagate
        self.stats = stats
        self.context = context if context is not None else current_context()
        self.index = target_index_for(target)

        forbidden = frozenset(forbidden_images)
        base_domain = [
            e for e in target.universe if e not in forbidden
        ]

        # facts_of[element] = list of (relation name, tuple, positions of elt)
        self.facts_of: Dict[Element, List[Tuple[str, Tup]]] = {
            e: [] for e in source.universe
        }
        self.all_facts: List[Tuple[str, Tup]] = []
        for name, tup in source.facts():
            self.all_facts.append((name, tup))
            for e in set(tup):
                self.facts_of[e].append((name, tup))

        # Initial domains with unary filtering.
        self.domains: Dict[Element, Set[Element]] = {}
        for e in source.universe:
            dom: Set[Element] = set(base_domain)
            for name, tup in self.facts_of[e]:
                dom &= self._positions_filter(name, tup, e)
            self.domains[e] = dom

        # Constants pin their interpretation; ``fixed`` collects the
        # pinned values, which twin pruning must never swap away.
        self.fixed: Set[Element] = set()
        for cname in source.vocabulary.constants:
            if not target.vocabulary.has_constant(cname):
                raise ValidationError(
                    f"target lacks constant {cname!r} present in source"
                )
            self._pin(source.constant(cname), target.constant(cname))
        if pinned:
            for key, value in pinned.items():
                self._pin(key, value)

    def _pin(self, element: Element, value: Element) -> None:
        if element not in self.domains:
            raise ValidationError(f"{element!r} is not a source element")
        self.domains[element] &= {value}
        self.fixed.add(value)

    def _positions_filter(self, name: str, tup: Tup, e: Element) -> Set[Element]:
        """Values ``v`` such that some target tuple has ``v`` at *every*
        position where ``e`` occurs in ``tup``."""
        positions = [pos for pos, x in enumerate(tup) if x == e]
        out: Set[Element] = set()
        for cand in self.index.tuples[name]:
            vals = {cand[pos] for pos in positions}
            if len(vals) == 1:
                out.add(next(iter(vals)))
        return out

    # ------------------------------------------------------------------
    def _consistent_fact(
        self, name: str, tup: Tup, assignment: Dict[Element, Element]
    ) -> bool:
        """Whether some target tuple matches the assigned positions of a fact."""
        candidates: Optional[Set[int]] = None
        for pos, x in enumerate(tup):
            if x in assignment:
                supp = self.index.by_position[name][pos].get(assignment[x])
                if not supp:
                    return False
                candidates = set(supp) if candidates is None else candidates & supp
                if not candidates:
                    return False
        if candidates is None:
            return bool(self.index.tuples[name])
        return bool(candidates)

    def _propagate(
        self,
        domains: Dict[Element, Set[Element]],
        assignment: Dict[Element, Element],
    ) -> bool:
        """AC-style pass: prune values with no supporting target tuple.

        Returns ``False`` on a wipe-out.
        """
        changed = True
        while changed:
            changed = False
            for name, tup in self.all_facts:
                self.context.checkpoint("hom.propagate")
                if all(x in assignment for x in tup):
                    continue
                # candidate target tuples compatible with current domains
                surviving: List[int] = []
                for t_idx, cand in enumerate(self.index.tuples[name]):
                    ok = True
                    for pos, x in enumerate(tup):
                        value = cand[pos]
                        if x in assignment:
                            if assignment[x] != value:
                                ok = False
                                break
                        elif value not in domains[x]:
                            ok = False
                            break
                    if ok:
                        surviving.append(t_idx)
                if not surviving:
                    return False
                for pos_group in self._grouped_positions(tup):
                    x = tup[pos_group[0]]
                    if x in assignment:
                        continue
                    supported = set()
                    for t_idx in surviving:
                        cand = self.index.tuples[name][t_idx]
                        vals = {cand[pos] for pos in pos_group}
                        if len(vals) == 1:
                            supported.add(next(iter(vals)))
                    new_domain = domains[x] & supported
                    if len(new_domain) < len(domains[x]):
                        if self.stats is not None:
                            self.stats.ac3_prunings += (
                                len(domains[x]) - len(new_domain)
                            )
                        domains[x] = new_domain
                        if not new_domain:
                            return False
                        changed = True
        return True

    @staticmethod
    def _grouped_positions(tup: Tup) -> List[List[int]]:
        groups: Dict[Element, List[int]] = defaultdict(list)
        for pos, x in enumerate(tup):
            groups[x].append(pos)
        return list(groups.values())

    # ------------------------------------------------------------------
    def solutions(self) -> Iterator[Homomorphism]:
        """Yield every homomorphism (deterministic order)."""
        domains = {e: set(d) for e, d in self.domains.items()}
        yield from self._search(domains, {})

    def first(self) -> Optional[Homomorphism]:
        """The first homomorphism found, or ``None``."""
        for solution in self.solutions():
            return solution
        return None

    def _search(
        self,
        domains: Dict[Element, Set[Element]],
        assignment: Dict[Element, Element],
    ) -> Iterator[Homomorphism]:
        self.context.checkpoint("hom.search")
        if len(assignment) == len(self.source.universe):
            yield dict(assignment)
            return
        if self.propagate and not self._propagate(domains, assignment):
            return
        unassigned = [e for e in self.source.universe if e not in assignment]
        # MRV with degree tie-break.
        var = min(
            unassigned,
            key=lambda e: (len(domains[e]), -len(self.facts_of[e]), repr(e)),
        )
        values = sorted(domains[var], key=repr)
        # Twin pruning, in the kernel's order: a fresh value (outside
        # the image and the pins) whose subtree held no solution rules
        # out its fresh twins at this node.
        taken = self.fixed | set(assignment.values())
        skip: Set[Element] = set()
        for value in values:
            if value in skip or (
                self.injective and value in assignment.values()
            ):
                continue
            assignment[var] = value
            if self.stats is not None:
                self.stats.nodes += 1
            ok = all(
                self._consistent_fact(name, tup, assignment)
                for name, tup in self.facts_of[var]
            )
            found = False
            if ok:
                child = {e: set(d) for e, d in domains.items()}
                child[var] = {value}
                for solution in self._search(child, assignment):
                    found = True
                    yield solution
            if not found and value not in taken:
                skip |= self.index.twins[value] - taken
            del assignment[var]
            if self.stats is not None:
                self.stats.backtracks += 1


# ----------------------------------------------------------------------
# Convenience functions (all routed through the global memoized engine)
# ----------------------------------------------------------------------
def find_homomorphism(
    source: Structure,
    target: Structure,
    pinned: Optional[Mapping[Element, Element]] = None,
) -> Optional[Homomorphism]:
    """A homomorphism from ``source`` to ``target``, or ``None``."""
    from ..engine import get_engine

    return get_engine().find_homomorphism(source, target, pinned=pinned)


def has_homomorphism(source: Structure, target: Structure) -> bool:
    """Whether a homomorphism ``source → target`` exists (Theorem 2.1's (1))."""
    from ..engine import get_engine

    return get_engine().exists_homomorphism(source, target)


def iter_homomorphisms(
    source: Structure, target: Structure
) -> Iterator[Homomorphism]:
    """All homomorphisms from ``source`` to ``target``.

    Enumeration is not memoized (the cache stores single witnesses), but
    the search is still counted by the engine's instrumentation.
    """
    from ..engine import get_engine

    return HomomorphismSearch(
        source, target, stats=get_engine().stats
    ).solutions()


def count_homomorphisms(source: Structure, target: Structure) -> int:
    """The number of homomorphisms from ``source`` to ``target``."""
    return sum(1 for _ in iter_homomorphisms(source, target))


def find_injective_homomorphism(
    source: Structure, target: Structure
) -> Optional[Homomorphism]:
    """An injective homomorphism (embedding of the non-induced kind)."""
    from ..engine import get_engine

    return get_engine().find_homomorphism(source, target, injective=True)


def find_homomorphism_avoiding(
    source: Structure, target: Structure, forbidden: Iterator
) -> Optional[Homomorphism]:
    """A homomorphism whose image avoids the ``forbidden`` target elements."""
    from ..engine import get_engine

    return get_engine().find_homomorphism(
        source, target, forbidden_images=frozenset(forbidden)
    )


def homomorphism_verdict(source: Structure, target: Structure):
    """The governed, trivalent form of :func:`has_homomorphism`.

    Returns a :class:`~repro.resources.Verdict`: TRUE with a witness,
    FALSE, or UNKNOWN when the ambient deadline/budget tripped before
    the search finished (the reason and consumption travel with it).
    """
    from ..engine import get_engine

    return get_engine().decide_homomorphism(source, target)
