"""The bitset MAC solver over a compiled target.

Drop-in counterpart of
:class:`repro.homomorphism.search.HomomorphismSearch` (same options,
same governance contract, same counter record, same enumeration order)
that runs over the dense-integer form produced by
:mod:`repro.kernel.compile`.  The engine builds it
(:meth:`~repro.engine.engine.HomEngine.search`); many queries against
one target share a :class:`~repro.kernel.batch.BatchSolveSession`.
What makes it fast:

* domains are Python-int bitmasks over target-element indexes; MRV uses
  ``int.bit_count()`` and pruning is ``&``;
* each source fact is compiled once into ``(all-tuples mask, per-
  variable support dict)`` pairs, so a propagation revision is a few
  dict lookups and big-int intersections instead of re-scanning target
  tuples (the support dicts play the role of AC-4 support counters:
  built once, consulted thereafter);
* each ``(relation, positions)`` group carries two per-solve memo
  tables — the support union of a domain mask and the values a
  surviving-tuple mask still supports — so a revision that meets a
  domain or tuple mask seen before costs two dict lookups instead of
  two walks over the domain's set bits;
* propagation is worklist-driven — only facts touching a variable whose
  domain just shrank are revisited, where the reference AC-3 loop
  re-sweeps every fact until a full pass changes nothing.

Checkpoints use the same site labels as the reference solver
(``hom.search`` per node expansion, ``hom.propagate`` per fact
revision) so deadline/budget errors, UNKNOWN verdicts and the chaos
harness are indistinguishable across the two paths.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..exceptions import ValidationError
from ..resources.governor import RunContext, current_context
from ..structures.structure import Element, Structure
from .compile import CompiledTarget

Homomorphism = Dict[Element, Element]

#: Entries a revision memo table holds before it is cleared (see
#: ``BitsetHomomorphismSolver._propagate``).  ``C101 → C103`` would
#: fill about 10k entries in one table; the layered benchmark's hom
#: instances stay under 900, so the bound only caps memory on long
#: solves.
MEMO_LIMIT = 4096

#: One variable of a compiled source fact: ``(variable index,
#: group-support dict, union memo, projection memo)``.  The support dict
#: maps a value to the mask of tuples holding it at every position of
#: the variable's group; the memos belong to the group (see
#: ``BitsetHomomorphismSolver._propagate``).
_Occurrence = Tuple[int, Dict[int, int], Dict[int, int], Dict[int, int]]

#: A compiled source fact: the relation's all-tuples mask plus one
#: occurrence per distinct variable.
_CompiledFact = Tuple[int, Tuple[_Occurrence, ...]]


def project(gsup: Dict[int, int], projs: Dict[int, int],
            surviving: int) -> int:
    """The values whose support meets tuple mask ``surviving``, computed
    on a ``projs`` miss and memoized there (cleared at
    :data:`MEMO_LIMIT` entries)."""
    keep = 0
    for value, supp in gsup.items():
        if supp & surviving:
            keep |= 1 << value
    if len(projs) >= MEMO_LIMIT:
        projs.clear()
    projs[surviving] = keep
    return keep


class PropagationScratch:
    """Reusable propagation work buffers (worklist deque + membership set).

    A solver allocates one pair per instance by default; a batch
    (:mod:`repro.kernel.batch`) allocates one pair per *session* and
    threads it through every query, so back-to-back solves against one
    compiled target stop churning fresh containers.  The buffers are
    cleared at the start of every propagation pass, so sharing is safe
    as long as solves do not interleave mid-propagation (they cannot:
    ``_propagate`` is not a generator and runs to completion).
    """

    __slots__ = ("queue", "queued")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.queued: set = set()


class BitsetHomomorphismSolver:
    """Backtracking MAC search from ``source`` into a compiled target.

    Accepts the same options as the reference
    :class:`~repro.homomorphism.search.HomomorphismSearch` (injective /
    pinned / forbidden_images / propagate / stats / context) and raises
    the same :class:`~repro.exceptions.ValidationError` on vocabulary or
    pinning misuse, so the engine can swap the two freely.  The engine
    is the one place that chooses between them.
    """

    def __init__(
        self,
        source: Structure,
        target: CompiledTarget,
        injective: bool = False,
        pinned: Optional[Mapping[Element, Element]] = None,
        forbidden_images: Iterable[Element] = (),
        propagate: bool = True,
        stats=None,
        context: Optional[RunContext] = None,
        scratch: Optional[PropagationScratch] = None,
    ) -> None:
        if source.vocabulary.relations != target.structure.vocabulary.relations:
            raise ValidationError(
                "source and target must share their relation symbols"
            )
        self.source = source
        self.target = target
        self.injective = injective
        self.propagate = propagate
        self.stats = stats
        self.context = context if context is not None else current_context()
        self.scratch = scratch if scratch is not None else PropagationScratch()

        self.vars: Tuple[Element, ...] = source.universe
        self.nvars = len(self.vars)
        self.var_of: Dict[Element, int] = {
            e: i for i, e in enumerate(self.vars)
        }
        # The reference solver breaks MRV ties by repr(element); using
        # the same rank (and repr-ordered value interning, see
        # CompiledTarget) keeps the two search trees identical, so the
        # kernel's speedup is pure mechanics, never heuristic luck.
        by_repr = sorted(range(self.nvars), key=lambda i: repr(self.vars[i]))
        self.rank: List[int] = [0] * self.nvars
        for position, i in enumerate(by_repr):
            self.rank[i] = position

        # Compile the source facts against the target's support tables.
        # Facts of one ``(relation, positions)`` group share its support
        # dict, so they share its revision memos too.
        self.facts: List[_CompiledFact] = []
        memos: Dict[Tuple[str, Tuple[int, ...]], Tuple[dict, dict]] = {}
        self.facts_of: List[List[int]] = [[] for _ in range(self.nvars)]
        base = target.full_mask
        for e in forbidden_images:
            idx = target.index_of.get(e)
            if idx is not None:
                base &= ~(1 << idx)
        self.domains: List[int] = [base] * self.nvars
        for name, tup in source.facts():
            rel = target.relations[name]
            positions_of: Dict[int, List[int]] = {}
            for pos, x in enumerate(tup):
                positions_of.setdefault(self.var_of[x], []).append(pos)
            fact_idx = len(self.facts)
            groups = []
            for var, positions in positions_of.items():
                positions = tuple(positions)
                memo = memos.get((name, positions))
                if memo is None:
                    memo = memos[name, positions] = ({}, {})
                groups.append((var, rel.group_support(positions)) + memo)
                self.facts_of[var].append(fact_idx)
                self.domains[var] &= rel.group_values(positions)
            self.facts.append((rel.all_mask, tuple(groups)))
        self.degree = [len(f) for f in self.facts_of]

        # Constants pin their interpretation, then explicit pins apply;
        # ``fixed`` collects the pinned values, which twin pruning must
        # never swap away.
        self.fixed = 0
        for cname in source.vocabulary.constants:
            if not target.structure.vocabulary.has_constant(cname):
                raise ValidationError(
                    f"target lacks constant {cname!r} present in source"
                )
            self._pin(source.constant(cname), target.structure.constant(cname))
        if pinned:
            for key, value in pinned.items():
                self._pin(key, value)

    def _pin(self, element: Element, value: Element) -> None:
        var = self.var_of.get(element)
        if var is None:
            raise ValidationError(f"{element!r} is not a source element")
        idx = self.target.index_of.get(value)
        bit = (1 << idx) if idx is not None else 0
        self.domains[var] &= bit
        self.fixed |= bit

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self, domains: List[int], seed_facts: Iterable[int]) -> bool:
        """Worklist GAC pass from ``seed_facts``; ``False`` on wipe-out.

        Revising a fact intersects its tuple mask with the union of each
        variable's per-value supports, then prunes every variable to the
        values still carried by a surviving tuple; shrunk variables
        re-enqueue their facts.  Domains only shrink, so the worklist
        drains.

        Both steps are memoized per group: ``unions[d]`` is the OR of
        the supports of the values in domain mask ``d``, and
        ``projs[s]`` is the mask of values whose support meets tuple
        mask ``s``, so the prune is ``old & projs[surviving]``.  Both
        are pure functions of the group's support dict, so a hit
        computes exactly what a walk would; a table reaching
        :data:`MEMO_LIMIT` entries is cleared.
        """
        facts = self.facts
        facts_of = self.facts_of
        context = self.context
        stats = self.stats
        queue = self.scratch.queue
        queued = self.scratch.queued
        queue.clear()
        queued.clear()
        queue.extend(seed_facts)
        queued.update(queue)
        while queue:
            context.checkpoint("hom.propagate")
            f = queue.popleft()
            queued.discard(f)
            surviving, groups = facts[f]
            for var, gsup, unions, _ in groups:
                d = domains[var]
                mask = unions.get(d)
                if mask is None:
                    mask = 0
                    rest = d
                    while rest:
                        low = rest & -rest
                        supp = gsup.get(low.bit_length() - 1)
                        if supp is not None:
                            mask |= supp
                        rest ^= low
                    if len(unions) >= MEMO_LIMIT:
                        unions.clear()
                    unions[d] = mask
                surviving &= mask
                if not surviving:
                    return False
            for var, gsup, _, projs in groups:
                keep = projs.get(surviving)
                if keep is None:
                    keep = project(gsup, projs, surviving)
                old = domains[var]
                new = old & keep
                if new != old:
                    if stats is not None:
                        stats.ac3_prunings += (
                            old.bit_count() - new.bit_count()
                        )
                    domains[var] = new
                    if not new:
                        return False
                    for f2 in facts_of[var]:
                        if f2 not in queued:
                            queue.append(f2)
                            queued.add(f2)
        return True

    def _forward_check(self, assignment: Dict[int, int], var: int) -> bool:
        """Plain forward checking (the ``propagate=False`` ablation):
        every fact of ``var`` must keep a target tuple matching all
        currently assigned positions."""
        for f in self.facts_of[var]:
            surviving, groups = self.facts[f]
            for v2, gsup, _, _ in groups:
                value = assignment.get(v2)
                if value is None:
                    continue
                surviving &= gsup.get(value, 0)
                if not surviving:
                    return False
        return True

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def solutions(self) -> Iterator[Homomorphism]:
        """Yield every homomorphism (deterministic order)."""
        domains = list(self.domains)
        if self.propagate and self.facts:
            if not self._propagate(domains, range(len(self.facts))):
                return
        yield from self._search(domains, {}, 0)

    def first(self) -> Optional[Homomorphism]:
        """The first homomorphism found, or ``None``."""
        return next(self.solutions(), None)

    def _search(
        self,
        domains: List[int],
        assignment: Dict[int, int],
        used: int,
    ) -> Iterator[Homomorphism]:
        self.context.checkpoint("hom.search")
        if len(assignment) == self.nvars:
            elements = self.target.elements
            yield {
                self.vars[v]: elements[val] for v, val in assignment.items()
            }
            return
        # MRV (popcount) with degree tie-break, then repr rank — the
        # reference solver's exact ordering.
        best = -1
        best_key = None
        for v in range(self.nvars):
            if v in assignment:
                continue
            key = (domains[v].bit_count(), -self.degree[v], self.rank[v])
            if best_key is None or key < best_key:
                best, best_key = v, key
        var = best
        stats = self.stats
        # Values outside the image and the pins are *fresh*.  A fresh
        # value whose subtree held no solution rules out its fresh twins
        # here: swapping the two is an automorphism fixing every assigned
        # image and pin, so it maps the twin's subtree onto the failed
        # one.  ``skip`` collects those twins (see DESIGN.md §4).
        taken = used | self.fixed
        skip = 0
        d = domains[var]
        while d:
            low = d & -d
            d ^= low
            if low & skip or (self.injective and used & low):
                continue
            value = low.bit_length() - 1
            assignment[var] = value
            if stats is not None:
                stats.nodes += 1
            child = list(domains)
            child[var] = low
            if self.propagate:
                ok = self._propagate(child, self.facts_of[var])
            else:
                ok = self._forward_check(assignment, var)
            found = False
            if ok:
                for solution in self._search(child, assignment, used | low):
                    found = True
                    yield solution
            if not found and not low & taken:
                skip |= self.target.twin_masks[value] & ~taken
            del assignment[var]
            if stats is not None:
                stats.backtracks += 1
