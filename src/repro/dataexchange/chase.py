"""The chase: materializing universal solutions, and their cores.

Given a source instance and a schema mapping of st-tgds, the (oblivious)
chase fires every dependency on every body match, inventing a fresh
labeled null per existential variable.  The result is the *canonical
universal solution*: it maps homomorphically into every solution.

Fagin–Kolaitis–Popa's observation — the reason the paper's introduction
cites data exchange as a core application — is that the **core of the
universal solution** is the smallest universal solution, and the right
instance to materialize.  Source constants must be preserved by the
relevant homomorphisms, which this module arranges by freezing them as
vocabulary constants before calling
:func:`repro.homomorphism.cores.compute_core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import ValidationError
from ..homomorphism.cores import compute_core
from ..homomorphism.search import find_homomorphism
from ..logic.syntax import Atom, Const, Var
from ..structures.structure import Element, Structure, Tup
from .tgds import SchemaMapping, SourceToTargetTGD

#: Labeled nulls are tagged tuples so they can never collide with source
#: constants.
NULL_TAG = "__null__"


def is_null(element: Element) -> bool:
    """Whether an element is a labeled null invented by the chase."""
    return isinstance(element, tuple) and len(element) == 2 \
        and element[0] == NULL_TAG


def chase(mapping: SchemaMapping, source: Structure) -> Structure:
    """The canonical universal solution of ``source`` under ``mapping``.

    Oblivious chase: fire each tgd once per body match, with fresh nulls
    for the existential variables (st-tgds never feed back, so one pass
    terminates).  The target structure's universe contains every source
    constant mentioned plus the invented nulls.
    """
    if source.vocabulary.relations != mapping.source_vocabulary.relations:
        raise ValidationError("source instance does not match the mapping")
    null_counter = count()
    target_facts: Dict[str, List[Tup]] = {
        name: [] for name in mapping.target_vocabulary.relation_names
    }
    used_elements: List[Element] = []
    seen: Set[Element] = set()

    def touch(element: Element) -> None:
        if element not in seen:
            seen.add(element)
            used_elements.append(element)

    for tgd in mapping.tgds:
        for assignment in _body_matches(tgd, source):
            valuation = dict(assignment)
            for variable in tgd.existential:
                valuation[variable] = (NULL_TAG, next(null_counter))
            for atom in tgd.head:
                tup = tuple(
                    valuation[t.name] if isinstance(t, Var)
                    else source.constant(t.name)
                    for t in atom.terms
                )
                for element in tup:
                    touch(element)
                target_facts[atom.relation].append(tup)
    return Structure(
        mapping.target_vocabulary, used_elements, target_facts
    )


def _body_matches(tgd: SourceToTargetTGD, source: Structure):
    """All assignments of the body variables satisfying the body."""
    variables = tgd.universal_variables()

    def extend(index: int, binding: Dict[str, Element]):
        if index == len(tgd.body):
            yield dict(binding)
            return
        atom = tgd.body[index]
        for tup in sorted(source.relation(atom.relation), key=repr):
            child = dict(binding)
            ok = True
            for term, value in zip(atom.terms, tup):
                if isinstance(term, Const):
                    if source.constant(term.name) != value:
                        ok = False
                        break
                elif child.setdefault(term.name, value) != value:
                    ok = False
                    break
            if ok:
                yield from extend(index + 1, child)

    yield from extend(0, {})
    del variables


# ----------------------------------------------------------------------
# Solutions and universality
# ----------------------------------------------------------------------
def is_solution(mapping: SchemaMapping, source: Structure,
                target: Structure) -> bool:
    """Whether ``target`` satisfies every tgd for this ``source``."""
    for tgd in mapping.tgds:
        for assignment in _body_matches(tgd, source):
            if not _head_satisfied(tgd, assignment, target):
                return False
    return True


def _head_satisfied(tgd: SourceToTargetTGD, assignment: Dict[str, Element],
                    target: Structure) -> bool:
    """∃ existential witnesses making every head atom a target fact."""

    def extend(index: int, valuation: Dict[str, Element]) -> bool:
        if index == len(tgd.existential):
            return all(
                target.has_fact(
                    atom.relation,
                    tuple(valuation[t.name] for t in atom.terms),
                )
                for atom in tgd.head
            )
        variable = tgd.existential[index]
        for candidate in target.universe:
            valuation[variable] = candidate
            if extend(index + 1, valuation):
                del valuation[variable]
                return True
            del valuation[variable]
        return False

    return extend(0, dict(assignment))


def _freeze_constants(target: Structure) -> Structure:
    """Expand the target so every non-null element is a constant.

    Homomorphisms between solutions must fix source values; freezing
    them lets the generic core machinery do the right thing.
    """
    assignments = {}
    for i, element in enumerate(sorted(
        (e for e in target.universe if not is_null(e)), key=repr
    )):
        assignments[f"__frozen_{i}"] = element
    if not assignments:
        return target
    return target.expand_with_constants(assignments)


def solution_homomorphism(
    a: Structure, b: Structure
) -> Optional[Dict[Element, Element]]:
    """A homomorphism ``a → b`` fixing all non-null elements, or ``None``.

    The data-exchange notion of homomorphism between solutions: labeled
    nulls may move, constants may not.
    """
    fa, fb = _freeze_constants(a), _freeze_constants(b)
    if fa.vocabulary.constants != fb.vocabulary.constants:
        # different constant sets: align by pinning shared elements
        pinned = {
            e: e for e in a.universe if not is_null(e) and e in b.universe_set
        }
        if any(not is_null(e) and e not in b.universe_set
               for e in a.universe):
            return None
        from ..engine import get_engine

        return get_engine().search(a, b, pinned=pinned).first()
    return find_homomorphism(fa, fb)


def is_universal_solution(
    mapping: SchemaMapping,
    source: Structure,
    candidate: Structure,
    others: Sequence[Structure] = (),
) -> bool:
    """Solution + homomorphism into every provided other solution."""
    if not is_solution(mapping, source, candidate):
        return False
    return all(
        solution_homomorphism(candidate, other) is not None
        for other in others
        if is_solution(mapping, source, other)
    )


@dataclass(frozen=True)
class CoreSolutionReport:
    """Sizes before/after taking the core of the universal solution."""

    canonical: Structure
    core: Structure

    def shrinkage(self) -> Tuple[int, int]:
        """``(elements saved, facts saved)``."""
        return (
            self.canonical.size() - self.core.size(),
            self.canonical.num_facts() - self.core.num_facts(),
        )


def core_solution(mapping: SchemaMapping, source: Structure,
                  ) -> CoreSolutionReport:
    """Chase, then core (with source values frozen): the smallest
    universal solution [Fagin–Kolaitis–Popa]."""
    canonical = chase(mapping, source)
    frozen = _freeze_constants(canonical)
    core_frozen = compute_core(frozen)
    core = core_frozen.reduct(mapping.target_vocabulary)
    return CoreSolutionReport(canonical, core)
