"""Structure edits as first-class deltas.

:class:`Delta` is an invertible description of one edit to a
:class:`~repro.structures.structure.Structure` — elements and facts to
add and remove.  :func:`apply_delta` applies it *immutably* (structures
stay immutable; the edited structure is a fresh instance) and returns
an :class:`EditRecord` carrying everything the rest of the incremental
engine keys off:

* both fingerprints (the new one delta-maintained through
  :func:`repro.incremental.fingerprint.incremental_fingerprint`
  whenever the edit's refinement radius allows it),
* the **touched** element set (every element of an added/removed fact
  plus every added/removed element) — the seed of fingerprint dirt and
  of warm-start reasoning, and
* the edit's **direction** per side (:meth:`Delta.hardens` /
  :meth:`Delta.loosens`), which is what lets warm-start re-decision
  keep a FALSE verdict without any search when the edit can only
  shrink the hom set.

Invertibility is strict: added facts/elements must be genuinely new and
removed ones genuinely present (and removed elements isolated once the
delta's own fact removals are accounted for), so ``apply_delta(B,
delta.inverse())`` always restores a structure equal to ``A`` — the
property the hypothesis suite checks round-trip by fingerprint *and*
equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, Set, Tuple

from ..exceptions import ValidationError
from ..structures.structure import Structure
from .fingerprint import incremental_fingerprint

Element = Hashable
Fact = Tuple[str, Tuple[Element, ...]]


def _normalize_facts(facts: Iterable) -> Tuple[Fact, ...]:
    return tuple((str(name), tuple(tup)) for name, tup in facts)


@dataclass(frozen=True)
class Delta:
    """One invertible edit: elements/facts to add and remove.

    Application order (what :func:`apply_delta` performs and what the
    validity conditions below are stated against): add elements, add
    facts, remove facts, remove elements.
    """

    add_elements: Tuple[Element, ...] = ()
    remove_elements: Tuple[Element, ...] = ()
    add_facts: Tuple[Fact, ...] = ()
    remove_facts: Tuple[Fact, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_elements", tuple(self.add_elements))
        object.__setattr__(self, "remove_elements", tuple(self.remove_elements))
        object.__setattr__(self, "add_facts", _normalize_facts(self.add_facts))
        object.__setattr__(
            self, "remove_facts", _normalize_facts(self.remove_facts)
        )

    def inverse(self) -> "Delta":
        """The delta undoing this one (swap adds and removes)."""
        return Delta(
            add_elements=self.remove_elements,
            remove_elements=self.add_elements,
            add_facts=self.remove_facts,
            remove_facts=self.add_facts,
        )

    def is_empty(self) -> bool:
        return not (
            self.add_elements or self.remove_elements
            or self.add_facts or self.remove_facts
        )

    def touched_elements(self) -> FrozenSet[Element]:
        """Every element whose incidence the edit can change: elements
        of added/removed facts plus added/removed elements."""
        touched: Set[Element] = set(self.add_elements)
        touched.update(self.remove_elements)
        for _name, tup in self.add_facts:
            touched.update(tup)
        for _name, tup in self.remove_facts:
            touched.update(tup)
        return frozenset(touched)

    # ------------------------------------------------------------------
    # Direction (the monotonicity the warm-start layer reasons with)
    # ------------------------------------------------------------------
    def hardens(self) -> bool:
        """Whether the edit only *adds* structure (facts/elements).

        Hardening the source of a hom query ``A → B`` (more facts to
        satisfy) or *loosening* its target can only shrink the set of
        homomorphisms — so a FALSE verdict survives a hardening source
        edit without re-search."""
        return not (self.remove_elements or self.remove_facts)

    def loosens(self) -> bool:
        """Whether the edit only *removes* structure."""
        return not (self.add_elements or self.add_facts)


@dataclass(frozen=True)
class EditRecord:
    """What one :func:`apply_delta` call learned about its edit."""

    delta: Delta
    old_fingerprint: str
    new_fingerprint: str
    touched: FrozenSet[Element] = field(default_factory=frozenset)
    #: Whether the new fingerprint was delta-maintained (``False`` ⇒
    #: exact from-scratch fallback — same digest either way).
    incremental: bool = False
    #: Final dirty-frontier size of the incremental recompute.
    dirty_elements: int = 0
    #: Refinement rounds replayed.
    rounds: int = 0

    def unchanged(self) -> bool:
        """Whether the edit left the fingerprint (hence every cache key
        derived from it) intact."""
        return self.old_fingerprint == self.new_fingerprint


def _validate(structure: Structure, delta: Delta) -> None:
    universe = structure.universe_set
    adds = set(delta.add_elements)
    if len(adds) != len(delta.add_elements):
        raise ValidationError("delta adds a duplicate element")
    removes = set(delta.remove_elements)
    if len(removes) != len(delta.remove_elements):
        raise ValidationError("delta removes a duplicate element")
    if adds & removes:
        raise ValidationError("delta both adds and removes an element")
    for e in adds:
        if e in universe:
            raise ValidationError(f"delta adds existing element {e!r}")
    constant_values = set(structure.constants.values())
    for e in removes:
        if e not in universe:
            raise ValidationError(f"delta removes non-element {e!r}")
        if e in constant_values:
            raise ValidationError(
                f"delta removes element {e!r} named by a constant"
            )

    added = set(delta.add_facts)
    if len(added) != len(delta.add_facts):
        raise ValidationError("delta adds a duplicate fact")
    removed = set(delta.remove_facts)
    if len(removed) != len(delta.remove_facts):
        raise ValidationError("delta removes a duplicate fact")
    if added & removed:
        raise ValidationError("delta both adds and removes a fact")
    vocabulary = structure.vocabulary
    allowed = universe | adds
    for name, tup in added:
        if not vocabulary.has_relation(name):
            raise ValidationError(f"unknown relation symbol {name!r}")
        if len(tup) != vocabulary.arity(name):
            raise ValidationError(
                f"relation {name!r} has arity {vocabulary.arity(name)}, "
                f"got tuple {tup!r}"
            )
        if structure.has_fact(name, tup):
            raise ValidationError(f"delta adds existing fact {name}{tup!r}")
        for x in tup:
            if x not in allowed:
                raise ValidationError(
                    f"added fact {name}{tup!r} uses non-element {x!r}"
                )
    for name, tup in removed:
        if not vocabulary.has_relation(name):
            raise ValidationError(f"unknown relation symbol {name!r}")
        if not structure.has_fact(name, tup):
            raise ValidationError(f"delta removes absent fact {name}{tup!r}")

    if removes:
        # Removed elements must be isolated once this delta's own fact
        # edits are applied — otherwise the inverse delta could not
        # restore the dropped incident facts and the edit would not
        # round-trip.
        for name in vocabulary.relation_names:
            for tup in structure.relation(name):
                if (name, tup) in removed:
                    continue
                for x in tup:
                    if x in removes:
                        raise ValidationError(
                            f"delta removes element {x!r} still used by "
                            f"{name}{tup!r} (remove the fact in the same "
                            "delta)"
                        )
        for name, tup in added:
            for x in tup:
                if x in removes:
                    raise ValidationError(
                        f"delta removes element {x!r} used by added fact "
                        f"{name}{tup!r}"
                    )


def apply_delta(
    structure: Structure, delta: Delta
) -> Tuple[Structure, EditRecord]:
    """Apply ``delta`` to ``structure`` immutably.

    Returns ``(edited, record)``.  The edited structure's fingerprint
    is delta-maintained (only the edit's refinement radius re-hashed,
    with an exact full recompute where that does not pay); the digest
    is identical to a from-scratch computation and the per-round color
    history is installed on the result so the chain can continue.  Raises
    :class:`~repro.exceptions.ValidationError` when the delta does not
    round-trip (adding present facts, removing absent ones, removing
    non-isolated elements, …).
    """
    _validate(structure, delta)
    removes = set(delta.remove_elements)
    removed_facts = set(delta.remove_facts)
    relations: Dict[str, Set[Tuple[Element, ...]]] = {
        name: set(structure.relation(name))
        for name in structure.vocabulary.relation_names
    }
    for name, tup in delta.add_facts:
        relations[name].add(tup)
    for name, tup in removed_facts:
        relations[name].discard(tup)
    universe = [e for e in structure.universe if e not in removes]
    universe.extend(delta.add_elements)
    edited = Structure(
        structure.vocabulary, universe, relations, structure.constants
    )

    touched = delta.touched_elements()
    # Looked up per call, so a wrapper installed on the fingerprint
    # module (the layered benchmark's tracer) sees this call too.
    from .fingerprint import fingerprint_with_history

    old_fp = fingerprint_with_history(structure)
    new_fp, was_incremental, dirty, rounds = incremental_fingerprint(
        structure, edited, touched, delta=delta
    )
    record = EditRecord(
        delta=delta,
        old_fingerprint=old_fp,
        new_fingerprint=new_fp,
        touched=touched,
        incremental=was_incremental,
        dirty_elements=dirty,
        rounds=rounds,
    )
    return edited, record
