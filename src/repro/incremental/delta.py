"""Structure edits as first-class deltas.

:class:`Delta` is an invertible description of one edit to a
:class:`~repro.structures.structure.Structure` — elements and facts to
add and remove.  :func:`apply_delta` applies it *immutably* (structures
stay immutable; the edited structure is a fresh instance) and returns
an :class:`EditRecord` carrying everything the rest of the incremental
engine keys off:

* both fingerprints, computed from scratch the first time they are
  read (an edit nobody asks about — a Datalog fixpoint's — never pays
  for one), and
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

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, Iterable, Set, Tuple

from ..engine.instrumentation import INCREMENTAL
from ..exceptions import ValidationError
from ..structures.structure import Structure

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


def incremental_fingerprint(new: Structure) -> str:
    """The edited structure's fingerprint, counted as an edit's
    recompute.  Kept as a name because the layered benchmark traces
    edit fingerprints through it."""
    INCREMENTAL.fingerprint_full_recomputes += 1
    return new.fingerprint()


@dataclass(frozen=True)
class EditRecord:
    """What one :func:`apply_delta` call learned about its edit."""

    delta: Delta
    before: Structure
    after: Structure

    @property
    def old_fingerprint(self) -> str:
        """The fingerprint before the edit (cached on ``before``)."""
        return self.before.fingerprint()

    @cached_property
    def new_fingerprint(self) -> str:
        """The fingerprint after the edit, computed on first read."""
        # Looked up per call, so a wrapper installed on this module
        # (the layered benchmark's tracer) sees it.
        return incremental_fingerprint(self.after)

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

    Returns ``(edited, record)``; the record's fingerprints are
    computed the first time they are read.  Raises
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
    record = EditRecord(delta, structure, edited)
    return edited, record
