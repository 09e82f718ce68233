"""Finite relational structures (Section 2.1).

A σ-structure consists of a finite universe, an interpretation of each
relation symbol as a set of tuples over the universe, and (when the
vocabulary has constants) an interpretation of each constant as an
element.  :class:`Structure` is immutable; all operations return new
structures.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..exceptions import ValidationError
from .vocabulary import Vocabulary

Element = Hashable
Tup = Tuple[Element, ...]
Fact = Tuple[str, Tup]


class Structure:
    """An immutable finite σ-structure.

    Parameters
    ----------
    vocabulary:
        The structure's vocabulary.
    universe:
        Iterable of hashable elements (order preserved, duplicates merged).
    relations:
        Mapping relation-name → iterable of tuples over the universe.
        Every relation of the vocabulary may be omitted (interpreted as
        empty); unknown names are rejected.
    constants:
        Mapping constant-name → element, required exactly for the
        vocabulary's constants.

    Examples
    --------
    >>> from repro.structures import Vocabulary
    >>> sigma = Vocabulary({"E": 2})
    >>> triangle = Structure(sigma, [0, 1, 2],
    ...                      {"E": [(0, 1), (1, 2), (2, 0)]})
    >>> triangle.size()
    3
    """

    __slots__ = ("_vocabulary", "_universe", "_universe_set", "_relations",
                 "_constants", "_hash", "_fingerprint")

    def __init__(
        self,
        vocabulary: Vocabulary,
        universe: Iterable[Element],
        relations: Optional[Mapping[str, Iterable[Tup]]] = None,
        constants: Optional[Mapping[str, Element]] = None,
    ) -> None:
        ordered: List[Element] = []
        seen: Set[Element] = set()
        for e in universe:
            if e not in seen:
                seen.add(e)
                ordered.append(e)
        self._vocabulary = vocabulary
        self._universe: Tuple[Element, ...] = tuple(ordered)
        self._universe_set: FrozenSet[Element] = frozenset(seen)

        rels: Dict[str, FrozenSet[Tup]] = {}
        relations = relations or {}
        for name in relations:
            if not vocabulary.has_relation(name):
                raise ValidationError(f"unknown relation symbol {name!r}")
        for name in vocabulary.relation_names:
            arity = vocabulary.arity(name)
            tuples: Set[Tup] = set()
            for raw in relations.get(name, ()):
                tup = tuple(raw)
                if len(tup) != arity:
                    raise ValidationError(
                        f"relation {name!r} has arity {arity}, got tuple {tup!r}"
                    )
                for x in tup:
                    if x not in self._universe_set:
                        raise ValidationError(
                            f"tuple {tup!r} in {name!r} uses non-element {x!r}"
                        )
                tuples.add(tup)
            rels[name] = frozenset(tuples)
        self._relations: Dict[str, FrozenSet[Tup]] = rels

        consts: Dict[str, Element] = {}
        constants = constants or {}
        for cname in vocabulary.constants:
            if cname not in constants:
                raise ValidationError(f"constant {cname!r} not interpreted")
            value = constants[cname]
            if value not in self._universe_set:
                raise ValidationError(
                    f"constant {cname!r} maps to non-element {value!r}"
                )
            consts[cname] = value
        for cname in constants:
            if not vocabulary.has_constant(cname):
                raise ValidationError(f"unknown constant symbol {cname!r}")
        self._constants: Dict[str, Element] = consts
        self._hash: Optional[int] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def vocabulary(self) -> Vocabulary:
        """The structure's vocabulary."""
        return self._vocabulary

    @property
    def universe(self) -> Tuple[Element, ...]:
        """The universe in deterministic order."""
        return self._universe

    @property
    def universe_set(self) -> FrozenSet[Element]:
        """The universe as a frozenset."""
        return self._universe_set

    def relation(self, name: str) -> FrozenSet[Tup]:
        """The interpretation of relation symbol ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise ValidationError(f"unknown relation symbol {name!r}") from None

    def constant(self, name: str) -> Element:
        """The interpretation of constant symbol ``name``."""
        try:
            return self._constants[name]
        except KeyError:
            raise ValidationError(f"unknown constant symbol {name!r}") from None

    @property
    def constants(self) -> Dict[str, Element]:
        """Constant interpretations (a defensive copy)."""
        return dict(self._constants)

    def size(self) -> int:
        """The number of elements in the universe."""
        return len(self._universe)

    def fingerprint(self) -> str:
        """The canonical order-invariant fingerprint (lazily computed).

        Delegates to :func:`repro.engine.fingerprint.structure_fingerprint`
        and caches the digest on the instance.  Structures are immutable,
        so mutating operations (``with_fact`` …) return fresh instances
        whose cached digest starts out empty — that is the invalidation.
        """
        if self._fingerprint is None:
            from ..engine.fingerprint import structure_fingerprint

            self._fingerprint = structure_fingerprint(self)
        return self._fingerprint

    def num_facts(self) -> int:
        """The total number of tuples across all relations."""
        return sum(len(t) for t in self._relations.values())

    def facts(self) -> Iterator[Fact]:
        """All facts as ``(relation_name, tuple)`` pairs, sorted."""
        for name in self._vocabulary.relation_names:
            for tup in sorted(self._relations[name], key=repr):
                yield (name, tup)

    def has_fact(self, name: str, tup: Tup) -> bool:
        """Whether ``tup`` is in relation ``name``."""
        return tuple(tup) in self.relation(name)

    def __contains__(self, element: Element) -> bool:
        return element in self._universe_set

    def __len__(self) -> int:
        return len(self._universe)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._vocabulary == other._vocabulary
            and self._universe_set == other._universe_set
            and self._relations == other._relations
            and self._constants == other._constants
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((
                self._vocabulary,
                self._universe_set,
                frozenset(self._relations.items()),
                frozenset(self._constants.items()),
            ))
        return self._hash

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}:{len(tuples)}" for name, tuples in sorted(self._relations.items())
        )
        return f"Structure(|A|={self.size()}, {rels})"

    # ------------------------------------------------------------------
    # Substructure relations (Section 2.1: substructures need NOT be induced)
    # ------------------------------------------------------------------
    def is_substructure_of(self, other: "Structure") -> bool:
        """Whether this is a substructure of ``other``: ``B ⊆ A`` and
        ``R^B ⊆ R^A`` for every ``R`` (constants must agree)."""
        if self._vocabulary != other._vocabulary:
            return False
        if not self._universe_set <= other._universe_set:
            return False
        if self._constants != other._constants:
            return False
        return all(
            self._relations[name] <= other._relations[name]
            for name in self._relations
        )

    def is_proper_substructure_of(self, other: "Structure") -> bool:
        """Substructure and not equal."""
        return self != other and self.is_substructure_of(other)

    def is_induced_substructure_of(self, other: "Structure") -> bool:
        """Whether this is an *induced* substructure of ``other``."""
        if not self.is_substructure_of(other):
            return False
        for name, tuples in other._relations.items():
            induced = frozenset(
                t for t in tuples if all(x in self._universe_set for x in t)
            )
            if self._relations[name] != induced:
                return False
        return True

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def restrict(self, elements: Iterable[Element]) -> "Structure":
        """The induced substructure on ``elements`` (∩ universe).

        Constants must survive the restriction.
        """
        keep = set(elements) & self._universe_set
        for cname, value in self._constants.items():
            if value not in keep:
                raise ValidationError(
                    f"restriction drops the interpretation of constant {cname!r}"
                )
        rels = {
            name: [t for t in tuples if all(x in keep for x in t)]
            for name, tuples in self._relations.items()
        }
        return Structure(
            self._vocabulary,
            (e for e in self._universe if e in keep),
            rels,
            self._constants,
        )

    def without_element(self, element: Element) -> "Structure":
        """The induced substructure dropping one element."""
        if element not in self._universe_set:
            raise ValidationError(f"{element!r} is not an element")
        return self.restrict(e for e in self._universe if e != element)

    def without_fact(self, name: str, tup: Tup) -> "Structure":
        """A copy with one tuple removed (universe unchanged)."""
        tup = tuple(tup)
        if tup not in self.relation(name):
            raise ValidationError(f"{name}{tup!r} is not a fact")
        rels = {
            n: (tuples - {tup} if n == name else tuples)
            for n, tuples in self._relations.items()
        }
        return Structure(self._vocabulary, self._universe, rels, self._constants)

    def with_fact(self, name: str, tup: Tup) -> "Structure":
        """A copy with one tuple added (elements must exist)."""
        rels = {n: set(tuples) for n, tuples in self._relations.items()}
        rels[name].add(tuple(tup))
        return Structure(self._vocabulary, self._universe, rels, self._constants)

    def with_element(self, element: Element) -> "Structure":
        """A copy with one fresh isolated element added."""
        if element in self._universe_set:
            raise ValidationError(f"{element!r} is already an element")
        return Structure(
            self._vocabulary,
            tuple(self._universe) + (element,),
            self._relations,
            self._constants,
        )

    def rename(self, mapping: Mapping[Element, Element]) -> "Structure":
        """Rename elements through an injective mapping (an isomorphism)."""
        missing = self._universe_set - set(mapping)
        if missing:
            raise ValidationError(f"rename misses elements: {missing}")
        images = [mapping[e] for e in self._universe]
        if len(set(images)) != len(images):
            raise ValidationError("rename mapping is not injective")
        rels = {
            name: [tuple(mapping[x] for x in t) for t in tuples]
            for name, tuples in self._relations.items()
        }
        consts = {c: mapping[v] for c, v in self._constants.items()}
        return Structure(self._vocabulary, images, rels, consts)

    def canonical_relabel(self) -> "Structure":
        """Rename elements to ``0..n-1`` following universe order."""
        mapping = {e: i for i, e in enumerate(self._universe)}
        return self.rename(mapping)

    def reduct(self, vocabulary: Vocabulary) -> "Structure":
        """The reduct to a sub-vocabulary (drop extra relations/constants)."""
        for name in vocabulary.relation_names:
            if (not self._vocabulary.has_relation(name)
                    or self._vocabulary.arity(name) != vocabulary.arity(name)):
                raise ValidationError(f"{name!r} is not a relation here")
        rels = {name: self._relations[name] for name in vocabulary.relation_names}
        consts = {}
        for cname in vocabulary.constants:
            if cname not in self._constants:
                raise ValidationError(f"{cname!r} is not a constant here")
            consts[cname] = self._constants[cname]
        return Structure(vocabulary, self._universe, rels, consts)

    def expand_with_constants(
        self, assignments: Mapping[str, Element]
    ) -> "Structure":
        """The expansion interpreting fresh constants (Section 6.1's ``σ'``)."""
        new_vocab = self._vocabulary.with_constants(assignments.keys())
        consts = dict(self._constants)
        consts.update(assignments)
        return Structure(new_vocab, self._universe, self._relations, consts)

    # ------------------------------------------------------------------
    def substructures(self) -> Iterator["Structure"]:
        """All substructures obtained by dropping one fact or one isolated
        step of an element (immediate predecessors in the substructure
        order).  Iterating to a fixpoint visits every substructure."""
        for name, tup in self.facts():
            yield self.without_fact(name, tup)
        for element in self._universe:
            if element in set(self._constants.values()):
                continue
            if not self._element_in_some_fact(element):
                yield self.without_element(element)

    def _element_in_some_fact(self, element: Element) -> bool:
        return any(
            element in tup
            for tuples in self._relations.values()
            for tup in tuples
        )

    def active_elements(self) -> FrozenSet[Element]:
        """Elements appearing in at least one fact (or named by a constant)."""
        active: Set[Element] = set(self._constants.values())
        for tuples in self._relations.values():
            for tup in tuples:
                active.update(tup)
        return frozenset(active)
