"""Conjunctive queries (select-project-join queries, Section 2.2).

A conjunctive query is ``∃ x̄ . θ`` with ``θ`` a conjunction of relational
atoms; free variables form the query head.  :class:`ConjunctiveQuery`
stores the head and body explicitly, converts to/from formulas, builds
the canonical structure (Chandra–Merlin), and evaluates on structures by
homomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..exceptions import UnsupportedFragmentError, ValidationError
from ..logic.normalform import (
    ConjunctiveDisjunct,
    existential_positive_to_disjuncts,
)
from ..logic.fragments import is_cq_formula
from ..logic.syntax import (
    Atom,
    Const,
    Equal,
    Formula,
    Term,
    Top,
    Var,
    And,
    exists_many,
)
from ..structures.structure import Element, Structure, Tup
from ..structures.vocabulary import Vocabulary

#: Marker prefix for canonical-structure elements arising from variables.
_VAR_TAG = "var"
_CONST_TAG = "const"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """An equality-free conjunctive query over a vocabulary.

    Attributes
    ----------
    vocabulary:
        The vocabulary the body atoms refer to.
    head:
        Ordered tuple of answer variable names (may repeat; empty for a
        Boolean query).
    body:
        Tuple of relational atoms (:class:`~repro.logic.syntax.Atom`),
        whose terms are variables or vocabulary constants.
    """

    vocabulary: Vocabulary
    head: Tuple[str, ...]
    body: Tuple[Atom, ...]

    def __post_init__(self) -> None:
        body_vars: Set[str] = set()
        for a in self.body:
            if not self.vocabulary.has_relation(a.relation):
                raise ValidationError(f"unknown relation {a.relation!r}")
            if self.vocabulary.arity(a.relation) != len(a.terms):
                raise ValidationError(
                    f"atom {a} violates the arity of {a.relation!r}"
                )
            for t in a.terms:
                if isinstance(t, Const):
                    if not self.vocabulary.has_constant(t.name):
                        raise ValidationError(f"unknown constant {t.name!r}")
                else:
                    body_vars.add(t.name)
        for h in self.head:
            if h not in body_vars:
                raise ValidationError(
                    f"head variable {h!r} does not occur in the body "
                    "(unsafe query)"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def variables(self) -> Tuple[str, ...]:
        """All variable names, head variables first, then body order."""
        seen: List[str] = []
        for h in self.head:
            if h not in seen:
                seen.append(h)
        for a in self.body:
            for t in a.terms:
                if isinstance(t, Var) and t.name not in seen:
                    seen.append(t.name)
        return tuple(seen)

    def existential_variables(self) -> Tuple[str, ...]:
        """Variables not in the head (the quantified ones)."""
        head = set(self.head)
        return tuple(v for v in self.variables() if v not in head)

    def is_boolean(self) -> bool:
        """Whether the query has an empty head."""
        return not self.head

    def arity(self) -> int:
        """The arity of the answer relation."""
        return len(self.head)

    def num_atoms(self) -> int:
        """The number of body atoms."""
        return len(self.body)

    def __str__(self) -> str:
        body = " & ".join(str(a) for a in self.body) or "true"
        head = ", ".join(self.head)
        quantified = ", ".join(self.existential_variables())
        prefix = f"exists {quantified}. " if quantified else ""
        return f"({head}) <- {prefix}{body}" if head else f"<- {prefix}{body}"

    # ------------------------------------------------------------------
    # Formula round-trips
    # ------------------------------------------------------------------
    def to_formula(self) -> Formula:
        """The defining formula ``∃ ȳ . conj(body)`` (free head variables)."""
        body: Formula = And.of(*self.body) if self.body else Top()
        return exists_many(self.existential_variables(), body)

    @staticmethod
    def from_formula(
        formula: Formula, vocabulary: Vocabulary
    ) -> "ConjunctiveQuery":
        """Build a CQ from a CQ-shaped formula (equalities eliminated).

        The formula may reuse variables (``CQ^k`` style); bound variables
        are renamed apart and existentials pulled to the front.  Free
        variables become the head, sorted by name.
        """
        if not is_cq_formula(formula):
            raise UnsupportedFragmentError("formula is not CQ-shaped")
        disjuncts = existential_positive_to_disjuncts(formula)
        if len(disjuncts) != 1:  # pragma: no cover - CQ shape guarantees 1
            raise UnsupportedFragmentError("formula is not a single CQ")
        head = tuple(sorted(formula.free_variables()))
        return _disjunct_to_cq(disjuncts[0], head, vocabulary)

    # ------------------------------------------------------------------
    # Canonical structure (Chandra–Merlin)
    # ------------------------------------------------------------------
    def canonical_structure(self) -> Structure:
        """The canonical structure: elements are the variables, facts the
        atoms (Section 2.2).

        Variable ``x`` becomes element ``('var', x)``; a vocabulary
        constant ``c`` used in the body becomes element ``('const', c)``,
        and the structure interprets ``c`` as that element.  Head
        variables are *not* distinguished here — containment pins them
        separately.
        """
        elements: List[Element] = [
            (_VAR_TAG, v) for v in self.variables()
        ]
        consts_used = sorted(
            {
                t.name
                for a in self.body
                for t in a.terms
                if isinstance(t, Const)
            }
        )
        elements += [(_CONST_TAG, c) for c in consts_used]
        relations: Dict[str, List[Tup]] = {
            name: [] for name in self.vocabulary.relation_names
        }
        for a in self.body:
            tup = tuple(
                (_CONST_TAG, t.name) if isinstance(t, Const) else (_VAR_TAG, t.name)
                for t in a.terms
            )
            relations[a.relation].append(tup)
        if consts_used:
            vocab = self.vocabulary.without_constants().with_constants(consts_used)
            constants = {c: (_CONST_TAG, c) for c in consts_used}
            return Structure(vocab, elements, relations, constants)
        return Structure(
            self.vocabulary.without_constants(), elements, relations
        )

    def frozen_structure(self) -> Structure:
        """Canonical structure with head variables named by fresh constants.

        This is the right object for containment of non-Boolean queries:
        homomorphisms must fix the answer variables (Section 6.1's
        expansion by constants, specialized to canonical structures).
        """
        base = self.canonical_structure()
        head_elems = {f"__head_{i}": (_VAR_TAG, v)
                      for i, v in enumerate(self.head)}
        if not head_elems:
            return base
        return base.expand_with_constants(head_elems)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, structure: Structure) -> Set[Tuple[Element, ...]]:
        """All answer tuples of the query on ``structure``.

        Evaluated Chandra–Merlin style: homomorphisms from the canonical
        structure into ``structure``, projected onto the head.  For a
        Boolean query the result is ``{()}`` or ``set()``.
        """
        search = self._search(structure)
        answers: Set[Tuple[Element, ...]] = set()
        if self.is_boolean():
            if search.first() is not None:
                answers.add(())
            return answers
        for hom in search.solutions():
            answers.add(tuple(hom[(_VAR_TAG, v)] for v in self.head))
        return answers

    def holds_in(self, structure: Structure) -> bool:
        """Boolean satisfaction: whether some answer exists."""
        return self._search(structure).first() is not None

    def _search(self, structure: Structure):
        """The engine's plain search from the canonical structure into
        ``structure``."""
        from ..engine import get_engine

        return get_engine().search(
            self.canonical_structure(), self._target_compatible(structure)
        )

    def _target_compatible(self, structure: Structure) -> Structure:
        """Adapt the target's vocabulary to the canonical structure's."""
        canon_vocab = self.canonical_structure().vocabulary
        if structure.vocabulary == canon_vocab:
            return structure
        # Keep the needed relations/constants only.
        return structure.reduct(canon_vocab)


def _disjunct_to_cq(
    disjunct: ConjunctiveDisjunct,
    head: Tuple[str, ...],
    vocabulary: Vocabulary,
) -> ConjunctiveQuery:
    """Eliminate equalities from a disjunct and package it as a CQ.

    Equalities are removed by substitution (Section 2.2): variables in an
    equality class are replaced by a single representative, preferring
    head variables, then constants.  ``x = c`` substitutes the constant;
    ``c = c'`` for distinct constants is not eliminable at the syntactic
    level and is rejected.
    """
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        parent[find(y)] = find(x)

    const_of: Dict[str, str] = {}
    for eq in disjunct.equalities:
        left, right = eq.left, eq.right
        if isinstance(left, Const) and isinstance(right, Const):
            if left.name != right.name:
                raise UnsupportedFragmentError(
                    f"cannot eliminate constant equality {left} = {right}"
                )
            continue
        if isinstance(left, Const):
            left, right = right, left
        assert isinstance(left, Var)
        if isinstance(right, Const):
            root = find(left.name)
            if root in const_of and const_of[root] != right.name:
                raise UnsupportedFragmentError(
                    "variable equated with two distinct constants"
                )
            const_of[root] = right.name
        else:
            ra, rb = find(left.name), find(right.name)
            if ra != rb:
                merged_const = const_of.get(ra, const_of.get(rb))
                union(left.name, right.name)
                root = find(left.name)
                if merged_const is not None:
                    const_of[root] = merged_const
                const_of.pop(ra, None)
                const_of.pop(rb, None)
                if merged_const is not None:
                    const_of[root] = merged_const

    head_set = set(head)

    # choose representatives: head variables win, else lexicographic
    classes: Dict[str, List[str]] = {}
    all_vars = set(head)
    for a in disjunct.atoms:
        for t in a.terms:
            if isinstance(t, Var):
                all_vars.add(t.name)
    for eq in disjunct.equalities:
        for t in (eq.left, eq.right):
            if isinstance(t, Var):
                all_vars.add(t.name)
    for v in all_vars:
        classes.setdefault(find(v), []).append(v)

    substitution: Dict[str, Term] = {}
    for root, members in classes.items():
        if root in const_of:
            rep: Term = Const(const_of[root])
        else:
            head_members = sorted(m for m in members if m in head_set)
            rep = Var(head_members[0] if head_members else min(members))
        for member in members:
            substitution[member] = rep

    def subst(t: Term) -> Term:
        if isinstance(t, Var):
            return substitution.get(t.name, t)
        return t

    # Head variables equated together or with constants shrink the head:
    # keep the representative name; a head variable equated to a constant
    # is unsupported at this level (the caller can re-express it).
    new_head: List[str] = []
    for h in head:
        rep = substitution.get(h, Var(h))
        if isinstance(rep, Const):
            raise UnsupportedFragmentError(
                f"head variable {h!r} is forced equal to a constant"
            )
        new_head.append(rep.name)

    new_atoms = tuple(
        Atom(a.relation, tuple(subst(t) for t in a.terms))
        for a in disjunct.atoms
    )
    # A safe CQ needs head vars in the body; if an equality-only variable
    # survived into the head (e.g. query "x = y" with no atoms), reject.
    body_vars = {
        t.name for a in new_atoms for t in a.terms if isinstance(t, Var)
    }
    for h in new_head:
        if h not in body_vars:
            raise UnsupportedFragmentError(
                f"head variable {h!r} unsupported: equality-only queries "
                "have no canonical structure"
            )
    return ConjunctiveQuery(vocabulary, tuple(new_head), new_atoms)


def boolean_cq(vocabulary: Vocabulary, body: Sequence[Atom]) -> ConjunctiveQuery:
    """Convenience constructor for a Boolean CQ."""
    return ConjunctiveQuery(vocabulary, (), tuple(body))
