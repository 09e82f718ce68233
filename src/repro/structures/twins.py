"""Twin classes: target values that a transposition leaves interchangeable.

Two elements ``a`` and ``b`` of a structure are *twins* when the
transposition ``(a b)`` is an automorphism.  Twinhood is an equivalence
relation (``(a c) = (a b)(b c)(a b)``), and the homomorphism solvers use
its classes to prune pigeonhole search: once one fresh value of a class
has failed at a search node, every other fresh value of the class fails
there too.

The partition is computed without comparing all pairs of elements.
Twins sit equally often at each position of each relation, so elements
are first bucketed by that placement; within a bucket:

* *Open* twins never occur together in a tuple.  They are exactly the
  elements with the same incident-tuple signature — the set of
  ``(relation, tuple with the element replaced by a placeholder)`` —
  so one dictionary bucketing finds every such class.
* *Closed* twins occur together in some tuple, like the vertices of a
  clique.  Twins of this kind share their closed neighbourhood (the
  elements they occur in tuples with, themselves included), so
  bucketing by it gathers each class, and a swap check of every member
  against the bucket's first element confirms it.

Interpretations of constant symbols are never swapped, so they stay
singletons.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, FrozenSet, Iterator, List, Tuple

from .structure import Element, Structure, Tup

#: Stands in for the element itself inside its incident-tuple signature.
_SELF = object()


def twin_classes(structure: Structure) -> List[FrozenSet[Element]]:
    """The partition of ``structure``'s universe into twin classes.

    Classes are listed in universe order of their first member; every
    element is in exactly one class (singletons included).
    """
    incident: Dict[Element, List[Tuple[str, Tup]]] = {
        e: [] for e in structure.universe
    }
    # How often each element sits at each (relation, position): a swap
    # invariant, so only elements with equal placements can be twins.
    placement: Dict[Element, Counter] = {
        e: Counter() for e in structure.universe
    }
    for name in structure.vocabulary.relation_names:
        for tup in structure.relation(name):
            for e in set(tup):
                incident[e].append((name, tup))
            for pos, x in enumerate(tup):
                placement[x][name, pos] += 1
    constants = set(structure.constants.values())

    by_placement: Dict[FrozenSet, List[Element]] = {}
    for e in structure.universe:
        if e not in constants:
            key = frozenset(placement[e].items())
            by_placement.setdefault(key, []).append(e)
    class_of: Dict[Element, FrozenSet[Element]] = {}
    for bucket in by_placement.values():
        if len(bucket) > 1:
            for group in _split(structure, incident, bucket):
                for e in group:
                    class_of[e] = group
    return list(dict.fromkeys(
        class_of.get(e, frozenset((e,))) for e in structure.universe
    ))


def _split(
    structure: Structure,
    incident: Dict[Element, List[Tuple[str, Tup]]],
    bucket: List[Element],
) -> Iterator[FrozenSet[Element]]:
    """The twin classes among ``bucket`` (elements of equal placement)."""
    open_buckets: Dict[FrozenSet, List[Element]] = {}
    for e in bucket:
        signature = frozenset([
            (name, tuple([_SELF if x == e else x for x in tup]))
            for name, tup in incident[e]
        ])
        open_buckets.setdefault(signature, []).append(e)
    closed_buckets: Dict[FrozenSet[Element], List[Element]] = {}
    for members in open_buckets.values():
        if len(members) > 1:
            yield frozenset(members)
            continue
        e = members[0]
        neighbourhood = frozenset(
            [x for _, tup in incident[e] for x in tup]
        ) | {e}
        closed_buckets.setdefault(neighbourhood, []).append(e)
    for members in closed_buckets.values():
        while members:
            first, rest = members[0], members[1:]
            group = frozenset([first] + [
                y for y in rest
                if _swap_is_automorphism(structure, incident, first, y)
            ])
            yield group
            members = [y for y in rest if y not in group]


def _swap_is_automorphism(
    structure: Structure,
    incident: Dict[Element, List[Tuple[str, Tup]]],
    a: Element,
    b: Element,
) -> bool:
    """Whether the transposition ``(a b)`` maps every tuple into its
    relation (only tuples touching ``a`` or ``b`` can move)."""
    for name, tup in chain(incident[a], incident[b]):
        swapped = tuple(b if x == a else a if x == b else x for x in tup)
        if swapped not in structure.relation(name):
            return False
    return True
