"""Isomorphism of finite structures.

An isomorphism is a bijective homomorphism whose inverse is also a
homomorphism.  Implemented on top of the injective homomorphism search
with fact-count pre-checks and an explicit inverse verification, so the
result is exact.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..structures.structure import Element, Structure
from .search import is_homomorphism

Isomorphism = Dict[Element, Element]


def find_isomorphism(a: Structure, b: Structure) -> Optional[Isomorphism]:
    """An isomorphism from ``a`` to ``b``, or ``None``.

    Searches over injective homomorphisms ``a → b`` (equal sizes and equal
    per-relation fact counts are necessary), keeping the first whose
    inverse is a homomorphism too.
    """
    if a.vocabulary != b.vocabulary or a.size() != b.size():
        return None
    for name in a.vocabulary.relation_names:
        if len(a.relation(name)) != len(b.relation(name)):
            return None
    from ..engine import get_engine

    search = get_engine().search(a, b, injective=True)
    for candidate in search.solutions():
        inverse = {v: k for k, v in candidate.items()}
        if is_homomorphism(b, a, inverse):
            return candidate
    return None


def are_isomorphic(a: Structure, b: Structure) -> bool:
    """Whether two structures are isomorphic."""
    return find_isomorphism(a, b) is not None


def is_automorphism(structure: Structure, mapping: Dict[Element, Element]) -> bool:
    """Whether ``mapping`` is an automorphism of ``structure``."""
    if set(mapping) != set(structure.universe):
        return False
    if set(mapping.values()) != set(structure.universe):
        return False
    if not is_homomorphism(structure, structure, mapping):
        return False
    inverse = {v: k for k, v in mapping.items()}
    return is_homomorphism(structure, structure, inverse)


def dedup_up_to_isomorphism(structures) -> list:
    """Keep one representative per isomorphism class (pairwise checks)."""
    representatives: list = []
    for s in structures:
        if not any(are_isomorphic(s, r) for r in representatives):
            representatives.append(s)
    return representatives
