"""Homomorphism counting and Lovász vectors.

Counting homomorphisms refines deciding them: by Lovász's classical
theorem, two finite structures are isomorphic iff they admit the same
number of homomorphisms *from* every structure.  Truncated to test
structures of bounded size this gives the *Lovász vector* — an
isomorphism invariant strictly finer than homomorphic equivalence (which
only compares supports), and a useful oracle for the library's
isomorphism and core machinery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..structures.enumeration import enumerate_structures_up_to
from ..structures.structure import Structure
from ..structures.vocabulary import Vocabulary
from .search import count_homomorphisms


def lovasz_vector(
    structure: Structure, max_size: int, vocabulary: Optional[Vocabulary] = None
) -> Tuple[int, ...]:
    """``hom(F, A)`` for every ``F`` with at most ``max_size`` elements.

    Test structures are enumerated canonically (up to isomorphism, in a
    deterministic order), so vectors of different structures are
    comparable position-wise.  Doubly exponential in ``max_size`` — sizes
    2–3 with a binary relation are the practical envelope.
    """
    vocab = vocabulary or structure.vocabulary.without_constants()
    counts: List[int] = []
    for test in enumerate_structures_up_to(vocab, max_size):
        counts.append(count_homomorphisms(test, structure))
    return tuple(counts)


def lovasz_distinguishes(
    a: Structure, b: Structure, max_size: int
) -> bool:
    """Whether the truncated Lovász vectors of ``a`` and ``b`` differ.

    Vectors agreeing at every size (up to ``max(|A|, |B|)``) force
    isomorphism by Lovász's theorem; at a truncation they still certify
    *non*-isomorphism whenever they differ.
    """
    vocab = a.vocabulary.without_constants()
    return lovasz_vector(a, max_size, vocab) != lovasz_vector(b, max_size, vocab)


def lovasz_agrees_with_isomorphism(
    a: Structure, b: Structure
) -> bool:
    """Check Lovász's theorem on a concrete pair (full truncation).

    Compares vector equality at ``max(|A|, |B|)`` against the exact
    isomorphism test.  Expensive; intended for small structures in tests.
    """
    from .isomorphism import are_isomorphic

    size = max(a.size(), b.size())
    vocab = a.vocabulary.without_constants()
    same_vector = (
        lovasz_vector(a, size, vocab) == lovasz_vector(b, size, vocab)
    )
    return same_vector == are_isomorphic(a, b)


def surjective_hom_count(source: Structure, target: Structure) -> int:
    """The number of homomorphisms whose image covers the target universe."""
    from .search import iter_homomorphisms

    total = 0
    universe = set(target.universe)
    for hom in iter_homomorphisms(source, target):
        if set(hom.values()) == universe:
            total += 1
    return total


def endomorphism_count(structure: Structure) -> int:
    """``hom(A, A)``: the size of the endomorphism monoid.

    Equals the automorphism count exactly when ``A`` is a core
    (bijective endomorphisms of finite structures are automorphisms, and
    cores admit no non-injective endomorphism).
    """
    return count_homomorphisms(structure, structure)


def automorphism_count(structure: Structure) -> int:
    """The number of automorphisms (bijective endos with hom inverses)."""
    from ..engine import get_engine
    from .search import is_homomorphism

    total = 0
    for candidate in get_engine().search(
        structure, structure, injective=True
    ).solutions():
        inverse = {v: k for k, v in candidate.items()}
        if is_homomorphism(structure, structure, inverse):
            total += 1
    return total
