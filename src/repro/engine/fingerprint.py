"""Canonical structure fingerprints (order- and label-invariant).

The memo cache of the hom engine keys entries by ``(fingerprint(A),
fingerprint(B))``.  The fingerprint is computed by color refinement
(1-dimensional Weisfeiler–Leman adapted to relational structures): it
never looks at element *identities*, only at how elements sit inside
facts and constants, so

* permuting the universe (an isomorphism) leaves the fingerprint
  unchanged, and
* any change to the vocabulary, the fact set, or the constant
  interpretations changes the refined color multisets and — except for
  deliberately adversarial WL-indistinguishable pairs and hash
  collisions — the digest.

Colors are ints: each one is Python's ``hash()`` of a tuple of ints.
Relation and constant names enter through :func:`name_code`, an int
computed from the name's UTF-8 bytes, and no ``str``, ``bytes`` or
``None`` is ever hashed (CPython salts the first two per process and,
before 3.12, hashes ``None`` by address).  ``hash()`` of ints and of
tuples of ints is fixed by CPython's algorithm, so a structure gets the
same fingerprint in every process of the same interpreter version,
whatever its ``PYTHONHASHSEED``.

The digest is one 64-bit tuple hash written as 32 hex characters
(zero-padded, the key shape the cache's fingerprint index looks for).
Its strength is 64 bits, and WL is not a complete isomorphism test, so
distinct structures *can* share a fingerprint.  The cache therefore
never trusts the fingerprint alone: buckets are verified by structure
equality before a hit is returned.  The fingerprint is purely an index,
so a collision costs a cache miss, never a wrong answer.

The digest is cached on the :class:`~repro.structures.structure.Structure`
instance (structures are immutable; mutating operations such as
``with_fact`` build fresh instances whose slot starts out empty, which
is what invalidates the cached value).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, Hashable, Iterator, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..structures.structure import Structure

#: Hex length of a fingerprint: a 64-bit hash zero-padded to 32
#: characters.  The cache's fingerprint index recognizes key
#: components by this length.
HEX_LEN = 32

_MASK64 = (1 << 64) - 1

#: Per element, ``(role, fact tuple)`` for every fact it occurs in.
Incidence = Dict[Hashable, List[Tuple[int, tuple]]]


def name_code(name: str) -> int:
    """A process-independent int for a relation or constant name.

    The UTF-8 bytes behind a leading ``0x01`` read as one integer (so
    distinct names give distinct integers), reduced by ``hash()`` of an
    int — modulo ``2**61 - 1`` on 64-bit builds, and not salted.
    """
    return hash(int.from_bytes(b"\x01" + name.encode("utf-8"), "big"))


def fact_roles(code: int, tup: tuple) -> List[Tuple[Hashable, int]]:
    """``(element, role)`` for each distinct element of the fact ``tup``
    of the relation coded ``code``; the role hashes the relation code
    with the positions the element fills."""
    positions: Dict[Hashable, List[int]] = {}
    for i, e in enumerate(tup):
        positions.setdefault(e, []).append(i)
    return [(e, hash((code, *p))) for e, p in positions.items()]


def incidence(structure: "Structure") -> Incidence:
    """Every element's incident facts with its role in each, built in
    one pass over the relations (facts without a repeated element, the
    common case, skip :func:`fact_roles`)."""
    incident: Incidence = {e: [] for e in structure.universe}
    for name, arity in structure.vocabulary.relations.items():
        code = name_code(name)
        roles = [hash((code, i)) for i in range(arity)]
        for tup in structure.relation(name):
            if len(set(tup)) == arity:
                for e, role in zip(tup, roles):
                    incident[e].append((role, tup))
            else:
                for e, role in fact_roles(code, tup):
                    incident[e].append((role, tup))
    return incident


def constant_codes(structure: "Structure") -> Dict[Hashable, Tuple[int, ...]]:
    """Per named element, the sorted codes of the constants naming it."""
    names: Dict[Hashable, List[int]] = {}
    for cname, value in structure.constants.items():
        names.setdefault(value, []).append(name_code(cname))
    return {e: tuple(sorted(codes)) for e, codes in names.items()}


def seed_color(
    element: Hashable,
    incident: Incidence,
    constants: Dict[Hashable, Tuple[int, ...]],
) -> int:
    """The round-0 color: the constants naming ``element`` and the
    multiset of its roles (its incidence pattern) — label-free data."""
    return hash((
        constants.get(element, ()),
        tuple(sorted([role for role, _ in incident[element]])),
    ))


def refine_color(
    element: Hashable, colors: Dict[Hashable, int], incident: Incidence
) -> int:
    """One WL round for one element: its color together with the
    multiset of (role, colors of the fact) over its incident facts."""
    get = colors.__getitem__
    signatures = [
        hash((role, *map(get, tup))) for role, tup in incident[element]
    ]
    signatures.sort()
    return hash((colors[element], *signatures))


def refinement_rounds(structure: "Structure") -> Iterator[Dict[Hashable, int]]:
    """The color-refinement run, one coloring per round.

    The first coloring is the seed, the ``k``-th after it the coloring
    after ``k`` refinement rounds, and the last one the stable coloring
    the fingerprint hashes.  Refinement stops when the number of color
    classes stops growing (at most ``|A|`` rounds).  A consumer that
    keeps only the latest coloring holds two rounds at a time.
    """
    universe = structure.universe
    incident = incidence(structure)
    constants = constant_codes(structure)
    colors = {e: seed_color(e, incident, constants) for e in universe}
    yield colors
    num_classes = len(set(colors.values()))
    for _ in range(len(universe)):
        colors = {e: refine_color(e, colors, incident) for e in universe}
        yield colors
        refined_classes = len(set(colors.values()))
        if refined_classes == num_classes:
            break
        num_classes = refined_classes


def fingerprint_from_colors(
    structure: "Structure", colors: Dict[Hashable, int]
) -> str:
    """The digest of a stable coloring of ``structure`` (the last one
    :func:`refinement_rounds` yields): one hash of the vocabulary, the
    size and the sorted color multisets of elements, facts and
    constants, as 32 hex characters."""
    relations = structure.vocabulary.relations
    get = colors.__getitem__
    fact_colors: List[int] = []
    for name in relations:
        code = name_code(name)
        fact_colors.extend([
            hash((code, *map(get, tup))) for tup in structure.relation(name)
        ])
    fact_colors.sort()
    payload = (
        tuple(sorted([(name_code(n), a) for n, a in relations.items()])),
        tuple(sorted([name_code(c) for c in structure.vocabulary.constants])),
        structure.size(),
        tuple(sorted(colors.values())),
        tuple(fact_colors),
        tuple(sorted([
            hash((name_code(c), colors[v]))
            for c, v in structure.constants.items()
        ])),
    )
    return f"{hash(payload) & _MASK64:0{HEX_LEN}x}"


def structure_fingerprint(structure: "Structure") -> str:
    """The canonical fingerprint of ``structure`` (32 hex characters).

    Runs color refinement to a stable partition (at most ``|A|`` rounds)
    and hashes the vocabulary together with the final color multisets
    of elements, facts and constants.
    """
    (stable,) = deque(refinement_rounds(structure), maxlen=1)
    return fingerprint_from_colors(structure, stable)
