"""Cores of finite structures (Sections 1, 6.2 of the paper).

A substructure ``B`` of ``A`` is a *core of* ``A`` when there is a
homomorphism ``A → B`` but none to any proper substructure of ``B``.
Every finite structure has a core, unique up to isomorphism, and ``A`` is
homomorphically equivalent to ``core(A)``.

The computation iterates proper retractions: as long as some element can
be avoided by an endomorphism, replace the structure by that
endomorphism's image.  A bijective endomorphism of a finite structure is
an automorphism, so when no element can be avoided no proper substructure
admits a homomorphism either — the remaining structure is the core.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..exceptions import InvariantViolationError
from ..resources.governor import current_context
from ..structures.operations import homomorphic_image
from ..structures.structure import Element, Structure
from .search import find_homomorphism, is_homomorphism


def _shrunk(image: Structure, current: Structure) -> Structure:
    """Assert the retraction step strictly shrank the structure.

    A proper retraction avoids at least one element, so its image must
    be strictly smaller; anything else means the retraction search (or
    the image construction) is buggy and the iteration would never
    terminate.  Surfacing that as a typed error turns a silent infinite
    loop into a diagnosable failure.
    """
    if image.size() >= current.size():
        raise InvariantViolationError(
            f"core retraction failed to shrink the structure "
            f"({current.size()} -> {image.size()} elements); "
            "a proper retraction must avoid at least one element"
        )
    return image


def find_proper_retraction(
    structure: Structure, engine=None
) -> Optional[Dict[Element, Element]]:
    """An endomorphism avoiding at least one element, or ``None``.

    Constant-named elements can never be avoided (homomorphisms fix
    constants), so they are skipped.  The avoidance searches all target
    the same structure, so they run through one engine batch (the
    target is compiled once for the whole scan) while keeping full
    memoization and the early exit on the first retraction found.
    """
    if engine is None:
        from ..engine import get_engine

        engine = get_engine()
    protected = set(structure.constants.values())
    batch = engine.batch(structure)
    for element in structure.universe:
        if element in protected:
            continue
        endo = batch.find(
            structure, forbidden_images=frozenset([element])
        )
        if endo is not None:
            return endo
    return None


def _retract_to_core(
    structure: Structure, engine=None
) -> Tuple[Structure, Dict[Element, Element]]:
    """The iterated-retraction loop: the core of ``structure`` and a
    homomorphism from ``structure`` onto it.

    Every retraction search runs through ``engine`` (default: the
    global one), which counts each step in ``core_iterations``; each
    step checkpoints ``cores.retract``.
    """
    if engine is None:
        from ..engine import get_engine

        engine = get_engine()
    context = current_context()
    current = structure
    total: Dict[Element, Element] = {e: e for e in structure.universe}
    while True:
        context.checkpoint("cores.retract")
        retraction = find_proper_retraction(current, engine=engine)
        if retraction is None:
            return current, total
        engine.stats.core_iterations += 1
        current = _shrunk(homomorphic_image(current, retraction), current)
        total = {e: retraction[v] for e, v in total.items()}


def core_by_retractions(structure: Structure, engine=None) -> Structure:
    """The raw iterated-retraction core algorithm (no top-level memo).

    :func:`compute_core` wraps this through the engine's core cache;
    the engine itself calls back into this function on a cache miss.
    """
    return _retract_to_core(structure, engine)[0]


def compute_core(structure: Structure) -> Structure:
    """The core of ``structure`` (a substructure of it).

    Iterates proper retractions to a fixpoint.  The result is a
    substructure of the input and homomorphically equivalent to it.
    Memoized on the structure's fingerprint by the global engine.
    """
    from ..engine import get_engine

    return get_engine().core(structure)


def compute_core_with_map(
    structure: Structure,
) -> Tuple[Structure, Dict[Element, Element]]:
    """The core together with a homomorphism from the input onto it
    (computed through the global engine, unmemoized)."""
    return _retract_to_core(structure)


def have_same_core(a: Structure, b: Structure) -> bool:
    """Whether two structures have isomorphic cores.

    Equivalent to homomorphic equivalence of ``a`` and ``b``; checked via
    mutual homomorphisms (cheaper than isomorphism of cores).
    """
    return (
        find_homomorphism(a, b) is not None
        and find_homomorphism(b, a) is not None
    )


def is_core(structure: Structure) -> bool:
    """Whether ``structure`` is its own core (no proper retraction)."""
    return find_proper_retraction(structure) is None


def core_certificate(structure: Structure) -> Tuple[Structure, Dict, bool]:
    """The core, the retraction onto it, and a verified flag.

    The flag confirms (a) the core is a substructure, (b) the map is a
    homomorphism onto the core, and (c) the core admits no further proper
    retraction — an end-to-end independent check of the computation.
    """
    core, mapping = compute_core_with_map(structure)
    ok = (
        core.is_substructure_of(structure)
        and is_homomorphism(structure, core, mapping)
        and set(mapping.values()) == set(core.universe)
        and is_core(core)
    )
    return core, mapping, ok
