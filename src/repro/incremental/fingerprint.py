"""Edit fingerprints: a from-scratch WL fingerprint, computed once.

An edited structure is fingerprinted like any other, by
:func:`repro.engine.fingerprint.structure_fingerprint` through
:meth:`~repro.structures.structure.Structure.fingerprint`, and only
when a cache key or an invalidation asks for it (see
:class:`repro.incremental.delta.EditRecord`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..structures.structure import Structure


def fingerprint_with_history(structure: "Structure") -> str:
    """``structure.fingerprint()``.  Kept as a name because the layered
    benchmark traces fingerprints through it."""
    return structure.fingerprint()
