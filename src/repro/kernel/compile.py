"""Target compilation: dense-integer interning + support bitmasks.

A :class:`CompiledTarget` is the solver-ready form of one target
structure.  Elements are interned to ``0..n-1`` so a *set of target
elements* is a Python int bitmask (``&``/``|``/``bit_count()`` replace
``Set[Element]`` operations); each relation's tuples are interned to an
array so a *set of target tuples* is a bitmask too, and per-position
support tables map an element index to the bitmask of tuples carrying
it at that position.

Compilation is pure target-side work — it never looks at a source — so
one compiled target serves every query against that target, and
:class:`CompiledTargetCache` keeps it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine.cache import MISS, VerifiedLRU
from ..structures.structure import Element, Structure
from ..structures.twins import twin_classes

#: Compiled targets retained by a default cache.
DEFAULT_COMPILED_CACHE_SIZE = 256


class CompiledRelation:
    """One relation of the target in interned, bitmask-indexed form.

    Attributes
    ----------
    name, arity:
        The relation symbol.
    tuples:
        The interned tuples (element indexes), in deterministic order;
        tuple ``i`` corresponds to bit ``i`` of a tuple mask.
    all_mask:
        The bitmask with one bit per tuple (all set).
    support:
        ``support[pos][v]`` is the bitmask of tuples whose position
        ``pos`` holds element index ``v`` (absent keys mean no tuple).
    """

    __slots__ = ("name", "arity", "tuples", "all_mask", "support",
                 "_group_support", "_group_values")

    def __init__(
        self, name: str, arity: int, tuples: List[Tuple[int, ...]]
    ) -> None:
        self.name = name
        self.arity = arity
        self.tuples = tuples
        self.all_mask = (1 << len(tuples)) - 1
        self.support: List[Dict[int, int]] = [{} for _ in range(arity)]
        for t_idx, tup in enumerate(tuples):
            bit = 1 << t_idx
            for pos, v in enumerate(tup):
                table = self.support[pos]
                table[v] = table.get(v, 0) | bit
        self._group_support: Dict[Tuple[int, ...], Dict[int, int]] = {}
        self._group_values: Dict[Tuple[int, ...], int] = {}

    def group_support(self, positions: Tuple[int, ...]) -> Dict[int, int]:
        """``{v: tuple mask}`` for tuples holding ``v`` at *every* position
        of ``positions`` (the support of a variable occurring there).

        Memoized per position group: a source fact ``E(x, x)`` needs the
        diagonal support ``(0, 1)``, plain facts the singleton groups.
        """
        cached = self._group_support.get(positions)
        if cached is not None:
            return cached
        out: Dict[int, int] = {}
        first = self.support[positions[0]]
        rest = positions[1:]
        for v, mask in first.items():
            for pos in rest:
                other = self.support[pos].get(v)
                if other is None:
                    mask = 0
                    break
                mask &= other
                if not mask:
                    break
            if mask:
                out[v] = mask
        self._group_support[positions] = out
        return out

    def group_values(self, positions: Tuple[int, ...]) -> int:
        """Element-index bitmask of values with nonempty group support
        (the unary pre-filter for a variable occurring at ``positions``)."""
        cached = self._group_values.get(positions)
        if cached is not None:
            return cached
        mask = 0
        for v in self.group_support(positions):
            mask |= 1 << v
        self._group_values[positions] = mask
        return mask


class CompiledTarget:
    """A target structure interned for the bitset solver.

    Attributes
    ----------
    structure:
        The original structure (kept for equality verification and for
        mapping solver output back to real elements).
    elements:
        Universe in ``repr`` order; element index ``i`` is
        ``elements[i]``.  The ordering matters: the solver iterates
        domain values by ascending bit index, and the reference solver
        iterates them sorted by ``repr`` — interning in ``repr`` order
        makes the two value orders (hence the two search trees)
        coincide.
    index_of:
        The inverse mapping, element → index.
    full_mask:
        Bitmask with one bit per universe element (all set).
    relations:
        ``{name: CompiledRelation}`` for every relation symbol.
    """

    __slots__ = ("structure", "elements", "index_of", "full_mask",
                 "relations", "_twin_masks")

    def __init__(self, target: Structure) -> None:
        self.structure = target
        self.elements: Tuple[Element, ...] = tuple(
            sorted(target.universe, key=repr)
        )
        self.index_of: Dict[Element, int] = {
            e: i for i, e in enumerate(self.elements)
        }
        self.full_mask = (1 << len(self.elements)) - 1
        self.relations: Dict[str, CompiledRelation] = {}
        index_of = self.index_of
        for name in target.vocabulary.relation_names:
            raw = sorted(target.relation(name), key=repr)
            interned = [tuple(index_of[x] for x in tup) for tup in raw]
            self.relations[name] = CompiledRelation(
                name, target.vocabulary.arity(name), interned
            )
        self._twin_masks: Optional[List[int]] = None

    @property
    def twin_masks(self) -> List[int]:
        """``twin_masks[i]`` is the element-index bitmask of element
        ``i``'s twin class (see :mod:`repro.structures.twins`).

        Computed on first use: the solver asks only once a subtree has
        failed, so searches that never backtrack never pay for it.
        """
        if self._twin_masks is None:
            masks = [0] * len(self.elements)
            for group in twin_classes(self.structure):
                mask = 0
                for e in group:
                    mask |= 1 << self.index_of[e]
                for e in group:
                    masks[self.index_of[e]] = mask
            self._twin_masks = masks
        return self._twin_masks

    def size(self) -> int:
        """The number of universe elements."""
        return len(self.elements)


class CompiledTargetCache(VerifiedLRU):
    """Compiled targets keyed by the target's fingerprint, under the
    caching rule of :mod:`repro.engine.cache`.  The ``evict``
    chaos fault clears it the same way it clears the memo cache.
    """

    def __init__(self, capacity: int = DEFAULT_COMPILED_CACHE_SIZE) -> None:
        super().__init__(capacity)

    def get(self, target: Structure, stats=None) -> CompiledTarget:
        """The compiled form of ``target``, compiling on a miss.

        ``stats`` is an optional counter record with integer
        ``kernel_compile_hits`` / ``kernel_compilations`` attributes
        (e.g. :class:`repro.engine.instrumentation.SolverStats`).
        """
        key, witnesses = target.fingerprint(), (target,)
        compiled = super().get(key, witnesses)
        if compiled is MISS:
            compiled = CompiledTarget(target)
            self.put(key, witnesses, compiled)
            if stats is not None:
                stats.kernel_compilations += 1
        elif stats is not None:
            stats.kernel_compile_hits += 1
        return compiled

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable counters."""
        return {
            "capacity": self.maxsize,
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
        }
