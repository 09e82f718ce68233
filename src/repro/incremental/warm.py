"""Warm-start re-decision over mutating structures.

A hom/containment/core decision that was just made is almost always
still decided after a small edit — the expensive part of an edit stream
is *re-searching from scratch* when a cheap certificate check would do.
The sessions here keep the previous decision's certificate alive across
edits and re-decide in three tiers:

1. **Witness revalidation** (TRUE verdicts): a stored witness mapping is
   checked against the edited structures in ``O(facts)`` by
   :func:`~repro.homomorphism.search.is_homomorphism`; if it still
   maps, the verdict stands with the same witness and no search runs.
2. **Monotonicity** (FALSE verdicts): adding source structure
   (:meth:`~repro.incremental.delta.Delta.hardens`) or removing target
   structure (:meth:`~repro.incremental.delta.Delta.loosens`) can only
   *shrink* the set of homomorphisms, so FALSE survives such edits with
   no check at all.
3. **Fallback**: anything else — a broken witness, a loosening edit
   under FALSE, a previous UNKNOWN — re-runs the full governed search,
   batched through the engine's kernel-v2 session for the current
   target so repeated fallbacks against one target compile it once.

Every re-decision first hands the edit's
:class:`~repro.incremental.delta.EditRecord` to
:meth:`~repro.engine.engine.HomEngine.invalidate_edit`, which evicts
nothing: the engine memo's entries for the pre-edit structure stay
valid, so an edit that is undone later finds its answers there.
UNKNOWN verdicts are never warm-started: a governor trip proves nothing
about the edited instance.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..engine.instrumentation import INCREMENTAL
from ..homomorphism.search import is_homomorphism
from ..structures.structure import Element, Structure
from .delta import Delta, EditRecord, apply_delta


class IncrementalHomSession:
    """Re-decidable homomorphism query ``source → target`` under edits.

    :meth:`decide` produces the usual governed trivalent
    :class:`~repro.resources.Verdict`; :meth:`edit_source` /
    :meth:`edit_target` apply a :class:`~repro.incremental.delta.Delta`
    to one side (immutably — the session swaps in the edited structure)
    and re-decide warm.  The session's verdicts always agree with a
    from-scratch :meth:`~repro.engine.engine.HomEngine.decide_homomorphism`
    on the current structures; warm starts only skip work whose outcome
    is forced by a certificate or by monotonicity.
    """

    def __init__(
        self,
        source: Structure,
        target: Structure,
        engine=None,
    ) -> None:
        if engine is None:
            from ..engine import get_engine

            engine = get_engine()
        self.engine = engine
        self.source = source
        self.target = target
        self.last_verdict = None
        self.last_record: Optional[EditRecord] = None
        self._batch = None
        self._batch_target: Optional[Structure] = None

    # ------------------------------------------------------------------
    def decide(self):
        """The governed verdict for the current pair (full search path,
        batched per target; memoized by the engine as usual)."""
        self.last_verdict = self._decide_full()
        return self.last_verdict

    def edit_source(self, delta: Delta):
        """Apply ``delta`` to the source and re-decide warm."""
        edited, record = apply_delta(self.source, delta)
        self.engine.invalidate_edit(record)
        self.source = edited
        self.last_record = record
        return self._redecide(record, edited_side="source")

    def edit_target(self, delta: Delta):
        """Apply ``delta`` to the target and re-decide warm."""
        edited, record = apply_delta(self.target, delta)
        self.engine.invalidate_edit(record)
        self.target = edited
        self.last_record = record
        return self._redecide(record, edited_side="target")

    # ------------------------------------------------------------------
    def _redecide(self, record: EditRecord, edited_side: str):
        previous = self.last_verdict
        if previous is None:
            return self.decide()
        warm = self._warm_verdict(previous, record, edited_side)
        if warm is not None:
            INCREMENTAL.warm_hits += 1
            self.last_verdict = warm
            return warm
        INCREMENTAL.warm_fallbacks += 1
        return self.decide()

    def _warm_verdict(self, previous, record: EditRecord, edited_side: str):
        """The forced verdict, or ``None`` when a search is needed."""
        from ..resources.governor import current_context
        from ..resources.verdict import Verdict

        if previous.is_true:
            witness = previous.witness
            if witness is not None and is_homomorphism(
                self.source, self.target, witness
            ):
                # Restricted to the edited universe: a removed source
                # element keeps no image.
                universe = self.source.universe_set
                return Verdict.true(
                    reason="warm start: previous witness survives the edit",
                    witness={
                        x: y for x, y in witness.items() if x in universe
                    },
                    consumed=current_context().consumption(),
                )
            return None
        if previous.is_false:
            delta = record.delta
            shrinking = (
                delta.hardens() if edited_side == "source" else delta.loosens()
            )
            if shrinking:
                return Verdict.false(
                    reason=(
                        "warm start: edit only shrinks the homomorphism "
                        "set, FALSE is preserved"
                    ),
                    consumed=current_context().consumption(),
                )
            return None
        return None  # UNKNOWN proves nothing about the edited instance

    def _decide_full(self):
        if self._batch is None or self._batch_target is not self.target:
            self._batch = self.engine.batch(self.target)
            self._batch_target = self.target
        return self._batch.decide(self.source)


class IncrementalCoreSession:
    """Re-computable core of one structure under edits.

    The session keeps the last core ``C`` together with a retraction
    witness ``h : S → C``.  After an edit ``S → S'`` it first checks the
    certificate against the edited structure: when ``C`` is still a
    substructure of ``S'`` and ``h`` still a homomorphism, ``S'`` and
    ``C`` are homomorphically equivalent, and since ``C`` is a core
    (fixpoint of retraction) it *is* the core of ``S'`` — no retraction
    scan runs.  Otherwise the full iterated-retraction computation runs
    through the session's engine.
    """

    def __init__(self, structure: Structure, engine=None) -> None:
        if engine is None:
            from ..engine import get_engine

            engine = get_engine()
        self.engine = engine
        self.structure = structure
        self.last_record: Optional[EditRecord] = None
        self._core: Optional[Structure] = None
        self._map: Optional[Dict[Element, Element]] = None

    def core(self) -> Structure:
        """The core of the current structure (computing it if needed)."""
        if self._core is None:
            self._core, self._map = self._core_with_map(self.structure)
        return self._core

    def edit(self, delta: Delta) -> Structure:
        """Apply ``delta`` and return the (possibly warm) new core."""
        edited, record = apply_delta(self.structure, delta)
        self.engine.invalidate_edit(record)
        self.structure = edited
        self.last_record = record
        if (
            self._core is not None
            and self._map is not None
            and self._core.is_substructure_of(edited)
            and is_homomorphism(edited, self._core, self._map)
        ):
            INCREMENTAL.warm_hits += 1
            return self._core
        if self._core is not None:
            INCREMENTAL.warm_fallbacks += 1
        self._core, self._map = self._core_with_map(edited)
        return self._core

    def _core_with_map(
        self, structure: Structure
    ) -> Tuple[Structure, Dict[Element, Element]]:
        from ..homomorphism.cores import _retract_to_core

        return _retract_to_core(structure, self.engine)


def incremental_containment_session(q1, q2, engine=None) -> IncrementalHomSession:
    """A warm-start session for the CQ containment ``q1 ⊆ q2``.

    Chandra–Merlin reduces the containment to a homomorphism
    ``canonical(q2) → canonical(q1)`` with head constants pinned, so the
    session is an :class:`IncrementalHomSession` over the two frozen
    canonical structures: edits to ``q1``'s canonical structure are
    *target* edits, edits to ``q2``'s are *source* edits, and the
    session's verdicts are exactly
    :func:`~repro.cq.containment.containment_verdict` on the edited
    canonical instances.
    """
    from ..cq.containment import _head_pinned_structures
    from ..exceptions import ValidationError

    source, target = _head_pinned_structures(q1, q2)
    if source.vocabulary.relations != target.vocabulary.relations:
        raise ValidationError("queries must share a vocabulary")
    return IncrementalHomSession(source, target, engine=engine)
