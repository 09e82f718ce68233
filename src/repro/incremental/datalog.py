"""Delta maintenance of Datalog fixpoints (DRed over semi-naive).

:class:`IncrementalFixpoint` keeps the least fixed point of a Datalog
program over one EDB structure alive across edits.  An applied
:class:`~repro.incremental.delta.Delta` is absorbed by the classical
delete–rederive (DRed) scheme [Gupta–Mumick–Subrahmanian 1993] layered
on the package's semi-naive machinery
(:func:`~repro.datalog.evaluation._rule_matches` with its
``required_delta`` restriction):

1. **Overdelete** — every IDB tuple with *some* derivation through a
   removed EDB fact is deleted, transitively: each round joins one
   body position against the deletion delta and the remaining
   positions against the *old* database, exactly the semi-naive join
   with the delta on the deleted side.
2. **Rederive** — overdeletion is an over-approximation; tuples with a
   surviving alternative derivation are put back.  Only rules whose
   head predicate actually lost tuples re-run, and the restore
   iterates to a fixpoint so rederived tuples can support further
   rederivations.
3. **Propagate additions** — added EDB facts seed one semi-naive pass
   (delta on the added side) whose new IDB tuples then propagate
   through the standard delta rounds.

The result is always *exactly* the from-scratch fixpoint on the edited
structure — the incremental-differential tier asserts this tuple-for-
tuple.  Every join runs under the ambient governor (the shared
``checkpoint`` calls inside ``_rule_matches``); a deadline/budget trip
mid-maintenance leaves the state **invalidated**, so the next access
recomputes from scratch rather than serving a half-maintained
fixpoint, and :meth:`IncrementalFixpoint.decide` wraps membership
queries as trivalent :class:`~repro.resources.Verdict`\\ s.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..datalog.evaluation import (
    Database,
    _rule_matches,
    evaluate_semi_naive,
)
from ..datalog.program import DatalogProgram
from ..engine.instrumentation import GOVERNOR, INCREMENTAL
from ..exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    OperationCancelledError,
)
from ..structures.structure import Structure, Tup
from .delta import Delta, EditRecord, apply_delta

_GOVERNOR_TRIPS = (
    DeadlineExceededError,
    BudgetExceededError,
    OperationCancelledError,
)


class IncrementalFixpoint:
    """The least fixed point of ``program`` on a mutating structure.

    ``relations`` (via :meth:`relation` / :meth:`contains`) always
    reflects the current structure; :meth:`apply` edits the structure
    and maintains the fixpoint by DRed instead of re-evaluating.
    """

    def __init__(
        self,
        program: DatalogProgram,
        structure: Structure,
        max_rounds: int = 10_000,
    ) -> None:
        self.program = program
        self.structure = structure
        self.max_rounds = max_rounds
        self.last_record: Optional[EditRecord] = None
        self._idb: Optional[Database] = None

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def _ensure(self) -> Database:
        if self._idb is None:
            result = evaluate_semi_naive(
                self.program, self.structure, self.max_rounds
            )
            self._idb = {
                p: set(tuples) for p, tuples in result.relations.items()
            }
        return self._idb

    def relation(self, predicate: str) -> Set[Tup]:
        """The current fixpoint of one IDB predicate (a copy)."""
        return set(self._ensure()[predicate])

    def contains(self, predicate: str, tup: Tup) -> bool:
        """Whether ``tup`` is in the current fixpoint of ``predicate``."""
        return tuple(tup) in self._ensure()[predicate]

    def decide(self, predicate: str, tup: Tup):
        """Trivalent membership: TRUE/FALSE, or UNKNOWN on a governor
        trip (deadline/budget/cancellation) mid-(re)computation.

        A trip leaves the incremental state invalidated, so the next
        query recomputes from scratch — a half-maintained fixpoint is
        never consulted.
        """
        from ..resources.governor import current_context
        from ..resources.verdict import Verdict

        ctx = current_context()
        try:
            member = self.contains(predicate, tup)
        except _GOVERNOR_TRIPS as err:
            self._idb = None
            GOVERNOR.unknown_verdicts += 1
            return Verdict.from_error(err)
        if member:
            return Verdict.true(
                reason="tuple is in the least fixed point",
                witness={"predicate": predicate, "tuple": tuple(tup)},
                consumed=ctx.consumption(),
            )
        return Verdict.false(
            reason="tuple is not in the least fixed point",
            consumed=ctx.consumption(),
        )

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
    def apply(self, delta: Delta) -> EditRecord:
        """Apply ``delta`` to the structure, maintaining the fixpoint.

        Returns the edit's :class:`~repro.incremental.delta.EditRecord`.
        On a governor trip mid-maintenance the state is invalidated and
        the trip re-raised (callers using :meth:`decide` afterwards get
        UNKNOWN-free answers from a fresh recompute).
        """
        old_structure = self.structure
        old_idb = self._idb
        edited, record = apply_delta(self.structure, delta)
        self.structure = edited
        self.last_record = record
        if old_idb is None:
            return record  # nothing to maintain; computed on next access
        try:
            self._maintain(old_structure, old_idb, delta)
            INCREMENTAL.dred_applies += 1
        except _GOVERNOR_TRIPS:
            self._idb = None
            INCREMENTAL.dred_full_recomputes += 1
            raise
        return record

    # ------------------------------------------------------------------
    # DRed
    # ------------------------------------------------------------------
    def _maintain(
        self, old_structure: Structure, idb: Database, delta: Delta
    ) -> None:
        program = self.program
        removed_edb: Database = {}
        for name, tup in delta.remove_facts:
            removed_edb.setdefault(name, set()).add(tup)
        added_edb: Database = {}
        for name, tup in delta.add_facts:
            added_edb.setdefault(name, set()).add(tup)

        # ---- 1. Overdelete (joins over the OLD database) -------------
        overdeleted: Dict[str, Set[Tup]] = {p: set() for p in idb}
        if removed_edb:
            wave: Database = dict(removed_edb)
            rounds = 0
            while any(wave.values()):
                rounds += 1
                if rounds > self.max_rounds:
                    raise _no_fixpoint(self.max_rounds)
                next_wave: Database = {}
                for rule in program.rules:
                    head = rule.head.relation
                    for i, atom in enumerate(rule.body):
                        if atom.relation not in wave:
                            continue
                        produced = _rule_matches(
                            rule, old_structure, idb, required_delta=(i, wave)
                        )
                        fresh = (produced & idb[head]) - overdeleted[head]
                        if fresh:
                            overdeleted[head] |= fresh
                            next_wave.setdefault(head, set()).update(fresh)
                wave = next_wave
        total_over = sum(len(t) for t in overdeleted.values())
        INCREMENTAL.dred_overdeleted += total_over
        for p, tuples in overdeleted.items():
            idb[p] -= tuples

        # ---- 2. Rederive (joins over the NEW database) ---------------
        remaining = {p: set(t) for p, t in overdeleted.items() if t}
        rederived = 0
        rounds = 0
        while any(remaining.values()):
            rounds += 1
            if rounds > self.max_rounds:
                raise _no_fixpoint(self.max_rounds)
            restored_any = False
            for rule in program.rules:
                head = rule.head.relation
                missing = remaining.get(head)
                if not missing:
                    continue
                produced = _rule_matches(rule, self.structure, idb)
                restored = produced & missing
                if restored:
                    idb[head] |= restored
                    missing -= restored
                    rederived += len(restored)
                    restored_any = True
            if not restored_any:
                break
        INCREMENTAL.dred_rederived += rederived

        # ---- 3. Propagate additions (semi-naive, delta on the adds) --
        idb_delta: Database = {p: set() for p in idb}
        if added_edb:
            for rule in program.rules:
                head = rule.head.relation
                for i, atom in enumerate(rule.body):
                    if atom.relation not in added_edb:
                        continue
                    produced = _rule_matches(
                        rule, self.structure, idb, required_delta=(i, added_edb)
                    )
                    idb_delta[head] |= produced - idb[head]
        for p in idb_delta:
            idb[p] |= idb_delta[p]
        rounds = 0
        while any(idb_delta.values()):
            rounds += 1
            if rounds > self.max_rounds:
                raise _no_fixpoint(self.max_rounds)
            new_delta: Database = {p: set() for p in idb}
            for rule in program.rules:
                head = rule.head.relation
                for i, atom in enumerate(rule.body):
                    if atom.relation not in program.idb_predicates:
                        continue
                    produced = _rule_matches(
                        rule, self.structure, idb, required_delta=(i, idb_delta)
                    )
                    new_delta[head] |= produced - idb[head]
            if not any(new_delta.values()):
                break
            for p in new_delta:
                idb[p] |= new_delta[p]
            idb_delta = new_delta

        self._idb = idb


def _no_fixpoint(max_rounds: int):
    from ..exceptions import ValidationError

    return ValidationError(
        f"no fixed point within {max_rounds} rounds (should be impossible "
        "on a finite structure; raise max_rounds)"
    )
