"""Delta-maintained WL fingerprints (the incremental engine's hash layer).

:func:`repro.engine.fingerprint.structure_fingerprint` runs color
refinement from scratch on every structure — ``O(rounds · facts)`` work
that the memo cache pays on every key computation.  For an *edit
stream* (add one fact, re-decide, add another …) almost all of that
work is redundant: a single-fact edit can only change the colors of
elements within its refinement radius, one adjacency hop per round.

This module exploits that locality.  Structures that flow through the
edit API (:func:`repro.incremental.delta.apply_delta`) retain their
full per-round color history (``Structure._wl_history``); the next edit
then

1. seeds a **dirty set** with the touched elements (everything in an
   added/removed fact, plus added/removed elements),
2. replays refinement round by round, re-hashing *only* the dirty
   frontier and copying every clean element's round-``k`` color out of
   the retained history, expanding the frontier by one adjacency hop
   per round, and
3. colors every element with the *same* per-element helpers
   (:func:`~repro.engine.fingerprint.seed_color`,
   :func:`~repro.engine.fingerprint.refine_color`) and digest as the
   from-scratch path, so the incremental fingerprint is bit-identical
   to :func:`structure_fingerprint` — the memo cache and
   compiled-target cache cannot tell the difference.

Exact fallback (a full recompute, never a wrong digest) happens when

* the old structure has no retained history (first edit in a chain),
* the dirty frontier exceeds :data:`FRONTIER_FRACTION` of the universe
  (the edit's refinement radius covers most of the structure, so
  incremental bookkeeping would cost more than it saves), or
* the replay needs more refinement rounds than the old run recorded
  (the edit deepened the refinement, so there are no old colors to
  reuse for the extra rounds).

Correctness of reuse: an element's round-``k`` color is a hash of its
round-``k−1`` color and its incident facts' mates' round-``k−1``
colors.  A *clean* element (never reached by the frontier) has
identical incident facts in the old and new structures and only clean
mates, so by induction its color is unchanged and may be read from the
old history.  Dirtiness starts at the touched elements and propagates
along new-structure adjacency; elements that lost a fact are touched
directly, so removed-fact adjacency needs no separate pass.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Set, Tuple

from ..engine.fingerprint import (
    constant_codes,
    fact_roles,
    fingerprint_from_colors,
    incidence,
    name_code,
    refine_color,
    refinement_history,
    seed_color,
)
from ..engine.instrumentation import INCREMENTAL

if TYPE_CHECKING:  # pragma: no cover
    from ..structures.structure import Structure

#: Fallback threshold: when the dirty frontier grows past this fraction
#: of the universe, the edit's refinement radius covers most of the
#: structure and a from-scratch recompute is cheaper than the merge
#: bookkeeping.
FRONTIER_FRACTION = 0.5


def fingerprint_with_history(structure: "Structure") -> str:
    """``structure.fingerprint()``, retaining the per-round history.

    The plain :meth:`~repro.structures.structure.Structure.fingerprint`
    discards the intermediate colorings; the incremental path needs
    them, so edits route fingerprint computation through here.  Idempotent:
    a structure that already carries its history returns the cached
    digest immediately.
    """
    if structure._fingerprint is not None and structure._wl_history is not None:
        return structure._fingerprint
    history = refinement_history(structure)
    structure._wl_history = history
    structure._fingerprint = fingerprint_from_colors(structure, history[-1])
    return structure._fingerprint


def _full_recompute(new: "Structure") -> Tuple[str, bool, int, int]:
    INCREMENTAL.fingerprint_full_recomputes += 1
    fp = fingerprint_with_history(new)
    new._wl_counters = [
        Counter(colors.values()) for colors in new._wl_history
    ]
    return fp, False, len(new.universe), len(new._wl_history) - 1


def _build_adjacency(structure: "Structure"):
    """Per-element incident facts (with roles) and adjacency sets."""
    incident = incidence(structure)
    neighbors = {
        e: {x for _, tup in facts for x in tup}
        for e, facts in incident.items()
    }
    return incident, neighbors


def _advance_adjacency(old_adjacency, new: "Structure", delta):
    """The edited structure's adjacency by copy-on-write from the old
    one: only the touched elements' entries are rebuilt, so the
    per-edit cost is ``O(universe)`` dict copies plus ``O(delta)``
    work instead of a full pass over the facts."""
    old_incident, old_neighbors = old_adjacency
    incident = dict(old_incident)
    neighbors = dict(old_neighbors)
    for e in delta.remove_elements:
        incident.pop(e, None)
        neighbors.pop(e, None)
    for e in delta.add_elements:
        incident[e] = []
        neighbors[e] = set()
    added: Dict[Hashable, List] = {}
    removed: Dict[Hashable, List] = {}
    for facts, entries in ((delta.add_facts, added),
                           (delta.remove_facts, removed)):
        for name, tup in facts:
            for e, role in fact_roles(name_code(name), tup):
                entries.setdefault(e, []).append((role, tup))
    for e in (added.keys() | removed.keys()) & new.universe_set:
        gone = set(removed.get(e, ()))
        facts = [fact for fact in incident.get(e, ()) if fact not in gone]
        facts += added.get(e, ())
        incident[e] = facts
        neighbors[e] = {x for _, tup in facts for x in tup}
    return incident, neighbors


def incremental_fingerprint(
    old: "Structure",
    new: "Structure",
    touched: Iterable[Hashable],
    delta=None,
) -> Tuple[str, bool, int, int]:
    """Fingerprint ``new`` by re-hashing only the refinement radius of
    an edit that turned ``old`` into ``new``.

    ``touched`` must cover every element whose incident facts, constant
    names or membership differ between the two structures (the edit
    API passes the elements of every added/removed fact plus every
    added/removed element).  Returns ``(fingerprint, incremental,
    dirty_elements, rounds)`` where ``incremental`` says whether the
    delta path was used (``False`` ⇒ exact from-scratch fallback) and
    ``dirty_elements`` is the final frontier size.  The digest is
    always bit-identical to :func:`structure_fingerprint`; the new
    structure's history slot is installed either way so the chain can
    continue.  Counters (:data:`~repro.engine.instrumentation.INCREMENTAL`)
    are updated on both paths.
    """
    old_history = old._wl_history
    n = len(new.universe)
    if old_history is None or n == 0:
        return _full_recompute(new)
    threshold = max(1, int(FRONTIER_FRACTION * n))
    dirty: Set[Hashable] = {e for e in touched if e in new.universe_set}
    if len(dirty) > threshold:
        return _full_recompute(new)
    removed = old.universe_set - new.universe_set
    if not (new.universe_set - old.universe_set) <= dirty:
        # A new element escaped the touched set; its color would be
        # silently missing from the merge.
        return _full_recompute(new)
    old_counters = old._wl_counters
    if old_counters is None:
        # History retained without counters (e.g. hand-installed): one
        # O(n · rounds) pass rebuilds them, amortized over the chain.
        old_counters = [Counter(colors.values()) for colors in old_history]
        old._wl_counters = old_counters

    # The per-element incident index and adjacency used by every round:
    # advanced copy-on-write from the old structure's retained index
    # when possible, built by a full pass over the facts otherwise.
    old_adjacency = old._wl_adjacency
    if old_adjacency is not None and delta is not None:
        incident, neighbors = _advance_adjacency(old_adjacency, new, delta)
    else:
        incident, neighbors = _build_adjacency(new)
    new._wl_adjacency = (incident, neighbors)
    constants = constant_codes(new)

    def merge_round(old_colors, old_counter, recolor):
        """Clean elements keep their old round-``k`` color (C-level
        dict copy); only the dirty frontier is re-hashed, and the class
        count is maintained by adjusting the old round's multiplicity
        counter in O(dirty) instead of rescanning every element."""
        colors = dict(old_colors)
        counter = Counter(old_counter)
        for e in removed:
            color = colors.pop(e)
            if counter[color] == 1:
                del counter[color]
            else:
                counter[color] -= 1
        for e in dirty:
            previous = colors.get(e)
            if previous is not None:
                if counter[previous] == 1:
                    del counter[previous]
                else:
                    counter[previous] -= 1
            color = recolor(e)
            colors[e] = color
            counter[color] += 1
        return colors, counter

    # Round 0: clean elements keep their old seed, dirty ones reseed.
    merged, counter = merge_round(
        old_history[0],
        old_counters[0],
        lambda e: seed_color(e, incident, constants),
    )
    history = [merged]
    counters = [counter]
    num_classes = len(counter)

    # Replay refinement with the exact stopping rule of
    # refinement_history: refine until the class count stops growing,
    # at most n rounds.
    for k in range(1, n + 1):
        frontier = set(dirty)
        for d in dirty:
            frontier |= neighbors.get(d, ())
        dirty = frontier
        if len(dirty) > threshold:
            return _full_recompute(new)
        if k >= len(old_history):
            # The edit deepened refinement past the old run; no old
            # colors exist for the extra rounds.
            return _full_recompute(new)
        prev = merged
        merged, counter = merge_round(
            old_history[k],
            old_counters[k],
            lambda e: refine_color(e, prev, incident),
        )
        history.append(merged)
        counters.append(counter)
        refined_classes = len(counter)
        if refined_classes == num_classes:
            break
        num_classes = refined_classes

    fp = fingerprint_from_colors(new, history[-1])
    new._wl_history = history
    new._wl_counters = counters
    new._fingerprint = fp
    INCREMENTAL.fingerprint_delta_hits += 1
    INCREMENTAL.fingerprint_dirty_elements += len(dirty)
    return fp, True, len(dirty), len(history) - 1
