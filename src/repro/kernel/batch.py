"""Batched multi-query solving against one compiled target.

Containment checks, UCQ disjunct pruning and core-retraction loops all
share one workload shape: *many small sources, one target*.  Solving
them one :class:`~repro.kernel.solver.BitsetHomomorphismSolver` at a
time repays the target compilation (element interning + support
bitmasks) on every query even though it is pure target-side work.

A :class:`BatchSolveSession` hoists everything target-side out of the
per-query loop:

* the target is compiled exactly once per session (or fetched from a
  shared :class:`~repro.kernel.compile.CompiledTargetCache`), and its
  memoized ``group_support`` / ``group_values`` tables — populated by
  the first query that needs a position group — are warm for every
  later query;
* one :class:`~repro.kernel.solver.PropagationScratch` pair (worklist
  deque + membership set) is threaded through every solve, so the batch
  stops churning fresh containers per propagation pass;
* repeated ``(source, options)`` queries within the session are
  answered from a session memo of :data:`SESSION_MEMO_SIZE` keys (a
  :class:`~repro.engine.cache.VerifiedLRU`) instead of re-searching.

Sessions are single-threaded by design — the shared scratch buffers
make concurrent solves unsafe — and they preserve the governance
contract: each solve checkpoints under the ambient
:class:`~repro.resources.RunContext` exactly like a single solve, so a
deadline can interrupt a batch between (or inside) queries.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Union

from ..engine.cache import MISS, VerifiedLRU
from ..resources.governor import RunContext, current_context
from ..structures.structure import Element, Structure
from .compile import CompiledTarget, CompiledTargetCache
from .solver import BitsetHomomorphismSolver, Homomorphism, PropagationScratch

#: Distinct (source, options) queries a session's memo retains.
SESSION_MEMO_SIZE = 4096


class BatchSolveSession:
    """Shared-compilation solve session for many sources, one target.

    Parameters
    ----------
    target:
        The common target — a :class:`~repro.structures.Structure` or an
        already-compiled :class:`~repro.kernel.compile.CompiledTarget`.
    cache:
        Optional :class:`~repro.kernel.compile.CompiledTargetCache`; when
        given (and ``target`` is a plain structure), compilation goes
        through it so sessions share compiled targets with the engine
        and with each other.
    stats:
        Optional counter record (:class:`~repro.engine.instrumentation.
        SolverStats`); the session bumps ``batch_calls`` once,
        ``batch_queries`` per solve and ``batch_dedup_hits`` per memo
        hit, and threads the record into every inner solver.
    context:
        Optional pinned :class:`~repro.resources.RunContext`.  When
        omitted the *ambient* context is looked up at each solve, so a
        session created outside a ``governed()`` block is still governed
        by deadlines entered later.
    """

    def __init__(
        self,
        target: Union[Structure, CompiledTarget],
        *,
        cache: Optional[CompiledTargetCache] = None,
        stats=None,
        context: Optional[RunContext] = None,
    ) -> None:
        if isinstance(target, CompiledTarget):
            self.compiled = target
        elif cache is not None:
            self.compiled = cache.get(target, stats)
        else:
            self.compiled = CompiledTarget(target)
            if stats is not None:
                stats.kernel_compilations += 1
        self.stats = stats
        self._context = context
        self.scratch = PropagationScratch()
        # Keyed by (source fingerprint, options); witnesses are stored
        # once and copied out per hit.
        self._memo = VerifiedLRU(SESSION_MEMO_SIZE)
        if stats is not None:
            stats.batch_calls += 1

    @property
    def target(self) -> Structure:
        """The underlying target structure."""
        return self.compiled.structure

    def _current_context(self) -> RunContext:
        return self._context if self._context is not None else current_context()

    def solve(
        self,
        source: Structure,
        *,
        injective: bool = False,
        pinned: Optional[Mapping[Element, Element]] = None,
        forbidden_images: Iterable[Element] = (),
        propagate: bool = True,
    ) -> Optional[Homomorphism]:
        """First homomorphism ``source → target``, or ``None``.

        Same options and :class:`~repro.exceptions.ValidationError`
        behavior as a standalone
        :class:`~repro.kernel.solver.BitsetHomomorphismSolver`.
        """
        stats = self.stats
        if stats is not None:
            stats.batch_queries += 1
        pinned_key = (
            frozenset(pinned.items()) if pinned else frozenset()
        )
        forbidden = frozenset(forbidden_images)
        key = (
            source.fingerprint(),
            injective,
            pinned_key,
            forbidden,
            propagate,
        )
        witness = self._memo.get(key, (source,))
        if witness is not MISS:
            if stats is not None:
                stats.batch_dedup_hits += 1
            return dict(witness) if witness is not None else None
        solver = BitsetHomomorphismSolver(
            source,
            self.compiled,
            injective=injective,
            pinned=pinned,
            forbidden_images=forbidden,
            propagate=propagate,
            stats=stats,
            context=self._current_context(),
            scratch=self.scratch,
        )
        witness = solver.first()
        self._memo.put(key, (source,), witness)
        return dict(witness) if witness is not None else None

    def solve_all(
        self,
        sources: Iterable[Structure],
        *,
        injective: bool = False,
        pinned: Optional[Mapping[Element, Element]] = None,
        forbidden_images: Iterable[Element] = (),
        propagate: bool = True,
    ) -> List[Optional[Homomorphism]]:
        """One witness-or-``None`` per source, in order."""
        return [
            self.solve(
                source,
                injective=injective,
                pinned=pinned,
                forbidden_images=forbidden_images,
                propagate=propagate,
            )
            for source in sources
        ]
