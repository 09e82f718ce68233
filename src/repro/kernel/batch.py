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
  stops churning fresh containers per propagation pass.

A session memoizes no answer: every :meth:`BatchSolveSession.solve`
searches, and repeated queries are the engine memo's to answer
(:meth:`~repro.engine.engine.HomEngine.batch`).

Sessions are single-threaded by design — the shared scratch buffers
make concurrent solves unsafe — and they preserve the governance
contract: each solve checkpoints under the ambient
:class:`~repro.resources.RunContext` exactly like a single solve, so a
deadline can interrupt a batch between (or inside) queries.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..structures.structure import Element, Structure
from .compile import CompiledTarget, CompiledTargetCache
from .solver import BitsetHomomorphismSolver, Homomorphism, PropagationScratch


class BatchSolveSession:
    """Shared-compilation solve session for many sources, one target.

    Parameters
    ----------
    target:
        The common target structure.
    cache:
        Optional :class:`~repro.kernel.compile.CompiledTargetCache`; when
        given, compilation goes through it so sessions share compiled
        targets with the engine and with each other.
    stats:
        Optional counter record (:class:`~repro.engine.instrumentation.
        SolverStats`); the session bumps ``batch_calls`` once and
        ``batch_queries`` per solve, and threads the record into every
        inner solver.

    Each solve runs under the context that is ambient when it starts,
    so a session created outside a ``governed()`` block is still
    governed by deadlines entered later.
    """

    def __init__(
        self,
        target: Structure,
        *,
        cache: Optional[CompiledTargetCache] = None,
        stats=None,
    ) -> None:
        if cache is not None:
            self.compiled = cache.get(target, stats)
        else:
            self.compiled = CompiledTarget(target)
            if stats is not None:
                stats.kernel_compilations += 1
        self.stats = stats
        self.scratch = PropagationScratch()
        if stats is not None:
            stats.batch_calls += 1

    @property
    def target(self) -> Structure:
        """The underlying target structure."""
        return self.compiled.structure

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
        if self.stats is not None:
            self.stats.batch_queries += 1
        return BitsetHomomorphismSolver(
            source,
            self.compiled,
            injective=injective,
            pinned=pinned,
            forbidden_images=forbidden_images,
            propagate=propagate,
            stats=self.stats,
            scratch=self.scratch,
        ).first()
