"""The compiled bitset homomorphism kernel.

The reference solver (:mod:`repro.homomorphism.search`) works directly
over ``Set[Element]`` domains and re-scans target tuples during every
AC-3 sweep.  This package is the compiled fast path the engine uses by
default:

* :mod:`repro.kernel.compile` — interns a target structure into a
  dense-integer form: elements become ``0..n-1``, each relation becomes
  a tuple array with per-position *support bitmasks* (Python ints) and
  memoized per-position-group supports, so "which target tuples can put
  value ``v`` at the positions of variable ``x``" is one dict lookup.
  :class:`~repro.kernel.compile.CompiledTargetCache` keeps compiled
  targets (the caching rule is :mod:`repro.engine.cache`'s), so
  core-retraction loops and containment batches that re-query one
  target compile it exactly once.
* :mod:`repro.kernel.solver` — MAC search over integer bitmask domains:
  MRV by ``int.bit_count()``, propagation as masked intersections over
  the precompiled supports with a worklist (only facts touching a
  shrunk variable are revisited, replacing the reference's full AC-3
  re-sweeps), forward-checking fallback for the ``propagate=False``
  ablation.
* :mod:`repro.kernel.batch` — the v2 batched entry point
  (:class:`~repro.kernel.batch.BatchSolveSession`, which the engine's
  :meth:`~repro.engine.engine.HomEngine.batch` handle drives): many
  sources against one target compile the target once and share its
  memoized support tables and one propagation scratch pair; the
  session memoizes no answer, so repeats are the engine memo's.
* :mod:`repro.kernel.dp` — the v2 treewidth-guided DP solve path:
  when :func:`~repro.kernel.dp.plan_dp` accepts a source (enough
  variables, small Gaifman-graph width, affordable table bound),
  :class:`~repro.kernel.dp.TreewidthDPSolver` decides existence by
  join/introduce/forget tables of partial homomorphisms over a nice
  decomposition instead of backtracking, checkpointing ``hom.dp`` at
  every bag.  Large or UNKNOWN width falls back to the backtracking
  kernel; ``HomEngine(use_dp=False)`` disables the path entirely.

The kernel preserves the cooperative governance contract: every node
expansion checkpoints ``hom.search`` and every fact revision checkpoints
``hom.propagate`` on the ambient :class:`~repro.resources.RunContext`,
so deadlines, budgets, cancellation and the chaos harness govern the
compiled path exactly as they govern the reference solver.  The
reference solver stays selectable via ``HomEngine(use_kernel=False)``
or ``repro stats --no-kernel``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "batch": ("BatchSolveSession",),
    "compile": ("CompiledRelation", "CompiledTarget", "CompiledTargetCache"),
    "dp": (
        "DP_COST_CAP", "DP_EXACT_LIMIT", "DP_MAX_WIDTH", "DP_MIN_VARS",
        "DPPlan", "TreewidthDPSolver", "plan_dp",
    ),
    "solver": ("BitsetHomomorphismSolver", "PropagationScratch"),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "BatchSolveSession",
    "BitsetHomomorphismSolver",
    "CompiledRelation",
    "CompiledTarget",
    "CompiledTargetCache",
    "DP_COST_CAP",
    "DP_EXACT_LIMIT",
    "DP_MAX_WIDTH",
    "DP_MIN_VARS",
    "DPPlan",
    "PropagationScratch",
    "TreewidthDPSolver",
    "plan_dp",
]
