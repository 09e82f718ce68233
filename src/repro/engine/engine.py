""":class:`HomEngine` — the memoized, instrumented hom-query facade.

The engine is the single entry point for homomorphism existence/witness
queries and core computations.  Each query is

1. normalized into a cache key ``(kind, fingerprint(s), options…)``,
2. looked up in the LRU memo cache (equality-verified, so fingerprint
   collisions can only cost a miss, never a wrong answer),
3. on a miss, solved by the compiled bitset kernel
   (:mod:`repro.kernel`, the default — the target is interned once per
   fingerprint and reused) or by the reference backtracking solver in
   :mod:`repro.homomorphism.search` (``use_kernel=False``), with the
   engine's :class:`~repro.engine.instrumentation.SolverStats` threaded
   through so backtracks / nodes / prunings are counted, and the result
   stored.

A process-global engine (``get_engine()``) backs the convenience
functions of :mod:`repro.homomorphism`; benchmarks construct private
instances (e.g. with ``cache_enabled=False`` or ``use_kernel=False``)
for ablations, and ``repro stats --no-cache/--no-kernel`` installs one
as the global engine.  The instrumentation stays on either way.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from ..exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    OperationCancelledError,
)
from ..structures.structure import Element, Structure
from .cache import MISS, HomCache
from .instrumentation import (
    DISTRIBUTED,
    GOVERNOR,
    INCREMENTAL,
    SERVE,
    SolverStats,
    Timer,
)

Homomorphism = Dict[Element, Element]

#: Default number of memoized keys retained by a fresh engine.
DEFAULT_CACHE_SIZE = 4096


def _hom_key(
    source: Structure,
    target: Structure,
    injective: bool,
    pinned: Optional[Mapping[Element, Element]],
    forbidden: FrozenSet[Element],
    propagate: bool,
) -> Tuple:
    """The memo key of one hom query."""
    return (
        "hom",
        source.fingerprint(),
        target.fingerprint(),
        injective,
        frozenset((pinned or {}).items()),
        forbidden,
        propagate,
    )


def _copy_witness(
    witness: Optional[Homomorphism],
) -> Optional[Homomorphism]:
    return dict(witness) if witness is not None else None


def _same(value):
    return value


class HomEngine:
    """Memoized homomorphism/core solver with per-call instrumentation.

    The memo holds :data:`DEFAULT_CACHE_SIZE` keys and the compiled-
    target cache :data:`~repro.kernel.compile.DEFAULT_COMPILED_CACHE_SIZE`
    targets; a caller that needs another bound assigns its own
    :class:`~repro.engine.cache.HomCache` to ``engine.cache``.

    Parameters
    ----------
    cache_enabled:
        When ``False`` every query is solved from scratch; counters and
        timers still accumulate (used by the ``--no-cache`` ablations).
    use_kernel:
        When ``True`` (default) searches run on the compiled bitset
        kernel (:mod:`repro.kernel`), with targets compiled once per
        fingerprint and reused across queries; ``False`` keeps the
        reference set-based solver (the ``--no-kernel`` ablation and
        the differential oracle path).
    use_dp:
        When ``True`` (default) kernel solves are routed through
        :func:`repro.kernel.dp.plan_dp`: sources with enough variables
        and small Gaifman-graph treewidth are solved by dynamic
        programming over a nice decomposition instead of backtracking.
        Plans the gate rejects (large/UNKNOWN width, injective queries,
        unaffordable table bound) fall back to backtracking silently.
    """

    def __init__(
        self,
        *,
        cache_enabled: bool = True,
        use_kernel: bool = True,
        use_dp: bool = True,
    ) -> None:
        from ..kernel.compile import CompiledTargetCache

        self.cache = HomCache(DEFAULT_CACHE_SIZE)
        self.cache_enabled = cache_enabled
        self.use_kernel = use_kernel
        self.use_dp = use_dp
        self.compiled_targets = CompiledTargetCache()
        self.stats = SolverStats()

    def _memoized(self, make_key, witnesses, compute, copy=_same):
        """``compute()``, answered through the memo when it is on.

        ``make_key()`` builds the key (only with the memo on, since it
        fingerprints); a hit returns ``copy`` of the stored value and a
        miss stores ``copy`` of the computed one.  Every memo lookup of
        the engine goes through here.
        """
        if not self.cache_enabled:
            return compute()
        key = make_key()
        cached = self.cache.get(key, witnesses)
        if cached is not MISS:
            self.stats.cache_hits += 1
            return copy(cached)
        self.stats.cache_misses += 1
        result = compute()
        self.cache.put(key, witnesses, copy(result))
        return result

    def _timed(self, solve, *args, **kwargs):
        """``solve(*args, **kwargs)``, its wall time added to
        ``stats.solve_time_s``."""
        with Timer() as timer:
            result = solve(*args, **kwargs)
        self.stats.solve_time_s += timer.elapsed_s
        return result

    # ------------------------------------------------------------------
    # Homomorphism queries
    # ------------------------------------------------------------------
    def find_homomorphism(
        self,
        source: Structure,
        target: Structure,
        *,
        injective: bool = False,
        pinned: Optional[Mapping[Element, Element]] = None,
        forbidden_images: Iterable[Element] = (),
        propagate: bool = True,
    ) -> Optional[Homomorphism]:
        """A homomorphism ``source → target`` honoring the options, or
        ``None``; memoized on (fingerprints, options)."""
        self.stats.calls += 1
        forbidden = frozenset(forbidden_images)
        return self._memoized(
            lambda: _hom_key(
                source, target, injective, pinned, forbidden, propagate
            ),
            (source, target),
            lambda: self._solve(
                source, target, injective, pinned, forbidden, propagate
            ),
            _copy_witness,
        )

    def batch(self, target: Structure) -> "_EngineBatch":
        """A batched solve handle for many queries against ``target``.

        The returned handle's :meth:`_EngineBatch.find` answers queries
        with the same memoization, instrumentation and option semantics
        as :meth:`find_homomorphism`, but all kernel solves share one
        :class:`~repro.kernel.batch.BatchSolveSession` — the target is
        compiled once and its support tables and propagation scratch
        are reused across the whole batch.  This is the fast path for
        the containment / disjunct-pruning / core-retraction loops
        (many sources, one target).  Handles are single-threaded.
        """
        return _EngineBatch(self, target)

    def solve_batch(
        self,
        sources: Iterable[Structure],
        target: Structure,
        *,
        injective: bool = False,
        pinned: Optional[Mapping[Element, Element]] = None,
        forbidden_images: Iterable[Element] = (),
        propagate: bool = True,
    ) -> list:
        """One witness-or-``None`` per source, via a shared batch.

        Convenience wrapper over :meth:`batch` applying the same
        options to every query.
        """
        handle = self.batch(target)
        return [
            handle.find(
                source,
                injective=injective,
                pinned=pinned,
                forbidden_images=forbidden_images,
                propagate=propagate,
            )
            for source in sources
        ]

    def exists_homomorphism(self, source: Structure, target: Structure) -> bool:
        """Whether a homomorphism ``source → target`` exists (memoized).

        Shares the witness cache with :meth:`find_homomorphism`, so an
        existence probe warms the cache for a later witness request.
        """
        return self.find_homomorphism(source, target) is not None

    def decide_homomorphism(
        self,
        source: Structure,
        target: Structure,
        *,
        injective: bool = False,
        pinned: Optional[Mapping[Element, Element]] = None,
        forbidden_images: Iterable[Element] = (),
        propagate: bool = True,
    ):
        """The governed, trivalent form of :meth:`find_homomorphism`.

        Returns a :class:`~repro.resources.Verdict`:

        * TRUE (with the witness mapping) when a homomorphism exists,
        * FALSE when provably none exists,
        * UNKNOWN when the ambient deadline/budget/cancellation tripped
          before the search finished — the verdict carries the trip's
          reason and the resources consumed.

        Never hangs and never lets a governor trip escape as an
        exception; this is the entry point services should call.
        """
        from ..resources.governor import current_context
        from ..resources.verdict import Verdict

        ctx = current_context()
        try:
            witness = self.find_homomorphism(
                source,
                target,
                injective=injective,
                pinned=pinned,
                forbidden_images=forbidden_images,
                propagate=propagate,
            )
        except (
            DeadlineExceededError,
            BudgetExceededError,
            OperationCancelledError,
        ) as err:
            GOVERNOR.unknown_verdicts += 1
            return Verdict.from_error(err)
        if witness is None:
            return Verdict.false(
                reason="no homomorphism exists", consumed=ctx.consumption()
            )
        return Verdict.true(
            reason="witness found",
            witness=witness,
            consumed=ctx.consumption(),
        )

    def _solve(
        self,
        source: Structure,
        target: Structure,
        injective: bool,
        pinned: Optional[Mapping[Element, Element]],
        forbidden: FrozenSet[Element],
        propagate: bool,
    ) -> Optional[Homomorphism]:
        self.stats.solves += 1
        with Timer() as timer:
            if self.use_kernel:
                from ..kernel.solver import BitsetHomomorphismSolver

                self.stats.kernel_solves += 1
                compiled = self.compiled_targets.get(target, stats=self.stats)
                plan = None
                if self.use_dp:
                    from ..kernel.dp import plan_dp

                    plan = plan_dp(
                        source, compiled.size(), injective=injective
                    )
                if plan is not None:
                    from ..kernel.dp import TreewidthDPSolver

                    dp = TreewidthDPSolver(
                        source,
                        compiled,
                        plan.nice,
                        pinned=pinned,
                        forbidden_images=forbidden,
                        propagate=propagate,
                        stats=self.stats,
                    )
                    result = dp.first()
                else:
                    solver = BitsetHomomorphismSolver(
                        source,
                        compiled,
                        injective=injective,
                        pinned=pinned,
                        forbidden_images=forbidden,
                        propagate=propagate,
                        stats=self.stats,
                    )
                    result = solver.first()
            else:
                from ..homomorphism.search import HomomorphismSearch

                search = HomomorphismSearch(
                    source,
                    target,
                    injective=injective,
                    pinned=pinned,
                    forbidden_images=forbidden,
                    propagate=propagate,
                    stats=self.stats,
                )
                result = search.first()
        self.stats.solve_time_s += timer.elapsed_s
        return result

    # ------------------------------------------------------------------
    # Core computation
    # ------------------------------------------------------------------
    def core(self, structure: Structure) -> Structure:
        """The core of ``structure``, memoized on its fingerprint.

        The iterated-retraction algorithm's inner retraction searches run
        through this engine too, so they are counted and (individually)
        memoized.
        """
        from ..homomorphism.cores import core_by_retractions

        self.stats.calls += 1
        return self._memoized(
            lambda: ("core", structure.fingerprint()),
            (structure,),
            lambda: self._timed(core_by_retractions, structure, engine=self),
        )

    # ------------------------------------------------------------------
    # Maintenance & observability
    # ------------------------------------------------------------------
    def invalidate(self, structure: Structure) -> int:
        """Drop every cached result involving ``structure``; returns the
        number of keys removed."""
        return self.cache.invalidate(structure.fingerprint())

    def invalidate_edit(self, record) -> int:
        """Fine-grained invalidation after one structure edit.

        ``record`` is the :class:`~repro.incremental.delta.EditRecord`
        of an :func:`~repro.incremental.delta.apply_delta` call.  Only
        entries whose key mentions the *old* fingerprint of the edited
        side are evicted (memo entries and the compiled target); every
        entry involving untouched structures stays warm.  An edit whose
        fingerprint did not change (e.g. applying a delta and its
        inverse) evicts nothing.  Returns the number of evicted
        entries; the keep/evict split is counted on the process-global
        :data:`~repro.engine.instrumentation.INCREMENTAL` stats.
        """
        if record.unchanged():
            INCREMENTAL.incr_kept += len(self.cache)
            return 0
        dropped = self.cache.invalidate(record.old_fingerprint)
        dropped += self.compiled_targets.invalidate(record.old_fingerprint)
        INCREMENTAL.incr_evictions += dropped
        INCREMENTAL.incr_kept += len(self.cache)
        return dropped

    def clear_cache(self) -> None:
        """Empty the memo and compiled-target caches (counters survive)."""
        self.cache.clear()
        self.compiled_targets.clear()

    def reset_stats(self) -> None:
        """Zero the solver counters, the cache's counters, the compiled-
        target cache's counters, and every process-global counter
        family (governor, incremental, distributed/lease/journal)."""
        self.stats.reset()
        self.cache.reset_counters()
        self.compiled_targets.reset_counters()
        GOVERNOR.reset()
        INCREMENTAL.reset()
        DISTRIBUTED.reset()
        SERVE.reset()

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable view of engine configuration + counters.

        This is exactly what ``python -m repro stats`` prints.  The
        ``governor`` section reports the process-global resource
        governor (deadline hits, budget trips, fallbacks, UNKNOWN
        verdicts), which is shared across engines.
        """
        return {
            "cache_enabled": self.cache_enabled,
            "kernel_enabled": self.use_kernel,
            "dp_enabled": self.use_dp,
            "solver": self.stats.snapshot(),
            "cache": self.cache.snapshot(),
            "compiled_targets": self.compiled_targets.snapshot(),
            "governor": GOVERNOR.snapshot(),
            "incremental": INCREMENTAL.snapshot(),
            "distributed": DISTRIBUTED.snapshot(),
            "serve": SERVE.snapshot(),
        }


class _EngineBatch:
    """One engine-mediated batch of queries against a fixed target.

    Created by :meth:`HomEngine.batch`.  Each :meth:`find` participates
    in the engine's memo cache and counters exactly like
    :meth:`HomEngine.find_homomorphism`; cache misses are solved
    through one lazily-created
    :class:`~repro.kernel.batch.BatchSolveSession`, so the target is
    compiled once for the whole batch and every solve shares its
    support tables and propagation scratch.  When the engine runs the
    reference solver (``use_kernel=False``) the handle degrades to
    plain per-query calls — the differential oracle stays exact.

    Not thread-safe (the underlying session shares scratch buffers).
    """

    __slots__ = ("engine", "target", "_session")

    def __init__(self, engine: HomEngine, target: Structure) -> None:
        self.engine = engine
        self.target = target
        self._session = None

    def _get_session(self):
        if self._session is None:
            from ..kernel.batch import BatchSolveSession

            self._session = BatchSolveSession(
                self.target,
                cache=self.engine.compiled_targets,
                stats=self.engine.stats,
            )
        return self._session

    def find(
        self,
        source: Structure,
        *,
        injective: bool = False,
        pinned: Optional[Mapping[Element, Element]] = None,
        forbidden_images: Iterable[Element] = (),
        propagate: bool = True,
    ) -> Optional[Homomorphism]:
        """A homomorphism ``source → self.target``, or ``None``."""
        engine = self.engine
        if not engine.use_kernel:
            return engine.find_homomorphism(
                source,
                self.target,
                injective=injective,
                pinned=pinned,
                forbidden_images=forbidden_images,
                propagate=propagate,
            )
        engine.stats.calls += 1
        forbidden = frozenset(forbidden_images)

        def solve() -> Optional[Homomorphism]:
            engine.stats.solves += 1
            engine.stats.kernel_solves += 1
            return engine._timed(
                self._get_session().solve,
                source,
                injective=injective,
                pinned=pinned,
                forbidden_images=forbidden,
                propagate=propagate,
            )

        return engine._memoized(
            lambda: _hom_key(
                source, self.target, injective, pinned, forbidden, propagate
            ),
            (source, self.target),
            solve,
            _copy_witness,
        )

    def exists(self, source: Structure) -> bool:
        """Whether a homomorphism ``source → self.target`` exists."""
        return self.find(source) is not None


# ----------------------------------------------------------------------
# The process-global engine
# ----------------------------------------------------------------------
_GLOBAL_ENGINE: Optional[HomEngine] = None


def get_engine() -> HomEngine:
    """The process-global engine (created on first use)."""
    global _GLOBAL_ENGINE
    if _GLOBAL_ENGINE is None:
        _GLOBAL_ENGINE = HomEngine()
    return _GLOBAL_ENGINE


def set_engine(engine: HomEngine) -> HomEngine:
    """Install ``engine`` as the process-global engine; returns it."""
    global _GLOBAL_ENGINE
    _GLOBAL_ENGINE = engine
    return engine


def reset_engine() -> HomEngine:
    """Replace the global engine with a fresh default one; returns it."""
    return set_engine(HomEngine())
