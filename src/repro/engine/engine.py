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

Callers that need every homomorphism, or one uncached answer, take a
plain search from :meth:`HomEngine.search`; it runs on the solver
``use_kernel`` selects, so the engine is the only place that picks one.

A process-global engine (``get_engine()``) backs the convenience
functions of :mod:`repro.homomorphism`; benchmarks construct private
instances (e.g. with ``cache_enabled=False`` or ``use_kernel=False``)
for ablations, and ``repro stats --no-cache/--no-kernel`` runs on one.
The instrumentation stays on either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

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


def _options(
    injective: bool,
    pinned: Optional[Mapping[Element, Element]],
    forbidden_images: Iterable[Element],
    propagate: bool,
) -> Dict[str, object]:
    """One hom query's options as solver keywords (forbidden images as
    a frozenset)."""
    return {
        "injective": injective,
        "pinned": pinned,
        "forbidden_images": frozenset(forbidden_images),
        "propagate": propagate,
    }


def _hom_key(source: Structure, target: Structure, options) -> Tuple:
    """The memo key of one hom query."""
    return (
        "hom",
        source.fingerprint(),
        target.fingerprint(),
        options["injective"],
        frozenset((options["pinned"] or {}).items()),
        options["forbidden_images"],
        options["propagate"],
    )


def _copy_witness(
    witness: Optional[Homomorphism],
) -> Optional[Homomorphism]:
    return dict(witness) if witness is not None else None


def _same(value):
    return value


_GOVERNOR_TRIPS = (
    DeadlineExceededError,
    BudgetExceededError,
    OperationCancelledError,
)


def _decide(find):
    """``find()``'s witness-or-``None`` as a governed
    :class:`~repro.resources.Verdict`: TRUE with the witness, FALSE on
    ``None``, UNKNOWN when a governor trip interrupts it."""
    from ..resources.governor import current_context
    from ..resources.verdict import Verdict

    ctx = current_context()
    try:
        witness = find()
    except _GOVERNOR_TRIPS as err:
        GOVERNOR.unknown_verdicts += 1
        return Verdict.from_error(err)
    if witness is None:
        return Verdict.false(
            reason="no homomorphism exists", consumed=ctx.consumption()
        )
    return Verdict.true(
        reason="witness found", witness=witness, consumed=ctx.consumption()
    )


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
        return self._find(
            source,
            target,
            _options(injective, pinned, forbidden_images, propagate),
        )

    def _find(self, source, target, options, session=None):
        """The memo/count path every witness query takes; ``session`` is
        a batch handle's session getter (see :meth:`_solve`)."""
        self.stats.calls += 1
        return self._memoized(
            lambda: _hom_key(source, target, options),
            (source, target),
            lambda: self._timed(
                self._solve, source, target, options, session
            ),
            _copy_witness,
        )

    def batch(self, target: Structure) -> "_EngineBatch":
        """A batched solve handle for many queries against ``target``.

        The returned handle's :meth:`_EngineBatch.find` (and its governed
        form :meth:`_EngineBatch.decide`) answers queries with the same
        memoization, instrumentation and option semantics as
        :meth:`find_homomorphism`, but all kernel solves share one
        :class:`~repro.kernel.batch.BatchSolveSession` — the target is
        compiled once and its support tables and propagation scratch
        are reused across the whole batch.  This is the fast path for
        the containment / disjunct-pruning / core-retraction loops
        (many sources, one target).  Handles are single-threaded.
        """
        return _EngineBatch(self, target)

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
        return _decide(
            lambda: self.find_homomorphism(
                source,
                target,
                injective=injective,
                pinned=pinned,
                forbidden_images=forbidden_images,
                propagate=propagate,
            )
        )

    def search(
        self,
        source: Structure,
        target: Structure,
        *,
        injective: bool = False,
        pinned: Optional[Mapping[Element, Element]] = None,
        forbidden_images: Iterable[Element] = (),
        propagate: bool = True,
    ):
        """A plain backtracking search ``source → target``: no memo, no DP.

        Returns the solver ``use_kernel`` selects, counting into
        :attr:`stats`: a :class:`~repro.kernel.solver.
        BitsetHomomorphismSolver` over the target compiled through
        :attr:`compiled_targets`, or the reference
        :class:`~repro.homomorphism.search.HomomorphismSearch`.  Both
        offer ``first()`` and ``solutions()`` and enumerate in the same
        order, so callers that need every homomorphism (CQ answers,
        isomorphism and automorphism scans) ask here.
        """
        options = dict(
            injective=injective,
            pinned=pinned,
            forbidden_images=forbidden_images,
            propagate=propagate,
            stats=self.stats,
        )
        if self.use_kernel:
            from ..kernel.solver import BitsetHomomorphismSolver

            compiled = self.compiled_targets.get(target, stats=self.stats)
            return BitsetHomomorphismSolver(source, compiled, **options)
        from ..homomorphism.search import HomomorphismSearch

        return HomomorphismSearch(source, target, **options)

    def _solve(self, source, target, options, session):
        """Answer one memo miss (counted; :meth:`_find` times it).

        The reference solver (``use_kernel=False``) always runs a plain
        :meth:`search`.  On the kernel, a batch handle's ``session``
        getter answers through its shared
        :class:`~repro.kernel.batch.BatchSolveSession` (no DP);
        otherwise the treewidth DP answers when
        :func:`~repro.kernel.dp.plan_dp` accepts the source, and a plain
        :meth:`search` when it does not.
        """
        self.stats.solves += 1
        if not self.use_kernel:
            return self.search(source, target, **options).first()
        self.stats.kernel_solves += 1
        if session is not None:
            return session().solve(source, **options)
        if self.use_dp:
            from ..kernel.dp import TreewidthDPSolver, plan_dp

            plan = plan_dp(
                source, target.size(), injective=options["injective"]
            )
            if plan is not None:  # never injective: the gate rejects it
                return TreewidthDPSolver(
                    source,
                    self.compiled_targets.get(target, stats=self.stats),
                    plan.nice,
                    pinned=options["pinned"],
                    forbidden_images=options["forbidden_images"],
                    propagate=options["propagate"],
                    stats=self.stats,
                ).first()
        return self.search(source, target, **options).first()

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
    reference solver (``use_kernel=False``) no session is made and each
    miss is a plain :meth:`HomEngine.search` — the differential oracle
    stays exact.

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
        return self.engine._find(
            source,
            self.target,
            _options(injective, pinned, forbidden_images, propagate),
            self._get_session,
        )

    def decide(self, source: Structure):
        """The governed verdict on ``source → self.target``, as
        :meth:`HomEngine.decide_homomorphism` gives it."""
        return _decide(lambda: self.find(source))

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
