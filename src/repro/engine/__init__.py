"""The hom-solver engine: memoized, instrumented homomorphism queries.

Every theorem-experiment in this repository bottoms out in repeated
calls to the NP-hard homomorphism search, and the same (source, target)
pairs recur constantly across sweeps.  This package is the single entry
point for those queries:

* :mod:`repro.engine.fingerprint` — a canonical, order-invariant
  fingerprint of a structure (isomorphism-invariant by construction),
  cached on :class:`~repro.structures.structure.Structure`;
* :mod:`repro.engine.cache` — the caching rule every structure-keyed
  cache follows (fingerprint keys, equality-verified buckets, LRU
  bounds, fingerprint invalidation) and the memo cache built on it;
* :mod:`repro.engine.instrumentation` — per-call solver counters
  (backtracks, search nodes, AC-3 prunings, cache hits/misses) and
  timers, dumped as JSON by ``python -m repro stats``;
* :mod:`repro.engine.engine` — :class:`HomEngine`, the facade the rest
  of the library (``homomorphism``, ``cq`` containment, ``core``
  preservation, benchmarks) calls through.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "cache": ("HomCache",),
    "engine": ("HomEngine", "get_engine", "reset_engine", "set_engine"),
    "fingerprint": ("structure_fingerprint",),
    "instrumentation": ("GOVERNOR", "GovernorStats", "SolverStats"),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "GOVERNOR",
    "GovernorStats",
    "HomCache",
    "HomEngine",
    "SolverStats",
    "get_engine",
    "reset_engine",
    "set_engine",
    "structure_fingerprint",
]
