"""The incremental engine: edit streams over mutating structures.

Everything in this package exists to make the *second* decision about a
structure cheap.  The four layers, bottom to top:

* :mod:`repro.incremental.delta` — structure edits as invertible
  :class:`~repro.incremental.delta.Delta` values;
  :func:`~repro.incremental.delta.apply_delta` applies one immutably
  and returns an :class:`~repro.incremental.delta.EditRecord`.
* :mod:`repro.incremental.fingerprint` — delta-maintained WL
  fingerprints: only the edit's refinement radius is re-hashed, with
  an exact from-scratch fallback (the digest is always bit-identical).
* fine-grained cache invalidation —
  :meth:`repro.engine.engine.HomEngine.invalidate_edit` evicts only
  memo/compiled entries mentioning the edited side's old fingerprint.
* :mod:`repro.incremental.warm` /
  :mod:`repro.incremental.datalog` — warm-start re-decision for
  hom/containment/core queries (witness revalidation + monotonicity)
  and DRed maintenance of Datalog fixpoints.

Every incremental path gives the answer a from-scratch computation
would; only the work differs.  Counters live on
:data:`repro.engine.instrumentation.INCREMENTAL` and appear in
``python -m repro stats``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "datalog": ("IncrementalFixpoint",),
    "delta": ("Delta", "EditRecord", "apply_delta"),
    "fingerprint": (
        "fingerprint_with_history", "incremental_fingerprint",
    ),
    "warm": (
        "IncrementalCoreSession", "IncrementalHomSession",
        "incremental_containment_session",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "Delta",
    "EditRecord",
    "IncrementalCoreSession",
    "IncrementalFixpoint",
    "IncrementalHomSession",
    "apply_delta",
    "fingerprint_with_history",
    "incremental_containment_session",
    "incremental_fingerprint",
]
