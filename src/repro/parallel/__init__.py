"""Parallel, governed, supervised, resumable sweeps over instances.

Every benchmark/experiment sweep in this repository is embarrassingly
parallel over instances, and every instance is a worst-case-exponential
decider that must run governed.  This package provides the one executor
that combines the two — and keeps it alive when its own workers die:

* :mod:`repro.parallel.executor` — :func:`run_sweep`, a
  ``ProcessPoolExecutor``-based map over ``(key, spec)`` instances with
  chunking, per-task deadline/budget propagation into the workers,
  deterministic result ordering, per-completion
  :class:`~repro.resources.SweepJournal` checkpointing (kill the sweep,
  rerun it, it resumes after the last finished instance) and graceful
  serial fallback when process pools are unavailable;
* :mod:`repro.parallel.supervisor` — :class:`SweepSupervisor`, the
  fault-tolerant parallel phase, and the only process pool
  :func:`run_sweep` uses: worker deaths (SIGKILL, OOM) rebuild
  the pool and reschedule only the in-flight instances, a watchdog
  hard-kills non-cooperative hangs after ``deadline * grace_factor``,
  and poison instances are quarantined with a structured journal
  verdict instead of sinking the sweep;
* :mod:`repro.parallel.retry` — :class:`RetryPolicy`, per-instance
  attempt limits with exponential backoff and deterministic jitter;
* :mod:`repro.parallel.sweeps` — the named sweep registry (``hom``,
  ``cores``, ``treewidth``) with picklable instance specs and task
  functions, shared by ``repro sweep`` and the ``bench_p02``/
  ``bench_p03`` script modes;
* :mod:`repro.parallel.faults` — picklable worker-fault tasks (crash,
  OOM, hang, flaky) backing the chaos campaigns and the fault-rate
  bench.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "executor": ("SweepOutcome", "run_sweep", "serial_map"),
    "retry": ("DEFAULT_RETRY_POLICY", "RetryPolicy"),
    "supervisor": ("SupervisorResult", "SweepSupervisor"),
    "sweeps": ("SWEEPS", "Sweep", "get_sweep"),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "SWEEPS",
    "SupervisorResult",
    "Sweep",
    "SweepOutcome",
    "SweepSupervisor",
    "get_sweep",
    "run_sweep",
    "serial_map",
]
