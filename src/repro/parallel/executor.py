"""The governed parallel sweep executor.

:func:`run_sweep` maps a picklable task over ``(key, spec)`` instances:

* **parallel** — a ``ProcessPoolExecutor`` with ``workers`` processes,
  always run by the supervisor below; pending instances are grouped
  into order-preserving chunks so small tasks amortize the submission
  overhead;
* **governed** — the configured per-task deadline/budget is re-installed
  *inside* each worker via :func:`repro.resources.governed`, so one
  pathological instance trips its own governor instead of stalling the
  sweep; trips are recorded as honest ``status: "unknown"`` records;
* **resumable** — each completed record is journaled (and fsynced) in
  the parent the moment its future resolves; a journaled key is skipped
  on the next run, so a killed sweep resumes after the last finished
  chunk;
* **deterministic** — the report's ``results`` mapping is ordered by the
  original instance order regardless of completion order;
* **supervised** — the parallel phase runs under a
  :class:`~repro.parallel.supervisor.SweepSupervisor`: worker deaths
  rebuild the pool and reschedule only the in-flight instances under a
  :class:`~repro.parallel.retry.RetryPolicy` (exponential backoff +
  jitter), poison instances are quarantined with a structured journal
  verdict after their attempts are exhausted, and a watchdog SIGKILLs
  workers whose task overruns ``deadline * grace_factor`` (catching
  non-cooperative hangs that never reach a ``checkpoint()`` site);
* **graceful** — when process pools cannot be created at all
  (sandboxes, missing ``/dev/shm``), the task cannot be pickled, or the
  pool keeps breaking without progress, the remaining instances fall
  back to the in-process serial path, which is also the
  ``workers <= 1`` mode.  The two degradation causes are distinguished
  and logged on the ``repro.parallel`` logger: pool-*infrastructure*
  failures degrade or rebuild; per-*instance* errors are recorded and
  the sweep continues.

Workers inherit the parent's engine configuration (memo cache, compiled
bitset kernel) through ``fork``; on spawn-based platforms the task and
spec only need to be picklable top-level objects, which everything in
:mod:`repro.parallel.sweeps` is.
"""

from __future__ import annotations

import logging
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import LeaseLostError, ResourceError, ValidationError
from ..resources.checkpointing import SweepJournal
from ..resources.governor import governed
from .retry import RetryPolicy
from .supervisor import DEFAULT_GRACE_FACTOR, SweepSupervisor

log = logging.getLogger("repro.parallel")

#: Cap on the traceback text carried inside error/quarantine records.
TRACEBACK_LIMIT = 2000

#: A task maps one instance spec to a JSON-serializable result.
Task = Callable[[Any], Any]

#: One sweep instance: a unique string key plus a picklable spec.
Instance = Tuple[str, Any]


@dataclass
class SweepOutcome:
    """The aggregate outcome of one :func:`run_sweep` call.

    ``results`` maps every instance key (in instance order) to its
    record: ``{"status": "ok" | "unknown" | "error" | "quarantined",
    ...}`` with the task's return value under ``"result"`` for ``ok``
    records.  The supervision counters (``retries``, ``quarantined``,
    ``hard_kills``, ``pool_rebuilds``, ``worker_crashes``) cover the
    parallel phase; ``journal`` carries the journal's integrity stats
    when one was attached.
    """

    mode: str
    workers: int
    parallel: bool
    computed: int = 0
    resumed: int = 0
    unknown: int = 0
    failed: int = 0
    quarantined: int = 0
    retries: int = 0
    hard_kills: int = 0
    pool_rebuilds: int = 0
    worker_crashes: int = 0
    elapsed_s: float = 0.0
    results: Dict[str, Any] = field(default_factory=dict)
    journal: Optional[Dict[str, Any]] = None

    @property
    def instances(self) -> int:
        return len(self.results)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serializable report."""
        report = {
            "mode": self.mode,
            "workers": self.workers,
            "parallel": self.parallel,
            "instances": self.instances,
            "computed": self.computed,
            "resumed": self.resumed,
            "unknown": self.unknown,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "retries": self.retries,
            "hard_kills": self.hard_kills,
            "pool_rebuilds": self.pool_rebuilds,
            "worker_crashes": self.worker_crashes,
            "elapsed_s": self.elapsed_s,
            "results": self.results,
        }
        if self.journal is not None:
            report["journal"] = self.journal
        return report


def _run_one(
    task: Task,
    spec: Any,
    deadline_s: Optional[float],
    budget: Optional[int],
    heartbeat: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """Run one instance under its own governed context; classify the
    outcome instead of letting a governor trip poison the whole sweep.

    ``heartbeat`` (serial shard runs) is called before the instance and
    again at every cooperative governor checkpoint, so a long-running
    task keeps its shard lease alive without knowing leases exist.
    """
    started = time.perf_counter()
    injector = None
    if heartbeat is not None:
        heartbeat()
        injector = lambda context, site: heartbeat()  # noqa: E731
    try:
        with governed(deadline=deadline_s, budget=budget,
                      injector=injector):
            value = task(spec)
        return {
            "status": "ok",
            "result": value,
            "elapsed_s": time.perf_counter() - started,
        }
    except LeaseLostError:
        # Not an instance outcome: this runner no longer owns the
        # shard.  Propagate so the shard runner abandons the shard
        # instead of journaling a bogus "error" record under a stale
        # fence.
        raise
    except ResourceError as err:
        return {
            "status": "unknown",
            "error": type(err).__name__,
            "detail": str(err),
            "elapsed_s": time.perf_counter() - started,
        }
    except Exception as err:  # noqa: BLE001 - one bad instance must not
        # take down the sweep; the record carries the diagnosis.
        return {
            "status": "error",
            "error": type(err).__name__,
            "detail": str(err),
            "traceback": _traceback.format_exc()[-TRACEBACK_LIMIT:],
            "elapsed_s": time.perf_counter() - started,
        }


def _run_chunk(
    task: Task,
    chunk: Sequence[Instance],
    deadline_s: Optional[float],
    budget: Optional[int],
) -> List[Tuple[str, Dict[str, Any]]]:
    """Worker entry point: run one chunk of instances in order."""
    return [
        (key, _run_one(task, spec, deadline_s, budget)) for key, spec in chunk
    ]


def serial_map(
    task: Task,
    instances: Sequence[Instance],
    deadline_s: Optional[float] = None,
    budget: Optional[int] = None,
    journal: Optional[SweepJournal] = None,
    heartbeat: Optional[Callable[[], None]] = None,
) -> List[Tuple[str, Dict[str, Any]]]:
    """The in-process fallback path: governed, journaled, in order."""
    out: List[Tuple[str, Dict[str, Any]]] = []
    for key, spec in instances:
        record = _run_one(task, spec, deadline_s, budget, heartbeat)
        if journal is not None:
            journal.record(key, record)
        out.append((key, record))
    return out


def run_sweep(
    task: Task,
    instances: Sequence[Instance],
    *,
    workers: int = 1,
    deadline_s: Optional[float] = None,
    budget: Optional[int] = None,
    journal: Optional[SweepJournal] = None,
    fresh: bool = False,
    chunksize: int = 1,
    mode: str = "sweep",
    retry_policy: Optional[RetryPolicy] = None,
    grace_factor: float = DEFAULT_GRACE_FACTOR,
    hard_timeout_s: Optional[float] = None,
    heartbeat: Optional[Callable[[], None]] = None,
) -> SweepOutcome:
    """Map ``task`` over ``instances``, parallel, governed and resumable.

    Parameters
    ----------
    task:
        Picklable callable ``spec -> JSON-serializable result`` (a
        top-level function, or a :func:`functools.partial` of one).
    instances:
        ``(key, spec)`` pairs; keys must be unique — they name journal
        records and report rows.
    workers:
        Process count; ``<= 1`` runs serially in-process.
    deadline_s / budget:
        Per-instance governor limits, installed inside the worker for
        each instance separately.
    journal:
        Optional :class:`~repro.resources.SweepJournal`; journaled keys
        are skipped (``resumed``) and every completion is recorded the
        moment its future resolves.
    fresh:
        Reset the journal before sweeping.
    chunksize:
        Instances per worker task (order-preserving).
    retry_policy:
        Per-instance :class:`~repro.parallel.retry.RetryPolicy` for
        infrastructure faults (worker crashes, hard timeouts); the
        default allows three attempts with exponential backoff before
        quarantining.
    grace_factor:
        Watchdog multiplier: a worker whose task runs past
        ``deadline_s * grace_factor`` wall-clock seconds is SIGKILLed
        (non-cooperative hang).  Only active with a deadline or an
        explicit ``hard_timeout_s``.
    hard_timeout_s:
        Explicit per-instance hard wall-clock cap (overrides the
        factor).
    heartbeat:
        Optional zero-argument callable invoked regularly while the
        sweep makes progress: before each serial instance and at every
        cooperative governor checkpoint (serial path), and once per
        supervisor loop iteration (parallel path).  The sharded runtime
        passes its lease-renewal heartbeat here; a
        :class:`~repro.exceptions.LeaseLostError` it raises aborts the
        sweep immediately rather than being misfiled as an instance
        error.
    """
    keys = [key for key, _ in instances]
    if len(set(keys)) != len(keys):
        raise ValidationError("sweep instance keys must be unique")
    if chunksize < 1:
        raise ValidationError("chunksize must be >= 1")
    if journal is not None and fresh:
        journal.reset()

    outcome = SweepOutcome(mode=mode, workers=workers, parallel=False)
    started = time.perf_counter()

    pending: List[Instance] = []
    for key, spec in instances:
        if journal is not None and journal.is_done(key):
            outcome.resumed += 1
        else:
            pending.append((key, spec))

    completed: Dict[str, Dict[str, Any]] = {}
    # A run with an explicit hard cap goes through the pool even at
    # workers=1: the watchdog can only SIGKILL *worker* processes, and
    # a sharded runner needs hangs killable so a hung task cannot pin
    # a shard lease forever.
    if pending and (workers > 1 or hard_timeout_s is not None):
        supervisor = SweepSupervisor(
            task,
            workers=workers,
            deadline_s=deadline_s,
            budget=budget,
            journal=journal,
            retry_policy=retry_policy,
            grace_factor=grace_factor,
            hard_timeout_s=hard_timeout_s,
            tick=heartbeat,
        )
        phase = supervisor.run(pending, chunksize=chunksize)
        completed = phase.completed
        leftover = phase.leftover
        outcome.retries = phase.retries
        outcome.quarantined = phase.quarantined
        outcome.hard_kills = phase.hard_kills
        outcome.pool_rebuilds = phase.pool_rebuilds
        outcome.worker_crashes = phase.worker_crashes
        outcome.parallel = bool(completed) or not leftover
        if leftover:
            log.warning(
                "parallel phase degraded: running %d instance(s) on "
                "the serial path", len(leftover),
            )
        pending = leftover
    if pending:
        completed.update(
            dict(serial_map(task, pending, deadline_s, budget, journal,
                            heartbeat))
        )

    for key, _ in instances:
        if key in completed:
            record = completed[key]
            outcome.computed += 1
            status = record.get("status")
            if status == "unknown":
                outcome.unknown += 1
            elif status == "error":
                outcome.failed += 1
        else:
            record = journal.result(key) if journal is not None else None
        outcome.results[key] = record
    if journal is not None:
        # Capture stats *before* compacting — compaction rewrites the
        # file clean, which would hide the recovery evidence (legacy,
        # corrupt, torn-tail counts) the report exists to surface.
        stats = journal.journal_stats()
        stats["compacted"] = False
        if journal.needs_compaction():
            log.info("compacting journal %s", journal.path)
            journal.compact()
            stats["compacted"] = True
        outcome.journal = stats
    outcome.elapsed_s = time.perf_counter() - started
    return outcome
