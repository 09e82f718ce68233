"""The supervised fault-tolerant process-pool sweep runtime.

:class:`SweepSupervisor` runs the parallel phase of
:func:`repro.parallel.run_sweep` with a fault model the plain
``ProcessPoolExecutor.map`` cannot express.  Per instance, it is a
small state machine::

    RUNNING ──ok/unknown/error──────────────▶ RECORDED
       │                                          ▲
       │ infra fault (worker crash,               │ attempt succeeds
       │ hard timeout)                            │
       ▼                                          │
    RETRYING ──backoff+jitter, pool rebuilt───────┘
       │
       │ attempts exhausted (RetryPolicy.max_attempts)
       ▼
    QUARANTINED ── structured journal verdict; sweep continues

Concretely:

* **Worker death** (SIGKILL, OOM kill, abrupt ``os._exit``) breaks the
  whole ``ProcessPoolExecutor``; the supervisor catches the
  ``BrokenProcessPool``, rebuilds the pool, and reschedules *only the
  in-flight instances* — completed work is never redone.  A crash with
  one instance in flight charges it one :class:`WorkerCrashError`
  attempt.  A crash that takes down several cannot be pinned on one of
  them from the parent, so it charges none: each reruns *alone*, with
  nothing else in flight (counted in ``retries``), where a crash is its
  own.  Innocents succeed on their rerun, and only a poison instance
  accumulates attempts until it is quarantined.
* **Non-cooperative hangs** never reach a cooperative ``checkpoint()``
  site, so the in-worker deadline cannot fire.  The supervisor's
  watchdog hard-kills the pool once a task has run
  ``deadline * grace_factor`` wall-clock seconds, records the overdue
  instance with a :class:`HardTimeoutError` attempt, and reschedules
  the innocent bystanders *without* charging them one.
* **Submission window**: at most ``workers`` tasks are outstanding at
  any moment, so every in-flight future is genuinely executing and the
  watchdog's per-task clock is honest (a queued task can never be
  blamed for time it spent waiting).
* **Multi-instance chunks** are rescheduled as singletons after their
  first infrastructure fault, isolating the poison instance.

Pool-infrastructure failures that survive ``pool_rebuild_limit``
consecutive rebuilds without progress — and environments where a pool
cannot be created at all — degrade to the in-process serial path by
returning the unfinished remainder as ``leftover`` (the executor logs
which path was taken).
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import HardTimeoutError, WorkerCrashError
from ..resources.checkpointing import SweepJournal
from ..resources.governor import GOVERNOR
from .retry import DEFAULT_RETRY_POLICY, InstanceAttempts, RetryPolicy

log = logging.getLogger("repro.parallel")

#: Default multiple of the cooperative deadline after which a
#: non-cooperative task is hard-killed.
DEFAULT_GRACE_FACTOR = 4.0

#: Floor for the hard cap, so tiny deadlines do not turn scheduling
#: latency into spurious kills.
MIN_HARD_TIMEOUT_S = 0.05


@dataclass
class _Unit:
    """One schedulable work unit: a list of tracked instances."""

    tracked: List[InstanceAttempts]
    not_before: float = 0.0
    #: Run with nothing else in flight (a rerun after a shared crash).
    alone: bool = False

    def chunk(self) -> List[Tuple[str, Any]]:
        return [(t.key, t.spec) for t in self.tracked]

    def keys(self) -> List[str]:
        return [t.key for t in self.tracked]


@dataclass
class SupervisorResult:
    """What one supervised parallel phase produced."""

    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    leftover: List[Tuple[str, Any]] = field(default_factory=list)
    retries: int = 0
    quarantined: int = 0
    hard_kills: int = 0
    pool_rebuilds: int = 0
    worker_crashes: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)


class SweepSupervisor:
    """Supervise one parallel sweep phase over a process pool.

    Parameters
    ----------
    task:
        The picklable per-instance task (same contract as
        :func:`repro.parallel.run_sweep`).
    workers:
        Pool size; also the submission window.
    deadline_s / budget:
        Per-instance governor limits re-installed inside the workers.
    journal:
        Optional journal; every completion (including quarantine
        verdicts) is recorded the moment it lands.
    retry_policy:
        The per-instance :class:`~repro.parallel.retry.RetryPolicy`.
    grace_factor:
        Hard-kill multiplier: a task is SIGKILLed after
        ``deadline_s * grace_factor`` wall-clock seconds.  Ignored when
        no deadline and no ``hard_timeout_s`` are configured (the
        watchdog is then off).
    hard_timeout_s:
        Explicit per-instance hard cap overriding the factor.
    pool_rebuild_limit:
        Consecutive pool breaks that neither complete a record nor
        charge any instance an attempt before the supervisor gives up
        and degrades to serial.
    tick:
        Optional zero-argument callable invoked once per supervision
        loop iteration — the sharded runtime's lease heartbeat.  If the
        callable exposes an ``interval_s`` attribute, the supervisor
        caps its future-wait timeout at half that interval so the tick
        is never starved by a long quiet stretch.  An exception from
        ``tick`` (a :class:`~repro.exceptions.LeaseLostError`) aborts
        the phase; the pool is torn down on the way out.
    """

    def __init__(
        self,
        task: Callable[[Any], Any],
        *,
        workers: int,
        deadline_s: Optional[float] = None,
        budget: Optional[int] = None,
        journal: Optional[SweepJournal] = None,
        retry_policy: Optional[RetryPolicy] = None,
        grace_factor: float = DEFAULT_GRACE_FACTOR,
        hard_timeout_s: Optional[float] = None,
        pool_rebuild_limit: int = 5,
        tick: Optional[Callable[[], None]] = None,
    ) -> None:
        self.task = task
        self.workers = max(1, workers)
        self.deadline_s = deadline_s
        self.budget = budget
        self.journal = journal
        self.policy = retry_policy or DEFAULT_RETRY_POLICY
        if hard_timeout_s is None and deadline_s is not None:
            hard_timeout_s = max(deadline_s * grace_factor, MIN_HARD_TIMEOUT_S)
        self.hard_timeout_s = hard_timeout_s
        self.pool_rebuild_limit = pool_rebuild_limit
        self.tick = tick
        self._pool = None
        self._blamed: set = set()
        self._kill_in_progress = False
        self._fruitless_breaks = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _make_pool(self):
        # Import at call time so tests can monkeypatch the executor
        # class on the concurrent.futures module.
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.workers)

    def _teardown_pool(self, wait: bool = True) -> None:
        if self._pool is None:
            return
        try:
            self._pool.shutdown(wait=wait)
        except Exception:  # pragma: no cover - teardown is best-effort
            pass
        self._pool = None

    def _hard_kill_pool(self) -> None:
        """SIGKILL every pool worker (the watchdog's hammer)."""
        pool = self._pool
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already dead
                pass

    def _is_pool_break(self, error: BaseException) -> bool:
        from concurrent.futures.process import BrokenProcessPool

        return isinstance(error, BrokenProcessPool)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, pending: Sequence[Tuple[str, Any]],
            chunksize: int = 1) -> SupervisorResult:
        """Run ``pending`` instances to completion (or quarantine).

        Returns the per-key records plus any ``leftover`` instances the
        pool could not serve (the caller runs those serially).
        """
        from concurrent.futures import FIRST_COMPLETED, wait

        result = SupervisorResult()
        tracked = [InstanceAttempts(key, spec) for key, spec in pending]
        ready: deque = deque(
            _Unit(tracked[i:i + chunksize])
            for i in range(0, len(tracked), chunksize)
        )
        waiting: List[_Unit] = []
        in_flight: Dict[Any, Tuple[_Unit, float]] = {}
        self._fruitless_breaks = 0

        try:
            self._pool = self._make_pool()
        except Exception as err:  # pool cannot even be created
            log.warning(
                "process pool unavailable (%s: %s); degrading %d "
                "instances to the serial path",
                type(err).__name__, err, len(tracked),
            )
            result.leftover = [(t.key, t.spec) for t in tracked]
            return result

        try:
            while ready or waiting or in_flight:
                if self.tick is not None:
                    self.tick()
                now = time.monotonic()
                still_waiting = []
                for unit in waiting:
                    if unit.not_before <= now:
                        ready.append(unit)
                    else:
                        still_waiting.append(unit)
                waiting = still_waiting

                # Fill the submission window (<= workers outstanding).
                broke = None
                while ready and len(in_flight) < self.workers:
                    if in_flight and (ready[0].alone or any(
                        u.alone for u, _ in in_flight.values()
                    )):
                        break
                    unit = ready.popleft()
                    try:
                        future = self._pool.submit(
                            _run_chunk_entry, self.task, unit.chunk(),
                            self.deadline_s, self.budget,
                        )
                    except Exception as err:
                        # submit() only fails on pool-state trouble
                        # (broken/shut-down executor), never on a bad
                        # instance: infrastructure path.
                        ready.appendleft(unit)
                        broke = err
                        break
                    in_flight[future] = (unit, time.monotonic())

                if broke is not None:
                    victims = []
                    for future, flight in in_flight.items():
                        # Salvage futures that finished before the break
                        # instead of recomputing them with a charge.
                        if future.done() and future.exception() is None:
                            self._absorb_records(
                                future.result(), flight[0], ready,
                                waiting, result,
                            )
                        else:
                            victims.append(flight)
                    in_flight.clear()
                    if not self._recover_pool(
                        broke, victims, ready, waiting, result,
                    ):
                        result.leftover = self._drain(ready, waiting)
                        return result
                    continue

                if not in_flight:
                    if waiting:
                        pause = min(u.not_before for u in waiting) - now
                        if pause > 0:
                            cap = 1.0
                            tick_interval = getattr(
                                self.tick, "interval_s", None
                            )
                            if tick_interval:
                                cap = min(cap, float(tick_interval) / 2.0)
                            time.sleep(min(pause, cap))
                    continue

                done, _ = wait(
                    set(in_flight),
                    timeout=self._wait_timeout(in_flight, waiting),
                    return_when=FIRST_COMPLETED,
                )

                crashed: List[Tuple[_Unit, float]] = []
                degrade = None
                for future in done:
                    unit, started = in_flight.pop(future)
                    error = future.exception()
                    if error is None:
                        self._fruitless_breaks = 0
                        self._absorb_records(
                            future.result(), unit, ready, waiting, result
                        )
                    elif self._is_pool_break(error):
                        broke = error
                        crashed.append((unit, started))
                    else:
                        # Non-break executor error (e.g. the task fails
                        # to pickle): the pool is healthy but unusable
                        # for this workload — degrade to serial.
                        degrade = error
                        ready.appendleft(unit)

                if degrade is not None:
                    log.warning(
                        "pool cannot execute this task (%s: %s); "
                        "degrading to the serial path",
                        type(degrade).__name__, degrade,
                    )
                    for unit, _ in crashed:
                        ready.append(unit)
                    for unit, _ in in_flight.values():
                        ready.append(unit)
                    in_flight.clear()
                    result.leftover = self._drain(ready, waiting)
                    return result

                if broke is not None:
                    # Every other in-flight future is doomed with the
                    # same broken pool; fold them into the victim set.
                    result.worker_crashes += 1
                    victims = crashed + list(in_flight.values())
                    in_flight.clear()
                    if not self._recover_pool(
                        broke, victims, ready, waiting, result,
                    ):
                        result.leftover = self._drain(ready, waiting)
                        return result
                    continue

                self._watchdog(in_flight, result)
        finally:
            self._teardown_pool()
        return result

    # ------------------------------------------------------------------
    # Absorbing completed work
    # ------------------------------------------------------------------
    def _absorb_records(
        self,
        records: List[Tuple[str, Dict[str, Any]]],
        unit: _Unit,
        ready: deque,
        waiting: List[_Unit],
        result: SupervisorResult,
    ) -> None:
        by_key = {t.key: t for t in unit.tracked}
        for key, record in records:
            tracked = by_key.get(key)
            status = record.get("status")
            if tracked is not None and status == "error":
                kind = str(record.get("error"))
                if self.policy.is_retryable(kind):
                    # A policy may opt specific in-task exceptions into
                    # retry (flaky I/O, say); infra faults never land
                    # here.
                    tracked.register_fault(
                        kind,
                        str(record.get("detail", "")),
                        record.get("traceback"),
                    )
                    if self.policy.should_retry(tracked.attempts, kind):
                        self._retry(tracked, ready, waiting, result)
                        continue
                log.info(
                    "instance %s raised %s; recorded and continuing",
                    key, kind,
                )
            self._record(key, record, result)

    def _record(self, key: str, record: Dict[str, Any],
                result: SupervisorResult) -> None:
        if self.journal is not None:
            self.journal.record(key, record)
        result.completed[key] = record

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _recover_pool(
        self,
        error: Optional[BaseException],
        victims: List[Tuple[_Unit, float]],
        ready: deque,
        waiting: List[_Unit],
        result: SupervisorResult,
    ) -> bool:
        """Handle a broken pool: blame, reschedule, rebuild.

        Returns ``False`` when the pool cannot be rebuilt (or keeps
        breaking without progress) and the caller should degrade to the
        serial path.  A break that charges some instance an attempt is
        progress: attempts are bounded, so such breaks cannot repeat
        forever.  Only breaks that charge nobody (a shared crash, a
        failed submit) count towards ``pool_rebuild_limit``.
        """
        killed = self._kill_in_progress
        self._kill_in_progress = False
        victim_keys = [k for unit, _ in victims for k in unit.keys()]
        if victims:
            log.warning(
                "process pool broke (%s)%s; rescheduling %d in-flight "
                "instance(s): %s",
                type(error).__name__ if error else "unknown",
                " after a watchdog hard-kill" if killed else "",
                len(victim_keys), victim_keys,
            )
        shared = not killed and len(victim_keys) > 1
        reruns: List[_Unit] = []
        charged_any = False
        now = time.monotonic()
        for unit, started in victims:
            elapsed = now - started
            for tracked in unit.tracked:
                if id(tracked) in self._blamed:
                    charged = True  # watchdog already registered a fault
                elif killed:
                    charged = False  # innocent bystander of our kill
                elif shared:
                    reruns.append(_Unit([tracked], alone=True))
                    continue
                else:
                    crash = WorkerCrashError(keys=unit.keys())
                    tracked.register_fault(
                        "WorkerCrashError", str(crash), None
                    )
                    charged = True
                charged_any = charged_any or charged
                if not charged:
                    self._schedule(tracked, ready, waiting, delay=0.0)
                elif self.policy.should_retry(
                    tracked.attempts, tracked.last_kind or ""
                ):
                    self._retry(tracked, ready, waiting, result)
                else:
                    self._quarantine(tracked, result, elapsed)
        self._blamed.clear()
        # Shared-crash reruns go first, one at a time.
        ready.extendleft(reversed(reruns))
        result.retries += len(reruns)
        GOVERNOR.retries += len(reruns)

        self._fruitless_breaks = 0 if charged_any else (
            self._fruitless_breaks + 1
        )

        # A broken pool's survivors can deliver nothing, and the
        # executor's broken-pool path SIGTERMs them and then joins them
        # without a timeout.  A worker that outlives SIGTERM (the CLI
        # routes SIGTERM to KeyboardInterrupt, and forked workers
        # inherit that) while blocked in a task or on the result
        # queue's lock would hold the join, and the sweep, forever.
        self._hard_kill_pool()
        self._teardown_pool()
        if self._fruitless_breaks > self.pool_rebuild_limit:
            log.warning(
                "pool broke %d times without progress; degrading to "
                "the serial path", self._fruitless_breaks,
            )
            return False
        try:
            self._pool = self._make_pool()
        except Exception as err:
            log.warning(
                "pool rebuild failed (%s: %s); degrading to the serial "
                "path", type(err).__name__, err,
            )
            return False
        result.pool_rebuilds += 1
        GOVERNOR.pool_rebuilds += 1
        result.events.append({
            "event": "pool-rebuild",
            "cause": type(error).__name__ if error else "unknown",
            "hard_kill": killed,
            "in_flight": victim_keys,
        })
        return True

    def _schedule(self, tracked: InstanceAttempts, ready: deque,
                  waiting: List[_Unit], delay: float) -> None:
        unit = _Unit([tracked], not_before=time.monotonic() + delay)
        if delay > 0:
            waiting.append(unit)
        else:
            ready.append(unit)

    def _retry(self, tracked: InstanceAttempts, ready: deque,
               waiting: List[_Unit], result: SupervisorResult) -> None:
        result.retries += 1
        GOVERNOR.retries += 1
        delay = self.policy.delay(tracked.attempts, tracked.key)
        log.info(
            "retrying instance %s (attempt %d/%d) after %.3fs backoff",
            tracked.key, tracked.attempts + 1,
            self.policy.max_attempts, delay,
        )
        self._schedule(tracked, ready, waiting, delay)

    def _quarantine(self, tracked: InstanceAttempts,
                    result: SupervisorResult, elapsed_s: float) -> None:
        record = tracked.quarantine_record(elapsed_s=elapsed_s)
        log.warning(
            "instance %s quarantined after %d attempt(s): %s",
            tracked.key, tracked.attempts, tracked.last_kind,
        )
        result.quarantined += 1
        GOVERNOR.quarantines += 1
        result.events.append({
            "event": "quarantine",
            "key": tracked.key,
            "attempts": tracked.attempts,
            "error": tracked.last_kind,
            "detail": tracked.last_detail,
        })
        self._record(tracked.key, record, result)

    # ------------------------------------------------------------------
    # The watchdog
    # ------------------------------------------------------------------
    def _unit_hard_cap(self, unit: _Unit) -> Optional[float]:
        if self.hard_timeout_s is None:
            return None
        return self.hard_timeout_s * max(1, len(unit.tracked))

    def _wait_timeout(
        self,
        in_flight: Dict[Any, Tuple[_Unit, float]],
        waiting: List[_Unit],
    ) -> Optional[float]:
        """How long ``wait()`` may block before the supervisor must
        look around (watchdog deadline or a backoff expiry)."""
        now = time.monotonic()
        candidates: List[float] = []
        for unit, started in in_flight.values():
            cap = self._unit_hard_cap(unit)
            if cap is not None:
                candidates.append(started + cap - now)
        for unit in waiting:
            candidates.append(unit.not_before - now)
        tick_interval = getattr(self.tick, "interval_s", None)
        if tick_interval:
            candidates.append(float(tick_interval) / 2.0)
        if not candidates:
            return None
        return max(0.0, min(candidates)) + 0.005

    def _watchdog(
        self,
        in_flight: Dict[Any, Tuple[_Unit, float]],
        result: SupervisorResult,
    ) -> None:
        """Hard-kill the pool if any in-flight task overran its cap."""
        now = time.monotonic()
        overdue: List[Tuple[_Unit, float]] = []
        for unit, started in in_flight.values():
            cap = self._unit_hard_cap(unit)
            if cap is not None and now - started > cap:
                overdue.append((unit, now - started))
        if not overdue:
            return
        for unit, elapsed in overdue:
            cap = self._unit_hard_cap(unit)
            log.warning(
                "hard-killing workers: instance(s) %s exceeded the "
                "hard wall-clock cap of %.3fs (ran %.3fs)",
                unit.keys(), cap, elapsed,
            )
            for tracked in unit.tracked:
                timeout_err = HardTimeoutError(
                    hard_timeout_s=cap, elapsed_s=elapsed,
                )
                tracked.register_fault(
                    "HardTimeoutError", str(timeout_err), None
                )
                self._blamed.add(id(tracked))
            result.events.append({
                "event": "hard-kill",
                "keys": unit.keys(),
                "elapsed_s": elapsed,
                "hard_timeout_s": cap,
            })
        result.hard_kills += 1
        GOVERNOR.hard_kills += 1
        self._kill_in_progress = True
        self._hard_kill_pool()
        # The dead workers surface as a BrokenProcessPool on the
        # in-flight futures; _recover_pool finishes the job.

    # ------------------------------------------------------------------
    @staticmethod
    def _drain(ready: deque, waiting: List[_Unit]) -> List[Tuple[str, Any]]:
        """Collect every not-yet-completed instance for serial fallback."""
        leftover: List[Tuple[str, Any]] = []
        for unit in ready:
            leftover.extend(unit.chunk())
        for unit in waiting:
            leftover.extend(unit.chunk())
        return leftover


def _run_chunk_entry(task, chunk, deadline_s, budget):
    """Worker entry point (kept top-level so it pickles by module path)."""
    from .executor import _run_chunk

    return _run_chunk(task, chunk, deadline_s, budget)
