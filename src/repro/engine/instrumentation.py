"""Solver observability: counters and timers for the hom engine.

:class:`SolverStats` is a plain mutable record the search kernel
increments as it runs (it deliberately has no dependency on the rest of
the package so :mod:`repro.homomorphism.search` can receive one without
import cycles).  The engine aggregates one global instance per
:class:`~repro.engine.engine.HomEngine` and serializes it — together
with the cache's own counters — via :meth:`SolverStats.snapshot`,
which is what ``python -m repro stats`` prints as JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SolverStats:
    """Cumulative counters for homomorphism-engine activity.

    Attributes
    ----------
    calls:
        Engine queries answered (cached or solved).
    cache_hits / cache_misses:
        Memo-cache outcomes among those calls.
    solves:
        Actual searches run (= misses plus uncacheable queries).
    nodes:
        Assignments tried by the backtracking search.
    backtracks:
        Assignments undone (value rejected or subtree exhausted).
    ac3_prunings:
        Domain values removed by constraint propagation (the reference
        solver's AC-3 pass or the kernel's bitmask worklist pass).
    solve_time_s:
        Wall-clock seconds spent inside actual searches.
    core_iterations:
        Retraction steps performed by core computations.
    kernel_solves:
        Searches answered by the compiled bitset kernel (the remainder
        of ``solves`` ran the reference solver).
    kernel_compilations:
        Targets interned into bitmask form (compiled-target cache
        misses).
    kernel_compile_hits:
        Kernel solves that reused an already-compiled target.
    batch_calls:
        Batch sessions opened (one per shared-target solve batch).
    batch_queries:
        Individual queries answered through batch sessions.
    batch_dedup_hits:
        Batch queries answered from a session's own memo (identical
        source + options seen earlier in the same session).
    dp_solves:
        Solves routed to the treewidth-guided DP path (the remainder of
        ``kernel_solves`` ran the backtracking kernel).
    dp_bags:
        Decomposition nodes processed by DP solves.
    dp_entries:
        Partial-homomorphism table entries materialized by DP solves.
    """

    calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    solves: int = 0
    nodes: int = 0
    backtracks: int = 0
    ac3_prunings: int = 0
    solve_time_s: float = 0.0
    core_iterations: int = 0
    kernel_solves: int = 0
    kernel_compilations: int = 0
    kernel_compile_hits: int = 0
    batch_calls: int = 0
    batch_queries: int = 0
    batch_dedup_hits: int = 0
    dp_solves: int = 0
    dp_bags: int = 0
    dp_entries: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, type(getattr(self, name))())

    def hit_rate(self) -> float:
        """Cache hits / (hits + misses), ``0.0`` before any lookup."""
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy of the counters."""
        out: Dict[str, object] = {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }
        out["hit_rate"] = self.hit_rate()
        return out


@dataclass
class IncrementalStats:
    """Cumulative counters for the incremental engine
    (:mod:`repro.incremental`).

    One process-global instance (:data:`INCREMENTAL`) is shared by the
    edit API, the fine-grained invalidation paths and the warm-start
    sessions; the hom engine folds it into its snapshot so ``python -m
    repro stats`` reports incremental activity next to the solver
    counters.

    Attributes
    ----------
    fingerprint_delta_hits:
        Always 0: edits are fingerprinted from scratch.  The key stays
        so the ``stats`` key set does not change.
    fingerprint_full_recomputes:
        Edited structures fingerprinted (each from scratch, once, the
        first time its :class:`~repro.incremental.delta.EditRecord` is
        asked for the new fingerprint).
    fingerprint_dirty_elements:
        Always 0, kept like ``fingerprint_delta_hits``.
    incr_evictions:
        Memo/compiled entries evicted by fine-grained edit
        invalidation (only entries whose side actually changed).
    incr_kept:
        Memo entries *retained* across those invalidations — what the
        old clear-everything policy would have destroyed.
    warm_hits:
        Re-decisions answered by validating the previous witness (or
        by the FALSE-preserving hardening rule) without any search.
    warm_fallbacks:
        Re-decisions where the previous certificate broke and a full
        search ran.
    dred_applies:
        Datalog deltas absorbed incrementally (DRed overdelete /
        rederive plus semi-naive addition propagation).
    dred_overdeleted / dred_rederived:
        IDB tuples overdeleted and rederived across those applies.
    dred_full_recomputes:
        Datalog deltas whose maintenance a governor trip interrupted;
        the fixpoint state is dropped and recomputed from scratch on
        the next read.
    """

    fingerprint_delta_hits: int = 0
    fingerprint_full_recomputes: int = 0
    fingerprint_dirty_elements: int = 0
    incr_evictions: int = 0
    incr_kept: int = 0
    warm_hits: int = 0
    warm_fallbacks: int = 0
    dred_applies: int = 0
    dred_overdeleted: int = 0
    dred_rederived: int = 0
    dred_full_recomputes: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy of the counters."""
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }


#: The process-global incremental-engine counters.
INCREMENTAL = IncrementalStats()


@dataclass
class ServeStats:
    """Cumulative counters for the hom-decision server
    (:mod:`repro.serve`).

    One process-global instance (:data:`SERVE`) is shared by every
    :class:`~repro.serve.server.ReproServer` in the process; the hom
    engine folds it into its snapshot so ``python -m repro stats``
    reports serving activity (and ``repro stats --reset`` zeroes it)
    next to the solver counters.

    Attributes
    ----------
    connections:
        Client connections accepted.
    frames:
        Request frames successfully decoded.
    malformed_frames:
        Frames rejected by the decoder (bad UTF-8, bad JSON, wrong
        shape) and answered with a structured error.
    oversized_frames:
        Frames over the size cap (the connection is closed after the
        structured error — the stream is desynchronized).
    requests:
        Decision requests received (one frame may carry a batch).
    accepted:
        Requests admitted to the compute queue.
    rejected:
        Requests rejected *before* compute because the queue's
        projected wait already exceeded their deadline.
    shed:
        Requests evicted from the queue under overload
        (oldest-deadline-first) or expired while queued.
    overloaded:
        ``OVERLOADED`` soft-failure responses sent (rejected + shed +
        drain refusals).
    completed:
        Requests answered with computed results.
    unknown_results:
        Individual query results downgraded to UNKNOWN (governor trips,
        drain cancellations).
    error_responses:
        Structured error responses sent (malformed payloads, unknown
        ops, validation failures).
    client_gone:
        Responses dropped because the client had disconnected.
    idle_closes:
        Connections closed by the server's idle timeout.
    breaker_trips:
        Circuit-breaker transitions to OPEN after repeated kernel
        faults.
    breaker_probes:
        Half-open probe solves sent to the kernel during cooldown.
    breaker_fallback_solves:
        Decisions answered by the reference solver while the breaker
        was open (or after a fault mid-solve).
    drains:
        Graceful drains begun (SIGTERM/SIGINT or programmatic).
    drained_unknowns:
        In-flight/queued requests UNKNOWN-ed or refused during drain.
    """

    connections: int = 0
    frames: int = 0
    malformed_frames: int = 0
    oversized_frames: int = 0
    requests: int = 0
    accepted: int = 0
    rejected: int = 0
    shed: int = 0
    overloaded: int = 0
    completed: int = 0
    unknown_results: int = 0
    error_responses: int = 0
    client_gone: int = 0
    idle_closes: int = 0
    breaker_trips: int = 0
    breaker_probes: int = 0
    breaker_fallback_solves: int = 0
    drains: int = 0
    drained_unknowns: int = 0

    #: Ring buffer of recent request service latencies in milliseconds
    #: (admission-to-response); sized so p99 stays meaningful without
    #: unbounded growth.
    LATENCY_WINDOW = 8192

    def __post_init__(self) -> None:
        self._latencies_ms: list = []

    def record_latency(self, latency_ms: float) -> None:
        """Record one request's service latency (admission→response)."""
        window = self._latencies_ms
        window.append(float(latency_ms))
        if len(window) > self.LATENCY_WINDOW:
            del window[: len(window) - self.LATENCY_WINDOW]

    def latency_percentile(self, fraction: float) -> float:
        """The ``fraction`` (0..1) latency percentile over the window,
        in milliseconds (``0.0`` before any request completed)."""
        window = sorted(self._latencies_ms)
        if not window:
            return 0.0
        index = min(int(fraction * len(window)), len(window) - 1)
        return window[index]

    def reset(self) -> None:
        """Zero every counter and drop the latency window."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)
        self._latencies_ms = []

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy of the counters plus p50/p99."""
        out: Dict[str, object] = {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }
        out["latency_p50_ms"] = self.latency_percentile(0.50)
        out["latency_p99_ms"] = self.latency_percentile(0.99)
        out["latency_samples"] = len(self._latencies_ms)
        return out


#: The process-global hom-decision-server counters.
SERVE = ServeStats()


# The governor counters live in repro.resources.governor (the governance
# layer is lower in the import graph than the engine); they are
# re-exported here because this module is the package's observability
# surface and ``repro stats`` reports both families of counters.
from ..resources.governor import (  # noqa: E402,F401
    DISTRIBUTED,
    GOVERNOR,
    DistributedStats,
    GovernorStats,
)


@dataclass
class Timer:
    """Context manager accumulating elapsed wall-clock time in seconds."""

    elapsed_s: float = 0.0
    _started: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s += time.perf_counter() - self._started
