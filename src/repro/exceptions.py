"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch one type to handle any library failure.  The subtypes distinguish
the broad failure modes: malformed inputs (:class:`ValidationError`),
well-formed inputs outside an algorithm's supported fragment
(:class:`UnsupportedFragmentError`), broken internal invariants surfacing
as errors instead of hangs (:class:`InvariantViolationError`), and the
resource governor tripping (:class:`ResourceError` and its subtypes).

Resource errors are *structured*: besides a human-readable message they
carry the ``site`` (a dotted label of the cooperative ``checkpoint()``
location that tripped) and a record of what was consumed, so callers —
and the trivalent :class:`~repro.resources.verdict.Verdict` built from
them — can report exactly why a decider gave up.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError):
    """An input object is malformed (wrong arity, unknown symbol, ...)."""


class UnknownInstanceError(ValidationError):
    """A name filter matched no registered instance.

    Raised by instance-selection surfaces (``repro sweep --only``,
    ``bench_p01 --only``) instead of silently running an empty
    selection or dumping a bare traceback.  Structured: carries what
    was asked for and the names that would have been accepted, so CLI
    layers can print an actionable message and exit nonzero.

    Attributes
    ----------
    requested:
        The filter string that matched nothing.
    valid:
        Sorted instance names that were available.
    """

    def __init__(self, requested: str, valid) -> None:
        self.requested = requested
        self.valid = sorted(valid)
        names = ", ".join(self.valid)
        super().__init__(
            f"unknown instance filter {requested!r}; "
            f"valid names: {names}"
        )


class UnsupportedFragmentError(ReproError):
    """A formula or query lies outside the fragment an algorithm supports.

    For example, asking for the canonical structure of a formula that is not
    existential-positive, or running the CQ^k machinery on a formula using
    more than ``k`` variables.
    """


class InvariantViolationError(ReproError):
    """An internal invariant failed (e.g. a retraction did not shrink).

    Raised where a silent bug would otherwise cause an infinite loop or a
    wrong answer; seeing this error means the library itself is at fault,
    not the input.
    """


class ResourceError(ReproError):
    """Base class for resource-governor trips (deadline, budget, cancel).

    Attributes
    ----------
    site:
        Dotted label of the cooperative checkpoint that tripped
        (``"hom.search"``, ``"treewidth.exact"``, ...), or ``None`` for
        legacy call sites.
    consumed:
        JSON-serializable record of resources consumed when the trip
        happened (checkpoints passed, budget units charged, elapsed
        seconds, ...).
    """

    def __init__(
        self,
        message: str,
        *,
        site: Optional[str] = None,
        consumed: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.site = site
        self.consumed: Dict[str, Any] = dict(consumed or {})


class BudgetExceededError(ResourceError):
    """An exhaustive search exceeded its configured size/step budget.

    Raised by exact algorithms (treewidth, minor search, Ramsey witnesses,
    pebble games, minimal-model enumeration) when the instance is larger
    than the configured limit, instead of silently running forever.

    Attributes
    ----------
    budget:
        The configured limit that was exceeded.
    spent:
        How much had been consumed when the trip happened (same unit as
        ``budget``); also mirrored under ``consumed["spent"]``.
    """

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        budget: Optional[int] = None,
        spent: Optional[int] = None,
        site: Optional[str] = None,
        consumed: Optional[Dict[str, Any]] = None,
    ) -> None:
        if message is None:
            message = (
                f"budget exceeded at {site or '<unknown site>'}: "
                f"spent {spent} of {budget}"
            )
        merged = dict(consumed or {})
        if spent is not None:
            merged.setdefault("spent", spent)
        if budget is not None:
            merged.setdefault("budget", budget)
        super().__init__(message, site=site, consumed=merged)
        self.budget = budget
        self.spent = spent


class DeadlineExceededError(ResourceError):
    """A decider ran past its cooperative wall-clock deadline.

    Attributes
    ----------
    deadline_s:
        The configured deadline in seconds.
    elapsed_s:
        Wall-clock seconds elapsed when the trip was noticed (always
        within one checkpoint interval of the deadline).
    """

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        deadline_s: Optional[float] = None,
        elapsed_s: Optional[float] = None,
        site: Optional[str] = None,
        consumed: Optional[Dict[str, Any]] = None,
    ) -> None:
        if message is None:
            message = (
                f"deadline of {deadline_s}s exceeded at "
                f"{site or '<unknown site>'} after {elapsed_s}s"
            )
        merged = dict(consumed or {})
        if deadline_s is not None:
            merged.setdefault("deadline_s", deadline_s)
        if elapsed_s is not None:
            merged.setdefault("elapsed_s", elapsed_s)
        super().__init__(message, site=site, consumed=merged)
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s


class OperationCancelledError(ResourceError):
    """A cooperative cancellation request was observed at a checkpoint.

    Raised inside the cancelled computation itself (e.g. when another
    thread called :meth:`repro.resources.RunContext.cancel`), never by
    the canceller.
    """

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        site: Optional[str] = None,
        consumed: Optional[Dict[str, Any]] = None,
    ) -> None:
        if message is None:
            message = f"operation cancelled at {site or '<unknown site>'}"
        super().__init__(message, site=site, consumed=consumed)


class WorkerCrashError(ResourceError):
    """A sweep worker process died without returning a result.

    Raised (and recorded) by the :class:`~repro.parallel.SweepSupervisor`
    in the *parent* when a pool worker is SIGKILLed, OOM-killed or
    exits abruptly mid-task; the cause cannot be observed from inside
    the dead worker, so this is an infrastructure fault, retryable by
    default.

    Attributes
    ----------
    keys:
        Instance keys that were in flight when the pool broke (the
        crasher is among them, but cannot be singled out).
    """

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        keys: Optional[list] = None,
        site: Optional[str] = None,
        consumed: Optional[Dict[str, Any]] = None,
    ) -> None:
        if message is None:
            message = (
                "worker process died mid-task "
                f"(in flight: {sorted(keys or [])})"
            )
        super().__init__(message, site=site, consumed=consumed)
        self.keys = list(keys or [])


class HardTimeoutError(ResourceError):
    """A task exceeded its hard wall-clock cap and its worker was killed.

    The cooperative deadline relies on the task reaching a
    ``checkpoint()`` site; a non-cooperative hang (C-extension loop,
    lost-wakeup sleep) never does.  The supervisor's watchdog SIGKILLs
    the pool once a task runs past ``deadline * grace_factor`` and
    records the overdue instance with this error.

    Attributes
    ----------
    hard_timeout_s:
        The enforced cap in seconds.
    elapsed_s:
        How long the task had been running when it was killed.
    """

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        hard_timeout_s: Optional[float] = None,
        elapsed_s: Optional[float] = None,
        site: Optional[str] = None,
        consumed: Optional[Dict[str, Any]] = None,
    ) -> None:
        if message is None:
            message = (
                f"task exceeded its hard wall-clock cap of "
                f"{hard_timeout_s}s after {elapsed_s}s; worker killed"
            )
        merged = dict(consumed or {})
        if hard_timeout_s is not None:
            merged.setdefault("hard_timeout_s", hard_timeout_s)
        if elapsed_s is not None:
            merged.setdefault("elapsed_s", elapsed_s)
        super().__init__(message, site=site, consumed=merged)
        self.hard_timeout_s = hard_timeout_s
        self.elapsed_s = elapsed_s


class LeaseError(ReproError):
    """Base class for shard-lease protocol failures.

    Raised by :mod:`repro.distributed.leases` when the on-disk lease
    state contradicts what an operation requires (claiming a held
    shard, renewing a lease that was stolen, releasing a lease the
    caller no longer owns).
    """


class LeaseLostError(LeaseError):
    """A runner's shard lease was stolen (or expired) out from under it.

    Raised by heartbeat renewal — threaded through the sweep loop as a
    cooperative checkpoint side effect — the moment the on-disk lease
    no longer carries this runner's owner id and fencing token.  The
    runner must stop writing to the shard journal immediately: any
    record it already wrote under the old fencing token is discarded by
    ``repro merge-journals`` (the thief's higher token wins), so a
    stale former owner cannot corrupt the merged result.

    Attributes
    ----------
    shard:
        The shard index whose lease was lost.
    owner:
        The runner id that held (and lost) the lease.
    fence:
        The fencing token the loser held.
    holder:
        The owner id found on disk (the thief), when readable.
    holder_fence:
        The fencing token found on disk, when readable.
    """

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        shard: Optional[int] = None,
        owner: Optional[str] = None,
        fence: Optional[int] = None,
        holder: Optional[str] = None,
        holder_fence: Optional[int] = None,
    ) -> None:
        if message is None:
            message = (
                f"lease on shard {shard} lost by {owner!r} "
                f"(fence {fence}); now held by {holder!r} "
                f"(fence {holder_fence})"
            )
        super().__init__(message)
        self.shard = shard
        self.owner = owner
        self.fence = fence
        self.holder = holder
        self.holder_fence = holder_fence


class ServeError(ReproError):
    """Base class for hom-decision-server (:mod:`repro.serve`) failures."""


class ServeProtocolError(ServeError):
    """A request/response frame violated the wire protocol.

    Raised server-side while decoding a frame (and turned into a
    structured ``error`` response rather than a crash), and client-side
    when the server answered with a structured error.

    Attributes
    ----------
    code:
        Stable machine-readable error code (``"bad-frame"``,
        ``"bad-request"``, ``"frame-too-large"``, ``"batch-too-large"``,
        ``"unknown-op"``, ...).
    """

    def __init__(self, message: str, *, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


class ServeOverloadedError(ServeError):
    """The server shed or refused a request under load (soft failure).

    Raised by the client after its retry policy gave up on repeated
    ``OVERLOADED`` responses.  Carries the server's last stated reason;
    an overloaded response is an *honest degraded answer*, not a bug —
    callers should back off and retry or degrade themselves.
    """

    def __init__(
        self, message: Optional[str] = None, *, reason: str = ""
    ) -> None:
        super().__init__(message or f"server overloaded: {reason}")
        self.reason = reason


class ServeConnectionError(ServeError):
    """The client could not reach (or lost) the server.

    Raised after the client's retry policy exhausted its reconnection
    attempts; carries the last underlying OS-level error message.
    """
