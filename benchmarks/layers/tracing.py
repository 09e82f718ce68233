"""Outside-in span tracing: timing wrappers patched onto layer functions.

Traced runs patch a wrapper onto each layer's public function (the
``PATCHES`` table).  A wrapper records one span per call: name, start,
end, parent span and op id, kept in memory and written out when the
workload ends.  Spans nest per thread, so a span's *self time* is its
duration minus the time its direct child spans cover.  A call into a
layer from inside the same layer (``Structure.__init__`` under
``structure_from_dict``, a full WL recompute under the incremental
fingerprint) extends the open span instead of opening a new one.

Names bound at import time are patched where they are looked up: the
server calls ``encode_frame`` through ``repro.serve.server``, the
service decodes through ``repro.serve.protocol.structure_from_dict``,
and warm sessions apply edits through ``repro.incremental.warm``.

End-to-end numbers never come from a traced run; the traced/untraced
``ops_per_s`` ratio is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) — every wrapper a traced run
#: installs.  The span names are the layer names the metrics use.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("structures", "repro.structures.io", "structure_from_dict"),
    ("structures", "repro.serve.protocol", "structure_from_dict"),
    ("structures", "repro.parallel.sweeps", "build_structure"),
    ("structures", "repro.structures.structure", "Structure.__init__"),
    ("fingerprint", "repro.engine.fingerprint", "structure_fingerprint"),
    ("fingerprint", "repro.incremental.fingerprint",
     "fingerprint_with_history"),
    ("fingerprint", "repro.incremental.delta", "incremental_fingerprint"),
    ("memo", "repro.engine.cache", "HomCache.get"),
    ("memo", "repro.engine.cache", "HomCache.put"),
    ("compile", "repro.kernel.compile", "CompiledTargetCache.get"),
    ("plan", "repro.kernel.dp", "plan_dp"),
    ("solve", "repro.kernel.solver", "BitsetHomomorphismSolver.__init__"),
    ("solve", "repro.kernel.solver", "BitsetHomomorphismSolver.first"),
    ("solve", "repro.kernel.batch", "BatchSolveSession.solve"),
    ("solve", "repro.homomorphism.search", "HomomorphismSearch.__init__"),
    ("solve", "repro.homomorphism.search", "HomomorphismSearch.first"),
    ("dp_solve", "repro.kernel.dp", "TreewidthDPSolver.__init__"),
    ("dp_solve", "repro.kernel.dp", "TreewidthDPSolver.first"),
    ("protocol", "repro.serve.server", "decode_frame"),
    ("protocol", "repro.serve.server", "parse_request"),
    ("protocol", "repro.serve.server", "encode_frame"),
    ("service", "repro.serve.service", "DecisionService.execute"),
    ("journal", "repro.resources.checkpointing", "SweepJournal.record"),
    ("delta.apply", "repro.incremental.warm", "apply_delta"),
    ("invalidate", "repro.engine.engine", "HomEngine.invalidate_edit"),
    ("warm", "repro.incremental.warm", "is_homomorphism"),
)

#: The compile wrapper reads the cache's hit counter around the call.
_COMPILE = "repro.kernel.compile.CompiledTargetCache.get"

#: Span records kept in the trace file (the summary covers every span).
SPAN_SAMPLE = 200

#: Unit of every per-layer metric :func:`layer_metrics` reports.
UNITS: Dict[str, str] = {
    "op.ms": "ms", "structures.decode_ms": "ms", "fingerprint.ms": "ms",
    "fingerprint.calls": "count", "fingerprint.share": "ratio",
    "memo.lookup_ms": "ms", "memo.hit_ratio": "ratio", "compile.ms": "ms",
    "compile.hit_ratio": "ratio", "plan.ms": "ms",
    "plan.accept_ratio": "ratio", "solve.ms": "ms", "dp_solve.ms": "ms",
    "solve.nodes": "count", "solve.backtracks": "count",
    "protocol.ms": "ms", "serve.compute_ms": "ms",
    "serve.outside_compute_ms": "ms", "service.execute_ms": "ms",
    "sweep.dispatch_overhead_ms": "ms", "sweep.retries": "count",
    "sweep.pool_rebuilds": "count", "journal.record_ms": "ms",
    "delta.apply_ms": "ms", "invalidate.ms": "ms",
    "warm.revalidate_ms": "ms", "redecide.ms": "ms",
    "warm.hit_ratio": "ratio", "incr.evictions": "count",
    "unattributed.ms": "ms",
}


class Tracer:
    """In-memory span recorder; inactive until :meth:`start`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Tuple[str, int, int, int, int, int]] = []
        self.calls: Dict[str, int] = {}
        self.outcomes: Dict[str, int] = {}
        self._seq = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._classifiers: Dict[str, Callable[[tuple, Any, Any], str]] = {}

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> Optional[list]:
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return None
        parent = stack[-1] if stack else None
        # [name, span id, ns covered by children, parent id, op id, start]
        frame = [name, next(self._seq), 0,
                 parent[1] if parent else 0,
                 parent[4] if parent else 0,
                 time.perf_counter_ns()]
        if name == "op":
            frame[4] = frame[1]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame[5]
        if stack:
            stack[-1][2] += duration
        self.spans.append(
            (frame[0], frame[5], end, frame[3], frame[4], duration - frame[2])
        )

    def op(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as one benchmark op (the root span of its layers)."""
        if not self.active:
            return fn()
        frame = self._enter("op")
        try:
            return fn()
        finally:
            self._exit(frame)

    def wrap(self, name: str, target: str, fn: Callable) -> Callable:
        tracer = self
        classify = self._classifiers.get(target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = args[0].hits if target == _COMPILE else None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if frame is not None:
                    tracer._exit(frame)
            outcome = classify(args, result, before) if classify else None
            with tracer._lock:
                tracer.calls[target] = tracer.calls.get(target, 0) + 1
                if outcome is not None:
                    tracer.outcomes[outcome] = (
                        tracer.outcomes.get(outcome, 0) + 1
                    )
            return result

        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> "Tracer":
        """Patch every wrapper in :data:`PATCHES` (process-wide)."""
        from repro.engine.cache import MISS

        self._classifiers = {
            "repro.engine.cache.HomCache.get":
                lambda args, result, before:
                    "memo.miss" if result is MISS else "memo.hit",
            _COMPILE:
                lambda args, result, before:
                    "compile.hit" if args[0].hits > before
                    else "compile.miss",
            "repro.kernel.dp.plan_dp":
                lambda args, result, before:
                    "plan.reject" if result is None else "plan.accept",
        }
        for name, module_name, attr in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            target = f"{module_name}.{attr}"
            setattr(owner, leaf, self.wrap(name, target, getattr(owner, leaf)))
        return self

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- summaries ------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, self and inclusive milliseconds."""
        out: Dict[str, Dict[str, float]] = {}
        for name, start, end, _parent, _op, self_ns in self.spans:
            row = out.setdefault(
                name, {"spans": 0, "self_ms": 0.0, "total_ms": 0.0}
            )
            row["spans"] += 1
            row["self_ms"] += self_ns / 1e6
            row["total_ms"] += (end - start) / 1e6
        return out

    def sample(self) -> List[Dict[str, Any]]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o,
             "self_ns": x}
            for n, s, e, p, o, x in self.spans[:SPAN_SAMPLE]
        ]


def ratio(outcomes: Dict[str, int], good: str, bad: str) -> Optional[float]:
    total = outcomes.get(good, 0) + outcomes.get(bad, 0)
    return outcomes.get(good, 0) / total if total else None


def layer_metrics(
    tracer: Tracer,
    ops: int,
    op_ms: float,
    extra: Dict[str, Optional[float]],
    outside_ms: float = 0.0,
    unsummed: Tuple[str, ...] = (),
) -> Dict[str, Optional[float]]:
    """The per-layer metrics of one traced workload, as per-op means.

    ``op_ms`` is the mean op time the layers decompose; ``outside_ms``
    is time the op spends outside every span (serve queue wait, wire
    and codec); spans named in ``unsummed`` lie outside ``op_ms``'s
    interval or inside ``outside_ms`` and are reported but not summed.
    ``extra`` carries workload-specific counters (solver nodes, sweep
    and incremental counters).  A ratio with no attempts is ``None``.
    """
    totals = tracer.totals()

    def self_ms(name: str) -> float:
        return totals.get(name, {}).get("self_ms", 0.0) / ops

    def total_ms(name: str) -> float:
        return totals.get(name, {}).get("total_ms", 0.0) / ops

    attributed = outside_ms + sum(
        row["self_ms"] for name, row in totals.items()
        if name != "op" and name not in unsummed
    ) / ops
    out: Dict[str, Optional[float]] = {
        "op.ms": op_ms,
        "structures.decode_ms": self_ms("structures"),
        "fingerprint.ms": self_ms("fingerprint"),
        "fingerprint.calls": totals.get("fingerprint", {}).get("spans", 0)
        / ops,
        "fingerprint.share": self_ms("fingerprint") / op_ms if op_ms else None,
        "memo.lookup_ms": self_ms("memo"),
        "memo.hit_ratio": ratio(tracer.outcomes, "memo.hit", "memo.miss"),
        "compile.ms": self_ms("compile"),
        "compile.hit_ratio": ratio(
            tracer.outcomes, "compile.hit", "compile.miss"
        ),
        "plan.ms": self_ms("plan"),
        "plan.accept_ratio": ratio(
            tracer.outcomes, "plan.accept", "plan.reject"
        ),
        "solve.ms": self_ms("solve"),
        "dp_solve.ms": self_ms("dp_solve"),
        "protocol.ms": self_ms("protocol"),
        "service.execute_ms": self_ms("service"),
        "journal.record_ms": self_ms("journal"),
        "delta.apply_ms": self_ms("delta.apply"),
        "invalidate.ms": self_ms("invalidate"),
        "warm.revalidate_ms": self_ms("warm"),
    }
    if "delta.apply" in totals:
        out["redecide.ms"] = (
            op_ms - total_ms("delta.apply") - total_ms("invalidate")
        )
    out.update(extra)
    out["unattributed.ms"] = op_ms - attributed
    return out
