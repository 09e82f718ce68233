"""One workload of the layered benchmark, run in a fresh process.

    python3 benchmarks/layers/workload.py --workload hom-cold --seed 1 \\
        --seconds 15 [--trace 1] [--scale 0.1] [--setup-only]

``run.py`` spawns this script once per run (so no cache, pool or
server survives from one workload into the next) and talks to it over
stdout: the script prints ``READY`` once it is set up — imports done,
engine or pool constructed, lazy imports finished, the server's ready
line read — and, after the timed phase and the answer checks, one JSON
line with the measurements.  ``--setup-only`` stops after ``READY``;
``run.py`` uses it to time set-up several times per run.

Inputs come from :mod:`families` and the seed alone.  The timed phase
touches only public entry points: ``HomEngine``, ``repro serve`` over
TCP, ``run_sweep`` and ``IncrementalHomSession``.  Input generation,
warm-up and every answer check run outside it.

The timed phase repeats *rounds* of identical work until ``--seconds``
have passed and at least :data:`MIN_OPS` ops are done.  ``p50_ms`` and
``p99_ms`` are taken over every timed op, ``ops_per_s`` is ops ÷ the
time the caller was busy with them; on ``serve-mixed`` it is the
server's capacity (closed loop), not the offered rate.  Times are
scaled to the reference machine speed (:mod:`speed`) of the vCPUs doing
the work, sampled between ops; the unscaled figures are reported under
``raw``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import families  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

perf = time.perf_counter

#: Patched functions each workload must reach in a traced run; a
#: wrapper that records nothing means a layer moved or a name is bound
#: somewhere the patch does not reach.
EXPECTED_SPANS: Dict[str, Tuple[str, ...]] = {
    "hom-cold": (
        "repro.structures.io.structure_from_dict",
        "repro.structures.structure.Structure.__init__",
        "repro.engine.fingerprint.structure_fingerprint",
        "repro.engine.cache.HomCache.get",
        "repro.engine.cache.HomCache.put",
        "repro.kernel.compile.CompiledTargetCache.get",
        "repro.kernel.dp.plan_dp",
        "repro.kernel.solver.BitsetHomomorphismSolver.__init__",
        "repro.kernel.solver.BitsetHomomorphismSolver.first",
        "repro.kernel.dp.TreewidthDPSolver.first",
    ),
    "hom-warm": (
        "repro.structures.io.structure_from_dict",
        "repro.engine.fingerprint.structure_fingerprint",
        "repro.engine.cache.HomCache.get",
    ),
    "serve-mixed": (
        "repro.serve.server.decode_frame",
        "repro.serve.server.parse_request",
        "repro.serve.server.encode_frame",
        "repro.serve.service.DecisionService.execute",
        "repro.serve.protocol.structure_from_dict",
        "repro.engine.fingerprint.structure_fingerprint",
        "repro.engine.cache.HomCache.get",
        "repro.kernel.compile.CompiledTargetCache.get",
        "repro.kernel.dp.plan_dp",
        "repro.kernel.solver.BitsetHomomorphismSolver.first",
    ),
    "sweep-hom": (
        "repro.parallel.sweeps.build_structure",
        "repro.engine.fingerprint.structure_fingerprint",
        "repro.engine.cache.HomCache.get",
        "repro.kernel.compile.CompiledTargetCache.get",
        "repro.kernel.dp.plan_dp",
        "repro.kernel.solver.BitsetHomomorphismSolver.first",
        "repro.resources.checkpointing.SweepJournal.record",
    ),
    "edit-stream": (
        "repro.incremental.warm.apply_delta",
        "repro.incremental.delta.incremental_fingerprint",
        "repro.engine.engine.HomEngine.invalidate_edit",
        "repro.incremental.warm.is_homomorphism",
        "repro.engine.cache.HomCache.get",
        "repro.kernel.batch.BatchSolveSession.solve",
    ),
}

#: Timed ops a full-scale run makes at least (smoke runs scale it), so
#: at least ten samples lie beyond the p99.
MIN_OPS = 1000

#: Serve traffic: offered rate of the main open-loop phase, which lasts
#: ``--seconds``; the max_rps bisection (probes, range, probe
#: length as a share of ``--seconds``) and the p99 limit a probe rate
#: must meet.
SERVE_RATE = 100.0
SERVE_PROBES = 5
SERVE_MAX_RATE = 800.0
SERVE_PROBE_SHARE = 1 / 25
#: The main phase runs in segments of this many requests (0.2 s), with
#: the speed sampled between them.
SERVE_SEGMENT = 20
#: Capacity (serve's ops_per_s): a burst of this many requests sent
#: closed loop after each segment, with this many in flight, well below
#: the server's 64-request queue limit.
SERVE_BURST = 20
SERVE_IN_FLIGHT = 8
SERVE_P99_LIMIT_MS = 100.0
#: A probe fails when its last quarter lags its first by more than this.
SERVE_LAG_GROWTH_MS = 5.0
#: Fresh misses are ordered in blocks of about this many, each block
#: spanning the whole cost range, so any stretch of traffic carries a
#: like mix of cheap and expensive misses.
SERVE_MISS_BLOCK = 40
#: Largest :func:`serve_cost` of a serve query.
SERVE_MAX_COST = 160

SWEEP_WORKERS = 2
#: The sweep's distinct specs are split into this many interleaved
#: slices; each round is one run_sweep over one slice.
SWEEP_SLICES = 4
#: Instances of the untimed warm-up sweep.
SWEEP_WARMUP = 20


def p50(values: List[float]) -> float:
    return statistics.median(values)


def p99(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def build(spec) -> Any:
    from repro.parallel.sweeps import build_structure

    return build_structure((spec[0], tuple(spec[1])))


def finish_lazy_imports() -> None:
    """One untimed cold call through kernel, DP planner and DP solver
    (C12 → K2 takes the DP path), so their imports land in set-up."""
    from repro.engine import HomEngine

    HomEngine().find_homomorphism(
        build(families.cycle(12)), build(families.K2)
    )


def settle() -> None:
    """Collect, then freeze what exists (inputs, warm state), so the
    collector's passes during the timed phase do not walk the
    benchmark's own data."""
    gc.collect()
    gc.freeze()


class Checker:
    """Counts wrong answers; keeps the first few for the report."""

    def __init__(self) -> None:
        self.wrong = 0
        self.examples: List[str] = []

    def check(self, ok: bool, detail: Callable[[], str]) -> bool:
        if not ok:
            self.wrong += 1
            if len(self.examples) < 5:
                self.examples.append(detail())
        return ok


def witness_ok(source, target, witness) -> bool:
    from repro.homomorphism import is_homomorphism

    return witness is not None and is_homomorphism(source, target, witness)


def verdict_ok(check: Checker, label: str, expected: bool, witness,
               source, target) -> None:
    """A hom answer: the right verdict, and a valid TRUE witness."""
    if check.check((witness is not None) == expected,
                   lambda: f"{label}: expected {expected}"):
        if expected:
            check.check(witness_ok(source, target, witness),
                        lambda: f"{label}: invalid witness")


def solver_counters(before: Dict[str, Any], after: Dict[str, Any],
                    ops: int) -> Dict[str, float]:
    """Solver nodes and backtracks per op between two engine snapshots."""
    return {f"solve.{name}":
            (after["solver"][name] - before["solver"][name]) / ops
            for name in ("nodes", "backtracks")}


class Timings:
    """Latencies of the timed ops and the time the caller was busy with
    them, raw and scaled to the reference speed (:mod:`speed`) of the
    vCPUs ``cpus`` that do the work.  Ops are recorded as pending and
    scaled when the next speed sample is taken, by the mean of the
    samples before and after them; with a ``sampler``, by the mean of
    its samples taken while they ran."""

    def __init__(self, cpus: List[int],
                 sampler: Optional[speed.Sampler] = None) -> None:
        self.cpus = cpus
        self.sampler = sampler
        self.latencies_ms: List[float] = []
        self.busy_s = 0.0
        self.raw_ms: List[float] = []
        self.raw_busy_s = 0.0
        self.factors: List[float] = []
        self._pending: List[Tuple[List[float], float]] = []
        self._speed: Optional[float] = None
        self._sampled = 0.0

    def calibrate(self, now: Optional[float] = None) -> None:
        """Take a speed sample (or use ``now``, one just taken) and scale
        the ops pending since the last one; call it before the first op
        and after the last."""
        if self.sampler is not None:
            now = self._speed = self.sampler.drain()
        elif now is None:
            now = speed.sample(self.cpus)
        if self._pending:
            factor = speed.factor(self._speed, now)
            self.factors.append(factor)
            for latencies_ms, busy_s in self._pending:
                self.raw_ms += latencies_ms
                self.latencies_ms += [x * factor for x in latencies_ms]
                self.raw_busy_s += busy_s
                self.busy_s += busy_s * factor
            self._pending = []
        self._speed = now
        self._sampled = perf()

    def record(self, seconds: float) -> None:
        """One closed-loop op; samples the speed every
        :data:`speed.EVERY_S` seconds."""
        self._pending.append(([seconds * 1e3], seconds))
        if perf() - self._sampled >= speed.EVERY_S:
            self.calibrate()

    def add(self, latencies_ms: List[float], busy_s: float) -> None:
        """A batch of ops that kept the caller busy ``busy_s``; the
        caller calibrates around it."""
        self._pending.append((latencies_ms, busy_s))

    @property
    def ops(self) -> int:
        """Ops scaled so far."""
        return len(self.latencies_ms)

    def summary(self) -> Dict[str, Any]:
        """Median and p99 over every timed op, ops per busy second;
        scaled, and raw under ``raw``."""
        if not self.ops or self._pending:
            raise RuntimeError("no op completed, or ops left unscaled")
        return {
            "p50_ms": p50(self.latencies_ms),
            "p99_ms": p99(self.latencies_ms),
            "ops_per_s": self.ops / self.busy_s,
            "samples": self.ops,
            # Raw busy time per op: the op time the trace decomposes.
            "op_ms": 1e3 * self.raw_busy_s / self.ops,
            "raw": {"p50_ms": p50(self.raw_ms), "p99_ms": p99(self.raw_ms),
                    "ops_per_s": self.ops / self.raw_busy_s},
            "speed_factor": statistics.median(self.factors),
        }


def timed(args, tracer: Tracer, timings: Timings,
          one_round: Callable[[int], None]) -> None:
    """Run ``one_round(index)`` until ``--seconds`` have passed and the
    run has made its share of :data:`MIN_OPS` ops (at least once)."""
    min_ops = MIN_OPS * args.scale
    settle()
    timings.calibrate()
    tracer.start()
    deadline = perf() + args.seconds
    index = 0
    while True:
        one_round(index)
        timings.calibrate()
        index += 1
        if perf() >= deadline and timings.ops >= min_ops:
            break
    tracer.stop()


# ----------------------------------------------------------------------
# hom-cold: a fresh engine and freshly decoded structures per call
# ----------------------------------------------------------------------
def setup_hom_cold(args) -> Dict[str, Any]:
    finish_lazy_imports()
    return {}


def run_hom_cold(ctx, args, tracer: Tracer) -> Dict[str, Any]:
    from repro.engine import HomEngine
    from repro.structures import io

    pairs = families.cold_pairs(args.seed, max(10, round(200 * args.scale)))
    built = [(build(p.source), build(p.target)) for p in pairs]
    wire = [(io.structure_to_dict(s), io.structure_to_dict(t))
            for s, t in built]
    rng = random.Random(args.seed)
    timings = Timings(speed.cpus_of(args.workload))
    check = Checker()
    counts = {"nodes": 0, "backtracks": 0}

    def call(i: int):
        source, target = wire[i]
        engine = HomEngine()
        witness = engine.find_homomorphism(
            io.structure_from_dict(source), io.structure_from_dict(target)
        )
        return engine, witness

    # A round is one of two interleaved halves of the list (by cost),
    # so rounds are short and alike; two rounds run every instance once.
    by_cost = sorted(range(len(pairs)),
                     key=lambda i: families.pair_work(pairs[i]))
    halves = [by_cost[0::2], by_cost[1::2]]

    def one_round(index: int) -> None:
        order = list(halves[index % 2])
        rng.shuffle(order)
        for i in order:
            start = perf()
            engine, witness = tracer.op(lambda: call(i))
            timings.record(perf() - start)
            verdict_ok(check, pairs[i].key, pairs[i].expected, witness,
                       *built[i])
            solver = engine.snapshot()["solver"]
            counts["nodes"] += solver["nodes"]
            counts["backtracks"] += solver["backtracks"]

    timed(args, tracer, timings, one_round)
    ops = timings.ops
    mix: Dict[str, int] = {}
    for p in pairs:
        mix[p.cls] = mix.get(p.cls, 0) + 1
    return {
        "timings": timings,
        "check": check,
        "counters": {"solve.nodes": counts["nodes"] / ops,
                     "solve.backtracks": counts["backtracks"] / ops},
        "info": {"instances": len(pairs), "mix": mix,
                 "true_share": sum(p.expected for p in pairs) / len(pairs)},
    }


# ----------------------------------------------------------------------
# hom-warm: one pre-warmed engine, every call a memo hit
# ----------------------------------------------------------------------
def setup_hom_warm(args) -> Dict[str, Any]:
    from repro.engine import HomEngine

    finish_lazy_imports()
    return {"engine": HomEngine()}


#: Passes over the working set per hom-warm round.
WARM_PASSES = 4


def run_hom_warm(ctx, args, tracer: Tracer) -> Dict[str, Any]:
    from repro.structures import io

    engine = ctx["engine"]
    pairs = families.warm_pairs(args.seed, max(8, round(64 * args.scale)))
    built = [(build(p.source), build(p.target)) for p in pairs]
    wire = [(io.structure_to_dict(s), io.structure_to_dict(t))
            for s, t in built]
    check = Checker()
    reference = []
    for p, (source, target) in zip(pairs, built):
        witness = engine.find_homomorphism(source, target)
        verdict_ok(check, p.key, p.expected, witness, source, target)
        reference.append(witness)
    before = engine.snapshot()
    rng = random.Random(args.seed)
    timings = Timings(speed.cpus_of(args.workload))

    def call(i: int):
        source, target = wire[i]
        return engine.find_homomorphism(
            io.structure_from_dict(source), io.structure_from_dict(target)
        )

    def one_round(index: int) -> None:
        for _ in range(WARM_PASSES):
            order = list(range(len(pairs)))
            rng.shuffle(order)
            for i in order:
                start = perf()
                witness = tracer.op(lambda: call(i))
                timings.record(perf() - start)
                check.check(witness == reference[i],
                            lambda: f"{pairs[i].key}: answer changed")

    timed(args, tracer, timings, one_round)
    after = engine.snapshot()
    return {
        "timings": timings,
        "check": check,
        "counters": solver_counters(before, after, timings.ops),
        "info": {"pairs": len(pairs),
                 "memo_hits": after["cache"]["hits"]
                 - before["cache"]["hits"],
                 "memo_misses": after["cache"]["misses"]
                 - before["cache"]["misses"]},
    }


# ----------------------------------------------------------------------
# serve-mixed: `repro serve` over TCP, one open-loop generator
# ----------------------------------------------------------------------
CORE_SPECS = (
    [families.cycle(n) for n in (9, 11, 13)]
    + [families.cycle(n) for n in range(10, 25, 2)]
    + [families.path(n) for n in range(6, 13)]
    + [families.grid(2, c) for c in (3, 4, 5)] + [families.grid(3, 3)]
    + [families.clique(n) for n in (3, 4, 5)]
)
TREEWIDTH_SPECS = (
    [families.cycle(n) for n in range(6, 15)]
    + [families.path(n) for n in range(6, 15)]
    + [families.grid(2, c) for c in (3, 4, 5, 6)]
    + [families.grid(3, 3), families.grid(3, 4)]
    + [families.clique(n) for n in (4, 5, 6)]
)


class Query:
    """One serve query: its frame body and how to check the answer."""

    __slots__ = ("op", "body", "expected", "structures")

    def __init__(self, op: str, query: Dict[str, Any], expected,
                 structures: Tuple) -> None:
        self.op = op
        self.body = json.dumps(query, separators=(",", ":"))[1:-1]
        self.expected = expected
        self.structures = structures

    def frame(self, request_id: int) -> bytes:
        return ('{"id":%d,%s}\n' % (request_id, self.body)).encode()


def serve_cost(pair: families.Pair) -> Tuple[int, str]:
    """Cost proxy of a cold serve query: source size × target size."""
    return (families.size(pair.source) * families.size(pair.target),
            pair.key)


def serve_queries(seed: int, main_misses: int
                  ) -> Tuple[List[Query], List[Query], List[Query]]:
    """The 128-entry repeat pool (70% hom, 15% containment, 10% core,
    5% treewidth) and two fresh-miss lists of hom pairs.  The first,
    for the 100 req/s phase, is a systematic sample of ``main_misses``
    by cost in seeded order: the latency tail is the costliest tenth of
    these misses, so it must not hinge on which ones a seed draws.  The
    second, for the capacity bursts and the max_rps probes, is every
    other candidate, in blocks of about :data:`SERVE_MISS_BLOCK` that
    each take every k-th pair by cost, in seeded order within a block.

    Candidates are the closed-form pairs whose cost proxy is at most
    :data:`SERVE_MAX_COST` (a cold call of 1–16 ms in-process, about
    twice that in the server).  The pool is a systematic sample of
    them, so every seed serves the same cost profile.
    """
    from repro.serve.client import (
        containment_query,
        core_query,
        hom_query,
        treewidth_query,
    )

    rng = random.Random(seed)
    rest = [p for p in families.closed_form_pool()
            if serve_cost(p)[0] <= SERVE_MAX_COST]

    def take(k: int, key=families.pair_work) -> List[families.Pair]:
        nonlocal rest
        chosen = families.systematic(rng, rest, k, key=key)
        keys = {p.key for p in chosen}
        rest = [p for p in rest if p.key not in keys]
        return chosen

    def hom(p: families.Pair) -> Query:
        s, t = build(p.source), build(p.target)
        return Query("hom", hom_query(s, t), p.expected, (s, t))

    def containment(p: families.Pair) -> Query:
        s, t = build(p.source), build(p.target)
        # Chandra–Merlin: q1 ⊆ q2 is decided as canonical(q2) → q1.
        return Query("containment", containment_query(t, s), p.expected,
                     (s, t))

    pool = [hom(p) for p in take(90)]
    pool += [containment(p) for p in take(19)]
    pool += [Query("core", core_query(build(spec)),
                   families.core_size_of(spec), ())
             for spec in families.systematic(rng, CORE_SPECS, 13,
                                             key=families.work)]
    pool += [Query("treewidth", treewidth_query(build(spec)),
                   families.treewidth_of(spec), ())
             for spec in families.systematic(rng, TREEWIDTH_SPECS, 6,
                                             key=families.work)]
    main = take(main_misses, key=serve_cost)
    rng.shuffle(main)
    by_cost = sorted(rest, key=serve_cost)
    blocks = max(1, len(by_cost) // SERVE_MISS_BLOCK)
    fresh = []
    for b in range(blocks):
        block = by_cost[b::blocks]
        rng.shuffle(block)
        fresh += block
    return pool, [hom(p) for p in main], [hom(p) for p in fresh]


def answer_ok(query: Query, response: Optional[Dict[str, Any]]) -> bool:
    from repro.serve.client import decode_witness

    if response is None or response.get("status") != "ok":
        return False
    entry = response["results"][0]
    if entry.get("status") != "ok":
        return False
    verdict = entry["verdict"]
    if query.op in ("hom", "containment"):
        if verdict["value"] != ("TRUE" if query.expected else "FALSE"):
            return False
        if query.expected:
            return witness_ok(*query.structures,
                              decode_witness(verdict["witness"]))
        return True
    if verdict["value"] != "TRUE":
        return False
    if query.op == "core":
        return verdict["witness"]["size"] == query.expected
    return (verdict["witness"]["width"] == query.expected
            and verdict["witness"]["exact"])


class Traffic:
    """Request streams: 90% repeat-pool queries, every pool entry in
    turn (reshuffled each pass), and a fresh miss as every 10th request,
    taken in order (wrapping if a long run exhausts them).  With misses
    evenly spaced, no two arrive back to back, so the latency tail does
    not hinge on where a seed happens to bunch them."""

    def __init__(self, pool: List[Query], fresh: List[Query],
                 rng: random.Random) -> None:
        self.pool = pool
        self.fresh = fresh
        self.rng = rng
        self.order: List[Query] = []
        self.fresh_used = 0

    def take(self, count: int) -> List[Query]:
        out = []
        for k in range(count):
            if k % 10 == 9:
                out.append(self.fresh[self.fresh_used % len(self.fresh)])
                self.fresh_used += 1
                continue
            if not self.order:
                self.order = list(self.pool)
                self.rng.shuffle(self.order)
            out.append(self.order.pop())
        return out


class Connection:
    """One pipelined connection: a sender (open loop on a fixed
    schedule, or closed loop with a fixed number of requests in flight)
    and a receiver thread matching responses to requests by id."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.settimeout(30.0)
        self.reader = self.sock.makefile("rb")
        self.next_id = 1

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def request(self, query: Query) -> Optional[Dict[str, Any]]:
        """One synchronous request (warm-up)."""
        return self.send([query], window=1)["responses"][0]

    def send(self, queries: List[Query], rate: Optional[float] = None,
             window: Optional[int] = None) -> Dict[str, Any]:
        """Send ``queries`` open loop at ``rate``/s regardless of
        replies, latency running from each request's *scheduled* send
        time; or closed loop with ``window`` requests unanswered at a
        time, latency running from the send.  A request never answered
        has latency ``None``."""
        n = len(queries)
        first = self.next_id
        self.next_id += n
        frames = [q.frame(first + k) for k, q in enumerate(queries)]
        received: List[Optional[float]] = [None] * n
        responses: List[Optional[Dict[str, Any]]] = [None] * n
        slots = threading.Semaphore(window or n)

        def receive() -> None:
            for _ in range(n):
                try:
                    line = self.reader.readline()
                except OSError:
                    return
                if not line:
                    return
                now = perf()
                message = json.loads(line)
                k = message.get("id", 0) - first
                if 0 <= k < n:
                    received[k] = now
                    responses[k] = message
                slots.release()

        receiver = threading.Thread(target=receive, daemon=True)
        receiver.start()
        start = perf() + 0.01
        sent = [0.0] * n
        for k, frame in enumerate(frames):
            if rate is not None:
                delay = start + k / rate - perf()
                if delay > 0:
                    time.sleep(delay)
            elif not slots.acquire(timeout=30.0):
                break
            sent[k] = perf()
            self.sock.sendall(frame)
        receiver.join(60.0)
        origin = sent if rate is None else \
            [start + k / rate for k in range(n)]
        return {
            "responses": responses,
            "origin": origin,
            "received": received,
            "latencies_ms": [
                None if r is None else (r - s) * 1e3
                for r, s in zip(received, origin)
            ],
            "lags_ms": [(t - s) * 1e3 for s, t in zip(origin, sent)],
        }


def lag_grows(lags_ms: List[float]) -> bool:
    quarter = max(1, len(lags_ms) // 4)
    return (statistics.mean(lags_ms[-quarter:])
            - statistics.mean(lags_ms[:quarter])) > SERVE_LAG_GROWTH_MS


def setup_serve_mixed(args) -> Dict[str, Any]:
    """Start the server; ``cpus`` in the result are the vCPUs whose speed
    scales serve's times: the server's, which does most of a request's
    work (over ten runs, scaling by the mean of the server's and the
    generator's vCPUs left p50 and capacity spreads at 0.11 and 0.045 of
    the median; by the server's alone, 0.08 and 0.035)."""
    cpus = speed.cpus_of(args.workload)
    if args.trace:
        from repro.serve.server import ServerThread

        finish_lazy_imports()
        server = ServerThread()
        host, port = server.start()
        return {"thread": server, "host": host, "port": port, "cpus": cpus}
    # Server and load generator each get a vCPU of their own, so neither
    # migrates onto the other's (run-to-run spread of p50 halved, from
    # 0.07 to 0.03 of the median over 12 runs).
    pin = None
    if len(cpus) >= 2:
        generator, server = cpus[:2]
        os.sched_setaffinity(0, {generator})
        pin = lambda: os.sched_setaffinity(0, {server})  # noqa: E731
        cpus = [server]
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, preexec_fn=pin,
    )
    line = process.stdout.readline()
    if not line.startswith("repro-serve ready on "):
        process.kill()
        process.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
    return {"process": process, "host": host, "port": int(port),
            "cpus": cpus}


def teardown_serve_mixed(ctx) -> float:
    """Stop the server (graceful drain) and return its peak RSS."""
    if "thread" in ctx:
        ctx["thread"].stop()
        return 0.0
    process = ctx["process"]
    process.terminate()
    try:
        process.wait(30.0)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()
    return peak_rss_mb(resource.RUSAGE_CHILDREN)


def run_serve_mixed(ctx, args, tracer: Tracer) -> Dict[str, Any]:
    segments = max(round(MIN_OPS * args.scale),
                   int(SERVE_RATE * args.seconds)) // SERVE_SEGMENT
    count = segments * SERVE_SEGMENT
    pool, main_fresh, fresh = serve_queries(args.seed, count // 10)
    rng = random.Random(args.seed)
    traffic = Traffic(pool, main_fresh, rng)
    extra = Traffic(pool, fresh, rng)
    conn = Connection(ctx["host"], ctx["port"])
    check = Checker()
    for query in pool:
        check.check(answer_ok(query, conn.request(query)),
                    lambda: f"warm-up {query.op}")
    engine = None
    if args.trace:
        from repro.engine import get_engine

        engine = get_engine()
        before = engine.snapshot()

    cpus = ctx["cpus"]
    timings = Timings(cpus)
    # Throughput at the offered 100 req/s would only measure the
    # generator, so serve's ops_per_s is its capacity, measured closed
    # loop in a burst after each segment of the 100 req/s phase; spread
    # over the run, the bursts do not all land in one slow stretch.
    capacity = Timings(cpus)

    def calibrate() -> None:
        """One speed sample between two phases, for both."""
        now = speed.sample(cpus)
        timings.calibrate(now)
        capacity.calibrate(now)

    compute_ms = []
    lags_ms: List[float] = []
    settle()
    calibrate()
    for _ in range(segments):
        queries = traffic.take(SERVE_SEGMENT)
        tracer.start()
        phase = conn.send(queries, rate=SERVE_RATE)
        tracer.stop()
        add_phase(phase, timings)
        calibrate()
        lags_ms += phase["lags_ms"]
        for query, response in zip(queries, phase["responses"]):
            check.check(answer_ok(query, response),
                        lambda: f"{query.op}: {str(response)[:120]}")
            if response is not None and "elapsed_ms" in response:
                compute_ms.append(response["elapsed_ms"])
        if engine is None:
            capacity_probe(conn, extra, check, SERVE_BURST, capacity)
            calibrate()
    result: Dict[str, Any] = {
        "timings": timings,
        "check": check,
        "attempted": count,
        "info": {
            "rate": SERVE_RATE,
            "lag_mean_ms": statistics.mean(lags_ms),
            "lag_max_ms": max(lags_ms),
        },
    }
    if engine is not None:
        latency = statistics.mean(timings.raw_ms)
        # A request's time is its latency, not the schedule's spacing.
        result["op_ms"] = latency
        result["counters"] = dict(
            solver_counters(before, engine.snapshot(), timings.ops),
            **{"serve.compute_ms": statistics.mean(compute_ms),
               "serve.outside_compute_ms":
                   latency - statistics.mean(compute_ms)},
        )
    else:
        result["capacity"] = capacity
        probe = max_rps_probe(conn, extra, check,
                              args.seconds * SERVE_PROBE_SHARE)
        result["attempted"] += SERVE_BURST * segments + sum(
            p["requests"] for p in probe["probes"])
        result["info"].update(probe)
    conn.close()
    result["info"]["fresh_misses"] = traffic.fresh_used + extra.fresh_used
    result["info"]["fresh_available"] = len(main_fresh) + len(fresh)
    return result


def add_phase(phase: Dict[str, Any], timings: Timings) -> None:
    """Add a serve phase's answered requests to ``timings``, busy from
    the first send to the last answer."""
    answered = [r for r in phase["received"] if r is not None]
    timings.add([x for x in phase["latencies_ms"] if x is not None],
                max(answered, default=phase["origin"][0])
                - phase["origin"][0])


def capacity_probe(conn: Connection, traffic: Traffic, check: Checker,
                   count: int, timings: Timings) -> None:
    """Send ``count`` requests closed loop, :data:`SERVE_IN_FLIGHT` of
    them in flight (the server kept busy, below its queue limit), into
    ``timings``, whose ops per busy second are the server's capacity."""
    queries = traffic.take(count)
    phase = conn.send(queries, window=SERVE_IN_FLIGHT)
    add_phase(phase, timings)
    for query, response in zip(queries, phase["responses"]):
        check.check(answer_ok(query, response),
                    lambda: f"capacity {query.op}: {str(response)[:120]}")


def max_rps_probe(conn: Connection, traffic: Traffic, check: Checker,
                  probe_s: float) -> Dict[str, Any]:
    """Bisect the highest open-loop rate whose p99 stays within the
    limit with no refused request and no growing generator lag.  A
    refusal (``overloaded``) only fails the probe; a wrong answer is
    also a failed op of the run."""
    lo, hi = SERVE_RATE, SERVE_MAX_RATE
    probes = []
    for _ in range(SERVE_PROBES):
        rate = (lo + hi) / 2
        queries = traffic.take(int(rate * probe_s))
        phase = conn.send(queries, rate=rate)
        refused = wrong = 0
        for query, response in zip(queries, phase["responses"]):
            if response is not None and response["status"] == "overloaded":
                refused += 1
            elif not check.check(answer_ok(query, response),
                                 lambda: f"probe {query.op}: "
                                         f"{str(response)[:120]}"):
                wrong += 1
        latencies = [x for x in phase["latencies_ms"] if x is not None]
        tail = p99(latencies) if latencies else None
        passed = (refused == wrong == 0 and tail is not None
                  and tail <= SERVE_P99_LIMIT_MS
                  and not lag_grows(phase["lags_ms"]))
        probes.append({"rate": rate, "requests": len(queries),
                       "p99_ms": tail, "refused": refused,
                       "passed": passed})
        if passed:
            lo = rate
        else:
            hi = rate
        time.sleep(0.2)
    return {"max_rps": lo, "probe_s": probe_s, "probes": probes}


# ----------------------------------------------------------------------
# sweep-hom: run_sweep over 1000 distinct specs with a 2-process pool
# ----------------------------------------------------------------------
def setup_sweep_hom(args) -> Dict[str, Any]:
    # Imported here so that set-up, not the first round, pays for them.
    from repro.parallel import run_sweep  # noqa: F401
    from repro.parallel.sweeps import hom_task  # noqa: F401
    from repro.resources import SweepJournal

    finish_lazy_imports()
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"sweep-{os.getpid()}.jsonl")
    return {"journal": SweepJournal(path), "path": path}


def teardown_sweep_hom(ctx) -> float:
    for name in os.listdir(WORK):
        if name.startswith(os.path.basename(ctx["path"])):
            os.remove(os.path.join(WORK, name))
    try:
        os.rmdir(WORK)
    except OSError:  # another run's journal is still there
        pass
    return peak_rss_mb()


def run_sweep_hom(ctx, args, tracer: Tracer) -> Dict[str, Any]:
    from repro.engine import reset_engine
    from repro.parallel import run_sweep
    from repro.parallel.sweeps import hom_task

    pairs = families.sweep_pairs(args.seed, max(20, round(1000 * args.scale)))
    expected = {p.key: p.expected for p in pairs}
    ordered = sorted(pairs, key=families.pair_work)
    slices = [[(p.key, (p.source, p.target)) for p in ordered[i::SWEEP_SLICES]]
              for i in range(SWEEP_SLICES)]
    rng = random.Random(args.seed)
    for instances in slices:
        rng.shuffle(instances)
    workers = 1 if args.trace else SWEEP_WORKERS
    check = Checker()
    sampler = speed.Sampler(speed.cpus_of(args.workload))
    timings = Timings(sampler.cpus, sampler)
    counts = {"nodes": 0, "backtracks": 0, "retries": 0, "rebuilds": 0,
              "overhead_ms": 0.0}

    def one_round(index: int) -> None:
        instances = slices[index % SWEEP_SLICES]
        # Workers fork from this process: a fresh global engine here
        # means every round starts cold, in the pool and in serial mode.
        reset_engine()
        start = perf()
        outcome = run_sweep(hom_task, instances, workers=workers,
                            journal=ctx["journal"], fresh=True)
        wall = perf() - start
        latencies = []
        for key, record in outcome.results.items():
            if not check.check(record.get("status") == "ok",
                               lambda: f"{key}: {record.get('status')}"):
                continue
            latencies.append(record["elapsed_s"] * 1e3)
            result = record["result"]
            counts["nodes"] += result["nodes"]
            counts["backtracks"] += result["backtracks"]
            check.check(
                result["verdict"] == ("TRUE" if expected[key] else "FALSE"),
                lambda: f"{key}: {result['verdict']}",
            )
        timings.add(latencies, wall)
        counts["retries"] += outcome.retries
        counts["rebuilds"] += outcome.pool_rebuilds
        counts["overhead_ms"] += (1e3 * wall * workers
                                  - sum(latencies))

    # Untimed warm-up: the first run_sweep in a process ran 15-20% slower
    # than the later ones.
    reset_engine()
    run_sweep(hom_task, slices[0][:SWEEP_WARMUP], workers=workers,
              journal=ctx["journal"], fresh=True)
    with sampler:
        timed(args, tracer, timings, one_round)
    ops = timings.ops
    return {
        "timings": timings,
        "check": check,
        "counters": {
            "solve.nodes": counts["nodes"] / ops,
            "solve.backtracks": counts["backtracks"] / ops,
            "sweep.dispatch_overhead_ms": counts["overhead_ms"] / ops,
            "sweep.retries": counts["retries"],
            "sweep.pool_rebuilds": counts["rebuilds"],
        },
        "info": {"instances": len(pairs), "slices": SWEEP_SLICES,
                 "workers": workers},
    }


# ----------------------------------------------------------------------
# edit-stream: single-fact edits against four warm sessions
# ----------------------------------------------------------------------
def setup_edit_stream(args) -> Dict[str, Any]:
    from repro.engine import HomEngine
    # Imported here so that set-up, not the first edit, pays for it.
    from repro.incremental import IncrementalHomSession  # noqa: F401

    finish_lazy_imports()
    return {"engine": HomEngine()}


#: Edit kinds ``(side, adds_a_fact)``, in equal shares.
EDIT_KINDS = (("source", True), ("source", False),
              ("target", True), ("target", False))
#: Modification/undo pairs per session per round (a round is 8x this).
EDIT_PAIRS = 12


def edit_round(seed: int, sessions, pairs_per_session: int):
    """One round of edits: per session, ``pairs_per_session`` single-
    fact modifications each followed (later) by its inverse, the
    sessions interleaved at random.  Every modification is drawn
    against the original structures, which every undo restores, so a
    round ends where it began and can be replayed.

    The modifications split evenly over :data:`EDIT_KINDS` — source or
    target side, adding a fact (hardening) or removing one (loosening)
    — and the facts are systematic samples over how far apart their
    endpoints sit in universe order, so every seed edits the same mix
    of short and long chords.
    """
    from repro.incremental import Delta

    rng = random.Random(seed)
    plans = []
    for index, (source, target) in enumerate(sessions):
        slots = [EDIT_KINDS[i % 4] for i in range(pairs_per_session)]
        rng.shuffle(slots)
        picks = {}
        for kind in EDIT_KINDS:
            structure = source if kind[0] == "source" else target
            position = {e: i for i, e in enumerate(structure.universe)}
            facts = structure.relation("E")
            if kind[1]:
                candidates = [(u, v) for u in structure.universe
                              for v in structure.universe
                              if (u, v) not in facts]
            else:
                candidates = list(facts)
            picks[kind] = iter(families.systematic(
                rng, candidates, max(1, slots.count(kind)),
                key=lambda t: (abs(position[t[0]] - position[t[1]]),
                               position[t[0]], position[t[1]]),
            ))
        ops = []
        for side, adds in slots:
            fact = [("E", next(picks[side, adds]))]
            delta = Delta(add_facts=fact) if adds \
                else Delta(remove_facts=fact)
            ops.append((index, side, delta, False))
            ops.append((index, side, delta.inverse(), True))
        plans.append(ops)
    order = [i for i, ops in enumerate(plans) for _ in ops]
    rng.shuffle(order)
    cursors = [0] * len(plans)
    out = []
    for i in order:
        out.append(plans[i][cursors[i]])
        cursors[i] += 1
    return out


def run_edit_stream(ctx, args, tracer: Tracer) -> Dict[str, Any]:
    from repro.engine import HomEngine
    from repro.incremental import IncrementalHomSession

    engine = ctx["engine"]
    specs = families.edit_sessions()
    originals = [(build(s), build(t)) for s, t, _ in specs]
    sessions = [IncrementalHomSession(s, t, engine=engine)
                for s, t in originals]
    check = Checker()
    for (_, _, expected), session in zip(specs, sessions):
        verdict = session.decide()
        verdict_ok(check, "initial", expected, verdict.witness,
                   session.source, session.target)
    plan = edit_round(args.seed, originals,
                      max(4, round(EDIT_PAIRS * args.scale)))

    def oracle(session) -> bool:
        reference = HomEngine(use_kernel=False, use_dp=False,
                              cache_enabled=False)
        return reference.find_homomorphism(
            session.source, session.target) is not None

    def edit_ok(session, verdict, audit: bool) -> bool:
        """TRUE carries its proof (the witness); FALSE is confirmed by
        the reference solver when ``audit`` is set."""
        value = verdict.value.value
        if value == "TRUE":
            return witness_ok(session.source, session.target,
                              verdict.witness)
        return value == "FALSE" and (not audit or not oracle(session))

    before = engine.snapshot()
    first_round: List[str] = []
    timings = Timings(speed.cpus_of(args.workload))

    def one_round(round_index: int) -> None:
        replay = round_index > 0
        for position, (index, side, delta, undo) in enumerate(plan):
            session = sessions[index]
            edit = session.edit_source if side == "source" \
                else session.edit_target
            start = perf()
            verdict = tracer.op(lambda: edit(delta))
            timings.record(perf() - start)
            value = verdict.value.value
            label = f"round {round_index + 1} edit {position}"
            audit = not replay and position % 10 == 0
            check.check(edit_ok(session, verdict, audit),
                        lambda: f"{label}: wrong {value}")
            if replay:
                check.check(value == first_round[position],
                            lambda: f"{label}: not reproducible")
            else:
                first_round.append(value)
            if undo:
                check.check(value == ("TRUE" if specs[index][2]
                                      else "FALSE"),
                            lambda: f"{label}: undo changed the verdict")

    timed(args, tracer, timings, one_round)
    after = engine.snapshot()
    for (_, _, expected), session in zip(specs, sessions):
        verdict = session.decide()
        check.check(verdict.is_true == expected
                    and edit_ok(session, verdict, audit=True),
                    lambda: "final state: wrong verdict")
    ops = timings.ops
    hits = (after["incremental"]["warm_hits"]
            - before["incremental"]["warm_hits"])
    fallbacks = (after["incremental"]["warm_fallbacks"]
                 - before["incremental"]["warm_fallbacks"])
    return {
        "timings": timings,
        "check": check,
        "counters": dict(
            solver_counters(before, after, ops),
            **{"warm.hit_ratio": hits / (hits + fallbacks)
               if hits + fallbacks else None,
               "incr.evictions": (after["incremental"]["incr_evictions"]
                                  - before["incremental"]
                                  ["incr_evictions"]) / ops},
        ),
        "info": {"edits_per_round": len(plan),
                 "sizes": [s.size() for s, _ in originals]},
    }


WORKLOADS: Dict[str, Tuple[Callable, Callable, Optional[Callable]]] = {
    "hom-cold": (setup_hom_cold, run_hom_cold, None),
    "hom-warm": (setup_hom_warm, run_hom_warm, None),
    "serve-mixed": (setup_serve_mixed, run_serve_mixed,
                    teardown_serve_mixed),
    "sweep-hom": (setup_sweep_hom, run_sweep_hom, teardown_sweep_hom),
    "edit-stream": (setup_edit_stream, run_edit_stream, None),
}


def trace_report(name: str, args, tracer: Tracer, ops: int, op_ms: float,
                 counters: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics plus the wrapper self-check; writes
    ``results/TRACE_<workload>.json`` (``results/smoke/`` when scaled)."""
    layers = layer_metrics(
        tracer, ops, op_ms, counters,
        outside_ms=counters.get("serve.outside_compute_ms", 0.0),
        unsummed=("protocol",) if name == "serve-mixed" else (),
    )
    missing = [t for t in EXPECTED_SPANS[name] if not tracer.calls.get(t)]
    report = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": ops,
        "layers": layers,
        "spans_by_name": tracer.totals(),
        "calls_by_wrapper": dict(sorted(tracer.calls.items())),
        "outcomes": tracer.outcomes,
        "self_check": {"expected": list(EXPECTED_SPANS[name]),
                       "missing": missing},
        "span_sample": tracer.sample(),
    }
    out_dir = RESULTS if args.scale == 1.0 else os.path.join(RESULTS, "smoke")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"TRACE_{name}.json"), "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return {"layers": layers, "missing_spans": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup, run, teardown = WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        tracer.install()
    ctx = setup(args)
    print("READY", flush=True)
    try:
        outcome = None if args.setup_only else run(ctx, args, tracer)
    finally:
        rss = teardown(ctx) if teardown else peak_rss_mb()
    if outcome is None:
        return 0
    timings: Timings = outcome["timings"]
    check: Checker = outcome["check"]
    result: Dict[str, Any] = timings.summary()
    result.update({
        "ops": outcome.get("attempted", timings.ops),
        "failed": check.wrong,
        "errors": check.examples,
        "peak_rss_mb": rss,
        "info": outcome["info"],
    })
    if "capacity" in outcome:
        capacity = outcome["capacity"].summary()
        result["ops_per_s"] = capacity["ops_per_s"]
        result["raw"]["ops_per_s"] = capacity["raw"]["ops_per_s"]
    if args.trace:
        result.update(trace_report(
            args.workload, args, tracer, timings.ops,
            outcome.get("op_ms", result["op_ms"]),
            outcome.get("counters", {}),
        ))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
