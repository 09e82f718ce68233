"""Server-side chaos harness for :mod:`repro.serve`.

One seeded campaign runs a real :class:`~repro.serve.ServerThread`
(fresh engine, a seeded *flaky kernel* injector so the circuit breaker
is genuinely exercised) and throws hundreds of adversarial client
trials at it:

* ``normal``        — well-formed single/batch decision requests;
* ``slow_client``   — the request frame dribbles in byte chunks;
* ``disconnect``    — the client vanishes mid-request, before reading
  its response;
* ``malformed``     — seeded garbage bytes, truncated JSON, oversized
  frames and oversized batches;
* ``burst``         — a pipelined burst from several sockets at once
  against a small admission queue (sheds must be explicit);
* ``drain``         — exercised separately by the SIGTERM subprocess
  test in ``test_serve_chaos.py``.

Every trial is classified against the serve contract:

* **no silent loss** — every frame that legitimately expects a response
  gets exactly one (by request id);
* **no invalid verdict** — every definite (TRUE/FALSE) hom verdict is
  differentially checked against the shared oracle of
  :mod:`tests.oracle`, and every TRUE witness is re-validated as an
  actual homomorphism; UNKNOWN is always acceptable, wrong never is;
* **no hang** — each trial bounds its socket reads; the campaign and
  its pytest driver add watchdogs on top.

The campaign returns a JSON-serializable audit report (per-scenario
counts, response-status census, breaker/serve counters) that the CI
job uploads as an artifact.
"""

from __future__ import annotations

import json
import random
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import HomEngine
from repro.serve import (
    ServeClient,
    ServerThread,
    encode_frame,
    hom_query,
)
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import decode_witness
from repro.serve.service import DecisionService
from repro.structures import Structure

from .oracle import Case, expected, respects, structure_pool

#: Per-read socket timeout inside trials; the anti-hang bound at the
#: client edge (the pytest watchdog guards the whole campaign).
READ_TIMEOUT_S = 30.0

#: Probability that one primary kernel solve "faults" (seeded); keeps
#: the breaker flapping through trips, probes and recoveries all
#: campaign long.
KERNEL_FAULT_RATE = 0.04

SCENARIOS = (
    ("normal", 5),
    ("slow_client", 2),
    ("disconnect", 2),
    ("malformed", 3),
    ("burst", 2),
)

VALID_STATUSES = {"ok", "overloaded", "error"}


@dataclass
class TrialResult:
    """One classified chaos trial."""

    scenario: str
    outcome: str                 # "ok" | "invalid"
    detail: str = ""
    sent: int = 0                # frames that expect a response
    answered: int = 0            # responses received for them
    checked: int = 0             # verdicts differentially validated
    unknowns: int = 0
    overloaded: int = 0
    errors: int = 0


@dataclass
class CampaignReport:
    """The whole campaign's audit trail (JSON-serializable)."""

    seed: int
    trials: int
    by_scenario: Dict[str, int] = field(default_factory=dict)
    invalid: List[Dict[str, Any]] = field(default_factory=list)
    sent: int = 0
    answered: int = 0
    checked: int = 0
    unknowns: int = 0
    overloaded: int = 0
    errors: int = 0
    breaker_trips: int = 0
    serve_counters: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "by_scenario": dict(sorted(self.by_scenario.items())),
            "invalid": self.invalid,
            "sent": self.sent,
            "answered": self.answered,
            "checked": self.checked,
            "unknowns": self.unknowns,
            "overloaded": self.overloaded,
            "errors": self.errors,
            "breaker_trips": self.breaker_trips,
            "serve_counters": self.serve_counters,
        }


class FlakyKernelInjector:
    """Seeded chance of a synthetic kernel fault per primary solve."""

    def __init__(self, seed: int, rate: float = KERNEL_FAULT_RATE) -> None:
        self.rng = random.Random(seed)
        self.rate = rate
        self.fired = 0

    def __call__(self, op: str) -> None:
        if self.rng.random() < self.rate:
            self.fired += 1
            raise RuntimeError(f"chaos: synthetic kernel fault in {op}")


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
_oracle_cache: Dict[Tuple[int, int], bool] = {}


def classify_hom_entry(
    entry: Dict[str, Any],
    pool: List[Structure],
    i: int,
    j: int,
) -> Optional[str]:
    """``None`` when the entry honours the contract, else the violation."""
    if entry.get("status") == "error":
        return f"hom query answered with error: {entry.get('detail')}"
    verdict = entry.get("verdict") or {}
    value = verdict.get("value")
    if value == "UNKNOWN":
        return None  # honest soft answer, always acceptable
    if value not in ("TRUE", "FALSE"):
        return f"verdict has invalid value {value!r}"
    case = Case(pool[i], pool[j])
    if (i, j) not in _oracle_cache:
        _oracle_cache[i, j] = expected(case).exists
    if (value == "TRUE") != _oracle_cache[i, j]:
        return f"served {value} for {i}->{j}, the oracle disagrees"
    witness = verdict.get("witness")
    if witness is not None and not respects(case, decode_witness(witness)):
        return f"served TRUE with an invalid witness for {i}->{j}"
    return None


# ----------------------------------------------------------------------
# Raw-socket helpers (client-side chaos needs byte-level control)
# ----------------------------------------------------------------------
def open_socket(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=READ_TIMEOUT_S)
    sock.settimeout(READ_TIMEOUT_S)
    return sock


def read_frames(sock: socket.socket, count: int) -> List[Dict[str, Any]]:
    """Read exactly ``count`` response frames (bounded by the socket
    timeout; a short read raises, which the trial classifies)."""
    rfile = sock.makefile("rb")
    frames = []
    for _ in range(count):
        line = rfile.readline()
        if not line:
            break
        frames.append(json.loads(line))
    return frames


def garbage_frame(rng: random.Random) -> bytes:
    """One seeded hostile frame."""
    kind = rng.randrange(5)
    if kind == 0:  # random bytes
        return bytes(rng.randrange(256) for _ in range(rng.randrange(1, 60)))
    if kind == 1:  # truncated JSON object
        return b'{"op": "hom", "source": {"universe"'
    if kind == 2:  # valid JSON, wrong shape
        return rng.choice([b"[1,2,3]", b'"hom"', b"42", b"null", b"true"])
    if kind == 3:  # unknown / missing op
        return rng.choice([
            b'{"op": "explode"}', b'{"id": 9}', b'{"op": 17}',
            b'{"op": "batch", "queries": []}',
        ])
    # bad fields on a real op
    return rng.choice([
        b'{"op": "hom", "deadline_s": "soon"}',
        b'{"op": "hom", "budget": -4}',
        b'{"op": "hom", "source": 3}',
        b'{"op": "treewidth", "structure": {"universe": [], '
        b'"relations": {}, "vocabulary": []}, "limit": 0}',
    ])


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _pick_pair(rng: random.Random, pool: List[Structure]) -> Tuple[int, int]:
    return rng.randrange(len(pool)), rng.randrange(len(pool))


def trial_normal(
    rng: random.Random, host: str, port: int, pool: List[Structure]
) -> TrialResult:
    result = TrialResult("normal", "ok")
    n_queries = rng.randrange(1, 4)
    pairs = [_pick_pair(rng, pool) for _ in range(n_queries)]
    queries = [hom_query(pool[i], pool[j]) for i, j in pairs]
    with ServeClient(host, port, timeout_s=READ_TIMEOUT_S) as client:
        result.sent = 1
        if n_queries == 1:
            entries = [client.decide(queries[0])]
        else:
            entries = client.batch(queries)
        result.answered = 1
    if len(entries) != n_queries:
        result.outcome = "invalid"
        result.detail = (
            f"batch of {n_queries} answered with {len(entries)} entries"
        )
        return result
    for entry, (i, j) in zip(entries, pairs):
        violation = classify_hom_entry(entry, pool, i, j)
        if violation:
            result.outcome = "invalid"
            result.detail = violation
            return result
        result.checked += 1
        if (entry.get("verdict") or {}).get("value") == "UNKNOWN":
            result.unknowns += 1
    return result


def trial_slow_client(
    rng: random.Random, host: str, port: int, pool: List[Structure]
) -> TrialResult:
    import time as _time

    result = TrialResult("slow_client", "ok")
    i, j = _pick_pair(rng, pool)
    frame = encode_frame({**hom_query(pool[i], pool[j]), "id": "slow"})
    sock = open_socket(host, port)
    try:
        # Dribble the frame in seeded chunks with small stalls: the
        # server must neither time us out mid-frame (stalls are well
        # under its idle timeout) nor act before the newline arrives.
        cut = sorted(rng.randrange(1, len(frame)) for _ in range(3))
        pieces = [frame[a:b] for a, b in
                  zip([0] + cut, cut + [len(frame)])]
        for piece in pieces:
            sock.sendall(piece)
            _time.sleep(rng.uniform(0.0, 0.03))
        result.sent = 1
        frames = read_frames(sock, 1)
        result.answered = len(frames)
        if not frames:
            result.outcome = "invalid"
            result.detail = "slow client got no response"
            return result
        response = frames[0]
        if response.get("status") == "ok":
            violation = classify_hom_entry(
                response["results"][0], pool, i, j
            )
            if violation:
                result.outcome = "invalid"
                result.detail = violation
                return result
            result.checked += 1
        elif response.get("status") == "overloaded":
            result.overloaded += 1
        elif response.get("status") == "error":
            result.outcome = "invalid"
            result.detail = (
                f"well-formed slow frame answered with error: {response}"
            )
        else:
            result.outcome = "invalid"
            result.detail = f"unknown status {response.get('status')!r}"
    finally:
        sock.close()
    return result


def trial_disconnect(
    rng: random.Random, host: str, port: int, pool: List[Structure]
) -> TrialResult:
    """Vanish mid-request; the server must stay healthy (the response
    it computed goes nowhere — that is a counted client_gone, not a
    loss)."""
    result = TrialResult("disconnect", "ok")
    i, j = _pick_pair(rng, pool)
    sock = open_socket(host, port)
    frame = encode_frame(hom_query(pool[i], pool[j]))
    kind = rng.randrange(3)
    if kind == 0:
        sock.sendall(frame)              # full frame, never read
    elif kind == 1:
        sock.sendall(frame[: max(1, len(frame) // 2)])  # torn frame
    # kind == 2: connect and say nothing at all
    sock.close()
    # The server must still answer a fresh, polite client.
    with ServeClient(host, port, timeout_s=READ_TIMEOUT_S) as probe:
        result.sent = 1
        entry = probe.ping()
        result.answered = 1
        if not entry.get("ready"):
            result.outcome = "invalid"
            result.detail = "server not ready after client disconnect"
    return result


def trial_malformed(
    rng: random.Random, host: str, port: int, pool: List[Structure]
) -> TrialResult:
    result = TrialResult("malformed", "ok")
    sock = open_socket(host, port)
    try:
        oversized = rng.random() < 0.25
        if oversized:
            kind = rng.randrange(2)
            if kind == 0:  # oversized raw frame
                sock.sendall(b"y" * (2 << 20) + b"\n")
                expect_code = "frame-too-large"
            else:          # oversized batch (well-formed frame)
                i, j = _pick_pair(rng, pool)
                sock.sendall(encode_frame({
                    "op": "batch",
                    "queries": [hom_query(pool[i], pool[j])] * 70,
                }))
                expect_code = "batch-too-large"
            result.sent = 1
            frames = read_frames(sock, 1)
            result.answered = len(frames)
            if not frames:
                result.outcome = "invalid"
                result.detail = f"no response for {expect_code} input"
                return result
            response = frames[0]
            if response.get("status") != "error" or \
                    response.get("code") != expect_code:
                result.outcome = "invalid"
                result.detail = (
                    f"expected error/{expect_code}, got {response}"
                )
                return result
            result.errors += 1
            return result
        # Garbage bytes: a structured error (or, for byte soup that
        # happens to contain no newline... it always ends with ours).
        sock.sendall(garbage_frame(rng).replace(b"\n", b" ") + b"\n")
        result.sent = 1
        frames = read_frames(sock, 1)
        result.answered = len(frames)
        if not frames:
            result.outcome = "invalid"
            result.detail = "no structured error for malformed frame"
            return result
        response = frames[0]
        if response.get("status") == "ok":
            # A frame that is *wire*-valid but query-invalid (e.g. a
            # hom op whose 'source' is not a structure) is admitted
            # and answered with per-query error entries.
            entries = response.get("results") or []
            if not entries or any(
                e.get("status") != "error" for e in entries
            ):
                result.outcome = "invalid"
                result.detail = f"malformed query answered ok: {response}"
                return result
        elif response.get("status") != "error":
            result.outcome = "invalid"
            result.detail = f"malformed frame answered {response}"
            return result
        result.errors += 1
        # The same connection must still serve a valid request.
        sock.sendall(encode_frame({"op": "ping", "id": "after"}))
        after = read_frames(sock, 1)
        if not after or after[0].get("status") != "ok":
            result.outcome = "invalid"
            result.detail = "connection dead after malformed frame"
        else:
            result.sent += 1
            result.answered += 1
    finally:
        sock.close()
    return result


def trial_burst(
    rng: random.Random, host: str, port: int, pool: List[Structure]
) -> TrialResult:
    """Pipelined burst over several sockets: every request answered
    exactly once, valid ok answers only, sheds explicit."""
    result = TrialResult("burst", "ok")
    n_socks = rng.randrange(2, 5)
    per_sock = rng.randrange(2, 5)
    socks = [open_socket(host, port) for _ in range(n_socks)]
    sent: Dict[str, Tuple[int, int]] = {}
    try:
        for s_idx, sock in enumerate(socks):
            frames = b""
            for q_idx in range(per_sock):
                i, j = _pick_pair(rng, pool)
                rid = f"b{s_idx}.{q_idx}"
                sent[rid] = (i, j)
                payload = {**hom_query(pool[i], pool[j]), "id": rid}
                if rng.random() < 0.5:
                    payload["deadline_s"] = rng.uniform(0.05, 5.0)
                frames += encode_frame(payload)
            sock.sendall(frames)
        result.sent = len(sent)
        seen: Dict[str, int] = {}
        for sock in socks:
            for response in read_frames(sock, per_sock):
                status = response.get("status")
                rid = response.get("id")
                if status not in VALID_STATUSES:
                    result.outcome = "invalid"
                    result.detail = f"unknown status {status!r}"
                    return result
                if rid not in sent:
                    result.outcome = "invalid"
                    result.detail = f"response for unknown id {rid!r}"
                    return result
                seen[rid] = seen.get(rid, 0) + 1
                result.answered += 1
                if status == "overloaded":
                    result.overloaded += 1
                elif status == "error":
                    # Well-formed requests must not error.
                    result.outcome = "invalid"
                    result.detail = f"burst request errored: {response}"
                    return result
                else:
                    i, j = sent[rid]
                    violation = classify_hom_entry(
                        response["results"][0], pool, i, j
                    )
                    if violation:
                        result.outcome = "invalid"
                        result.detail = violation
                        return result
                    result.checked += 1
                    if (response["results"][0]["verdict"]["value"]
                            == "UNKNOWN"):
                        result.unknowns += 1
        if any(count != 1 for count in seen.values()) or \
                set(seen) != set(sent):
            missing = sorted(set(sent) - set(seen))
            dupes = sorted(r for r, c in seen.items() if c > 1)
            result.outcome = "invalid"
            result.detail = (
                f"silent loss/duplication: missing={missing} "
                f"duplicated={dupes}"
            )
    finally:
        for sock in socks:
            sock.close()
    return result


TRIALS = {
    "normal": trial_normal,
    "slow_client": trial_slow_client,
    "disconnect": trial_disconnect,
    "malformed": trial_malformed,
    "burst": trial_burst,
}


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def run_campaign(trials: int, base_seed: int) -> CampaignReport:
    """Run the full seeded campaign against one server."""
    _oracle_cache.clear()
    pool = structure_pool()
    injector = FlakyKernelInjector(base_seed ^ 0x5EEDED)
    engine = HomEngine()
    engine.reset_stats()  # zero the process-global SERVE family
    service = DecisionService(
        engine=engine,
        breaker=CircuitBreaker(failure_threshold=1, cooldown_s=0.05),
        kernel_fault_injector=injector,
    )
    server_thread = ServerThread(
        service=service,
        admission=AdmissionController(queue_limit=8),
        idle_timeout_s=10.0,
        drain_grace_s=1.0,
    )
    host, port = server_thread.start()

    names = [name for name, weight in SCENARIOS for _ in range(weight)]
    report = CampaignReport(seed=base_seed, trials=trials)
    try:
        for t in range(trials):
            rng = random.Random(base_seed + t)
            scenario = rng.choice(names)
            try:
                result = TRIALS[scenario](rng, host, port, pool)
            except Exception as err:
                result = TrialResult(
                    scenario, "invalid",
                    detail=f"trial raised {type(err).__name__}: {err}",
                )
            report.by_scenario[scenario] = (
                report.by_scenario.get(scenario, 0) + 1
            )
            if result.outcome != "ok":
                report.invalid.append({
                    "trial": t,
                    "scenario": scenario,
                    "detail": result.detail,
                })
            report.sent += result.sent
            report.answered += result.answered
            report.checked += result.checked
            report.unknowns += result.unknowns
            report.overloaded += result.overloaded
            report.errors += result.errors
    finally:
        server_thread.stop()
    report.breaker_trips = service.breaker.trips
    report.serve_counters = engine.snapshot()["serve"]
    report.serve_counters["kernel_faults_fired"] = injector.fired
    return report
