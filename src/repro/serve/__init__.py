"""The hom-decision server: decisions as a hardened network service.

:mod:`repro.serve` exposes the engine's decision procedures —
homomorphism existence, CQ containment/equivalence (Chandra–Merlin on
canonical structures), cores, treewidth, and incremental warm-session
edits — over a newline-delimited JSON socket protocol, so many clients
share *one* engine's memo cache, compiled-target cache and warm
sessions.

The package is organized as testable layers:

* :mod:`~repro.serve.protocol` — the wire format; total decoding into
  structured errors, frame/batch size caps;
* :mod:`~repro.serve.admission` — deadline-aware admission control and
  the bounded backpressure queue (pure logic, injectable clock);
* :mod:`~repro.serve.breaker` — the circuit breaker that routes solves
  to the reference solver while the compiled kernel misbehaves;
* :mod:`~repro.serve.service` — query execution against the shared
  engine, breaker-routed, with the warm-session registry;
* :mod:`~repro.serve.server` — the asyncio daemon: one compute lane,
  graceful drain, signal handling, ``ServerThread`` for tests;
* :mod:`~repro.serve.client` — the synchronous retrying client
  (exponential backoff + deterministic jitter via the sweep runtime's
  :class:`~repro.parallel.RetryPolicy`).

Robustness contract (attacked by the chaos campaign in
``tests/serve_chaos.py``): every admitted request gets exactly one
response; no client behaviour or input bytes can hang or crash the
server; overload sheds *before* compute; drain answers everything it
interrupts with honest ``overloaded``/UNKNOWN frames.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "admission": ("AdmissionController", "AdmissionDecision", "Ticket"),
    "breaker": ("CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker"),
    "client": (
        "DEFAULT_CLIENT_RETRY_POLICY", "ServeClient", "containment_query",
        "core_query", "decode_witness", "equivalence_query", "health_check",
        "hom_query", "treewidth_query",
    ),
    "protocol": (
        "MAX_BATCH_QUERIES", "MAX_FRAME_BYTES", "Request", "decode_frame",
        "encode_frame", "parse_request",
    ),
    "server": ("ReproServer", "ServerThread", "run_server"),
    "service": ("DecisionService",),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "Ticket",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "DecisionService",
    "ReproServer",
    "ServerThread",
    "run_server",
    "ServeClient",
    "DEFAULT_CLIENT_RETRY_POLICY",
    "health_check",
    "hom_query",
    "containment_query",
    "equivalence_query",
    "core_query",
    "treewidth_query",
    "decode_witness",
    "Request",
    "parse_request",
    "encode_frame",
    "decode_frame",
    "MAX_FRAME_BYTES",
    "MAX_BATCH_QUERIES",
]
