"""The decision service: wire queries → engine calls → wire verdicts.

One :class:`DecisionService` sits behind the server's single compute
lane and owns the solving policy the connections share:

* the **primary engine** — by default the process-global
  :func:`~repro.engine.get_engine`, so the server's memo cache,
  compiled-target cache and counters are the same ones the library and
  CLI use;
* a **fallback engine** on the reference solver that *shares the
  primary's memo cache* (a result computed on either path warms both);
* the :class:`~repro.serve.breaker.CircuitBreaker` deciding which of
  the two answers the next query — repeated kernel faults trip the
  breaker and route traffic to the reference solver until a cooldown
  probe succeeds;
* the **warm-session registry**: named
  :class:`~repro.incremental.IncrementalHomSession` instances shared
  across *all* connections, so any client can stream edits against a
  session another client created and re-decisions warm-start from the
  previous certificate.

Every query executes under the ambient governed
:class:`~repro.resources.RunContext` the server installed for its
request (deadline = what is left of the request's admission deadline),
so no decision can hang the lane; governor trips surface as honest
UNKNOWN verdicts, and per-query validation failures surface as
structured error entries — never as a dropped response or a crashed
connection.

The canonical-structure convention: ``containment``/``equivalence``
queries carry the *canonical structures* of the two conjunctive
queries (Chandra–Merlin), so ``q1 ⊆ q2`` is decided as the existence
of a homomorphism ``canonical(q2) → canonical(q1)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from ..engine.cache import MISS, VerifiedLRU
from ..engine.engine import HomEngine
from ..engine.instrumentation import SERVE
from ..exceptions import (
    ReproError,
    ResourceError,
    ServeProtocolError,
    ValidationError,
)
from ..graphtheory.treewidth import treewidth_exact, treewidth_with_fallback
from ..incremental.delta import Delta
from ..incremental.warm import IncrementalHomSession
from ..resources.verdict import Verdict
from ..structures.gaifman import gaifman_graph
from ..structures.io import (
    _decode_element,
    _encode_element,
    structure_to_dict,
)
from ..structures.structure import Structure
from .breaker import CircuitBreaker
from .protocol import decode_structure

# Queries import these on first use (fingerprints, core, batches, the
# DP gate); importing them with the service keeps that import out of
# the first request.
from ..engine import fingerprint as _fingerprint  # noqa: F401
from ..homomorphism import cores as _cores  # noqa: F401
from ..kernel import batch as _batch  # noqa: F401
from ..kernel import dp as _dp  # noqa: F401

#: Default cap on concurrently retained warm sessions.
DEFAULT_MAX_SESSIONS = 128


def encode_witness(mapping: Mapping[Any, Any]) -> list:
    """A hom witness as sorted ``[source, image]`` pairs of encoded
    elements (JSON-ready, deterministic order)."""
    return [
        [_encode_element(k), _encode_element(v)]
        for k, v in sorted(mapping.items(), key=repr)
    ]


def wire_verdict(
    verdict, witness: Any = None, *, encode_mapping: bool = False
) -> Dict[str, Any]:
    """A verdict's JSON wire form.

    ``encode_mapping=True`` for verdicts whose witness is an
    element→element hom mapping (encoded as sorted pairs); witnesses of
    other ops are already JSON-shaped and pass through verbatim.
    ``witness`` overrides the verdict's own.
    """
    if witness is None and verdict.witness is not None:
        witness = (
            encode_witness(verdict.witness)
            if encode_mapping and isinstance(verdict.witness, Mapping)
            else verdict.witness
        )
    return {
        "value": verdict.value.value,
        "reason": verdict.reason,
        "witness": witness,
        "consumed": dict(verdict.consumed),
    }


def _decode_facts(raw, label: str):
    facts = []
    for item in raw or ():
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], (list, tuple))
        ):
            raise ServeProtocolError(
                f"{label} entries must be [relation, [elements...]] "
                f"pairs, got {item!r}",
                code="bad-request",
            )
        facts.append(
            (item[0], tuple(_decode_element(e) for e in item[1]))
        )
    return tuple(facts)


def decode_delta(raw: Any):
    """A :class:`~repro.incremental.Delta` from its wire form."""
    if not isinstance(raw, dict):
        raise ServeProtocolError(
            "edit queries need a 'delta' object", code="bad-request"
        )
    return Delta(
        add_elements=tuple(
            _decode_element(e) for e in raw.get("add_elements", ())
        ),
        remove_elements=tuple(
            _decode_element(e) for e in raw.get("remove_elements", ())
        ),
        add_facts=_decode_facts(raw.get("add_facts"), "add_facts"),
        remove_facts=_decode_facts(raw.get("remove_facts"), "remove_facts"),
    )


class DecisionService:
    """Executes decision queries on the shared engine, breaker-routed.

    Parameters
    ----------
    engine:
        The primary (kernel) engine; defaults to the process-global
        one so the server shares its caches with everything else in
        the process.
    breaker:
        The circuit breaker; a default 3-fault/5s one when omitted.
    max_sessions:
        Warm sessions retained (LRU beyond that).
    kernel_fault_injector:
        Test seam: called with the op name immediately before every
        *primary* (kernel) solve and may raise to simulate a kernel
        fault.  Production leaves this ``None``.
    """

    def __init__(
        self,
        engine: Optional[HomEngine] = None,
        breaker: Optional[CircuitBreaker] = None,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        kernel_fault_injector: Optional[Callable[[str], None]] = None,
    ) -> None:
        if engine is None:
            from ..engine import get_engine

            engine = get_engine()
        self.engine = engine
        # The reference-solver fallback *shares the primary's memo
        # cache*: answers computed on either path warm both, and a
        # breaker trip never cold-starts the service.
        self.fallback = HomEngine(
            cache_enabled=engine.cache_enabled,
            use_kernel=False,
            use_dp=False,
        )
        self.fallback.cache = engine.cache
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.kernel_fault_injector = kernel_fault_injector
        # Keyed by session name; the name is the whole identity, so
        # entries carry no witnesses.
        self.sessions = VerifiedLRU(max_sessions)

    # ------------------------------------------------------------------
    # Breaker-routed homomorphism decision
    # ------------------------------------------------------------------
    def decide_hom(
        self, source: Structure, target: Structure, **options: Any
    ):
        """A governed trivalent hom verdict, kernel-first with breaker
        fallback to the reference solver.

        A :class:`~repro.exceptions.ResourceError` never reaches here
        (``decide_homomorphism`` converts trips to UNKNOWN); an
        unexpected exception from the kernel path is recorded as a
        breaker fault and the query is *re-answered on the reference
        solver* — the client sees a correct verdict either way.
        """
        if self.engine.use_kernel and self.breaker.allow_primary():
            try:
                if self.kernel_fault_injector is not None:
                    self.kernel_fault_injector("hom")
                verdict = self.engine.decide_homomorphism(
                    source, target, **options
                )
            except ReproError:
                raise  # validation/invariant errors are not kernel faults
            except Exception as err:
                self.breaker.record_fault(err)
                SERVE.breaker_fallback_solves += 1
                return self.fallback.decide_homomorphism(
                    source, target, **options
                )
            self.breaker.record_success()
            return verdict
        SERVE.breaker_fallback_solves += 1
        return self.fallback.decide_homomorphism(source, target, **options)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(self, query: Dict[str, Any]) -> Dict[str, Any]:
        """One query → one JSON result entry; never raises.

        Validation problems become ``{"status": "error", ...}`` entries
        and governor trips become UNKNOWN verdicts; only a genuine bug
        in this method itself could escape, and the server converts
        that into a structured error response too.
        """
        op = query.get("op")
        try:
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise ServeProtocolError(
                    f"unknown op {op!r}", code="unknown-op"
                )
            return handler(self, query)
        except ResourceError as err:
            # A trip outside decide_homomorphism's net (core/treewidth/
            # edit paths): still an honest UNKNOWN, never an error.
            SERVE.unknown_results += 1
            return {
                "op": op,
                "status": "ok",
                "verdict": wire_verdict(Verdict.from_error(err)),
            }
        except ServeProtocolError as err:
            return {
                "op": op,
                "status": "error",
                "code": err.code,
                "detail": str(err),
            }
        except ReproError as err:
            return {
                "op": op,
                "status": "error",
                "code": type(err).__name__,
                "detail": str(err),
            }

    def _verdict_entry(
        self, op: str, verdict, *, encode_mapping: bool = False
    ) -> Dict[str, Any]:
        if verdict.is_unknown:
            SERVE.unknown_results += 1
        return {
            "op": op,
            "status": "ok",
            "verdict": wire_verdict(verdict, encode_mapping=encode_mapping),
        }

    # -- hom ------------------------------------------------------------
    def _op_hom(self, query: Dict[str, Any]) -> Dict[str, Any]:
        session_name = query.get("session")
        if session_name is not None:
            return self._session_decide(session_name, query)
        source = decode_structure(query, "source")
        target = decode_structure(query, "target")
        verdict = self.decide_hom(
            source, target, injective=bool(query.get("injective", False))
        )
        return self._verdict_entry("hom", verdict, encode_mapping=True)

    # -- containment / equivalence (canonical structures) ----------------
    def _op_containment(self, query: Dict[str, Any]) -> Dict[str, Any]:
        q1 = decode_structure(query, "q1")
        q2 = decode_structure(query, "q2")
        if q1.vocabulary.relations != q2.vocabulary.relations:
            raise ValidationError("queries must share a vocabulary")
        # Chandra–Merlin: q1 ⊆ q2 iff hom(canonical(q2) → canonical(q1))
        verdict = self.decide_hom(q2, q1)
        return self._verdict_entry(
            "containment", verdict, encode_mapping=True
        )

    def _op_equivalence(self, query: Dict[str, Any]) -> Dict[str, Any]:
        q1 = decode_structure(query, "q1")
        q2 = decode_structure(query, "q2")
        if q1.vocabulary.relations != q2.vocabulary.relations:
            raise ValidationError("queries must share a vocabulary")
        forward = self.decide_hom(q2, q1)   # q1 ⊆ q2
        backward = self.decide_hom(q1, q2)  # q2 ⊆ q1
        if forward.is_false or backward.is_false:
            direction = "q1 ⊆ q2" if forward.is_false else "q2 ⊆ q1"
            verdict = Verdict.false(reason=f"{direction} fails")
        elif forward.is_true and backward.is_true:
            verdict = Verdict.true(
                reason="mutual containment",
                witness={
                    "forward": encode_witness(forward.witness),
                    "backward": encode_witness(backward.witness),
                },
            )
        else:
            unknown = forward if forward.is_unknown else backward
            verdict = Verdict.unknown(reason=unknown.reason)
        return self._verdict_entry("equivalence", verdict)

    # -- core -------------------------------------------------------------
    def _op_core(self, query: Dict[str, Any]) -> Dict[str, Any]:
        structure = decode_structure(query, "structure")
        engine = (
            self.engine
            if not self.engine.use_kernel or self.breaker.allow_primary()
            else self.fallback
        )
        if engine is self.fallback:
            SERVE.breaker_fallback_solves += 1
        try:
            if engine is self.engine and self.kernel_fault_injector:
                self.kernel_fault_injector("core")
            core = engine.core(structure)
        except ReproError:
            raise
        except Exception as err:
            if engine is self.engine:
                self.breaker.record_fault(err)
                SERVE.breaker_fallback_solves += 1
                core = self.fallback.core(structure)
            else:
                raise
        else:
            if engine is self.engine:
                self.breaker.record_success()
        entry = self._verdict_entry(
            "core",
            Verdict.true(
                reason="core computed",
                witness={
                    "size": core.size(),
                    "facts": core.num_facts(),
                    "input_size": structure.size(),
                },
            ),
        )
        if query.get("include_core"):
            entry["core"] = structure_to_dict(core)
        return entry

    # -- treewidth ----------------------------------------------------------
    def _op_treewidth(self, query: Dict[str, Any]) -> Dict[str, Any]:
        structure = decode_structure(query, "structure")
        limit = query.get("limit", 40)
        if not isinstance(limit, int) or isinstance(limit, bool) \
                or limit < 1:
            raise ServeProtocolError(
                f"limit must be a positive integer, got {limit!r}",
                code="bad-request",
            )
        graph = gaifman_graph(structure)
        if query.get("exact"):
            # no graceful degradation: a trip is an UNKNOWN (caught by
            # execute()'s ResourceError net)
            width = treewidth_exact(graph, limit=limit)
            verdict = Verdict.true(
                reason="exact treewidth",
                witness={"width": width, "exact": True},
            )
        else:
            result = treewidth_with_fallback(graph, limit=limit)
            verdict = Verdict.true(
                reason=result.method,
                witness={
                    "width": result.width,
                    "exact": result.exact,
                    "method": result.method,
                    "degraded_because": result.reason,
                },
            )
        return self._verdict_entry("treewidth", verdict)

    # -- warm sessions --------------------------------------------------------
    def _session_decide(
        self, name: Any, query: Dict[str, Any]
    ) -> Dict[str, Any]:
        if not isinstance(name, str) or not name:
            raise ServeProtocolError(
                "session must be a non-empty string", code="bad-request"
            )
        session = self.sessions.get(name, ())
        created = session is MISS
        if created:
            source = decode_structure(query, "source")
            target = decode_structure(query, "target")
            session = IncrementalHomSession(
                source, target, engine=self.engine
            )
            self.sessions.put(name, (), session)
        verdict = session.decide()
        entry = self._verdict_entry("hom", verdict, encode_mapping=True)
        entry["session"] = name
        entry["session_created"] = created
        return entry

    def _op_edit(self, query: Dict[str, Any]) -> Dict[str, Any]:
        name = query.get("session")
        session = self.sessions.get(name, ()) if isinstance(name, str) else MISS
        if session is MISS:
            raise ServeProtocolError(
                f"unknown session {name!r}; create one with a hom query "
                "carrying a 'session' field",
                code="unknown-session",
            )
        side = query.get("side")
        if side not in ("source", "target"):
            raise ServeProtocolError(
                f"edit side must be 'source' or 'target', got {side!r}",
                code="bad-request",
            )
        delta = decode_delta(query.get("delta"))
        if side == "source":
            verdict = session.edit_source(delta)
        else:
            verdict = session.edit_target(delta)
        entry = self._verdict_entry("hom", verdict, encode_mapping=True)
        entry["session"] = name
        entry["edited"] = side
        return entry

    _HANDLERS = {
        "hom": _op_hom,
        "containment": _op_containment,
        "equivalence": _op_equivalence,
        "core": _op_core,
        "treewidth": _op_treewidth,
        "edit": _op_edit,
    }

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable service state (breaker + sessions)."""
        return {
            "breaker": self.breaker.snapshot(),
            "sessions": len(self.sessions),
            "kernel_enabled": self.engine.use_kernel,
        }
