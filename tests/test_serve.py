"""Functional tests for the hom-decision server.

A real :class:`~repro.serve.ServerThread` on a loopback socket, real
clients — asserting the serve contract end to end:

* verdicts over the wire agree with the shared oracle (differential);
* kernel faults trip the breaker and are *re-answered* on the
  reference solver — the client never sees the fault;
* warm sessions are shared across connections and survive edits;
* malformed frames get structured errors on a still-live connection,
  oversized frames get a structured error and a close;
* overload sheds with ``overloaded`` responses — every frame sent is
  answered exactly once;
* graceful drain answers in-flight work (UNKNOWN at worst) and queued
  work (``overloaded: server draining``), then the thread exits;
* the retrying client survives shedding and reconnects.
"""

import json
import signal
import socket
import sys
import threading
import time

import pytest

from repro.engine import HomEngine
from repro.engine.instrumentation import SERVE
from repro.exceptions import (
    ServeConnectionError,
    ServeOverloadedError,
    ServeProtocolError,
)
from repro.parallel import RetryPolicy
from repro.resources import current_context
from repro.serve import (
    ServeClient,
    ServerThread,
    containment_query,
    core_query,
    decode_witness,
    encode_frame,
    equivalence_query,
    health_check,
    hom_query,
    treewidth_query,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.service import DecisionService
from repro.structures import (
    directed_cycle,
    directed_path,
    random_directed_graph,
)

from .oracle import Case, core_size, expected, respects

WATCHDOG_S = 120


@pytest.fixture(autouse=True)
def watchdog():
    """No serve test may hang: that is the contract under test."""
    if sys.platform == "win32":  # pragma: no cover
        yield
        return

    def on_alarm(signum, frame):  # pragma: no cover - only on a hang
        raise AssertionError(
            f"serve watchdog: test exceeded {WATCHDOG_S}s — the server "
            "hung instead of answering"
        )

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def server():
    st = ServerThread(idle_timeout_s=10.0)
    host, port = st.start()
    yield st, host, port
    st.stop()


def fresh_engine_server(**kwargs):
    """A server on its own engine (isolated caches/counters)."""
    service = DecisionService(engine=HomEngine(), **kwargs)
    return ServerThread(service=service, idle_timeout_s=10.0)


# ----------------------------------------------------------------------
# Differential: the wire answers match the oracle's answers
# ----------------------------------------------------------------------
class TestDifferential:
    def test_hom_verdicts_match_direct_engine(self, server):
        """Every wire verdict equals the oracle's (brute force, or the
        reference solver past its cap); TRUE witnesses are valid."""
        _, host, port = server
        pool = (
            [directed_cycle(n) for n in (2, 3, 4, 6)]
            + [directed_path(n) for n in (2, 3, 5)]
            + [random_directed_graph(5, 0.3, seed=s) for s in (1, 2)]
        )
        client = ServeClient(host, port)
        checked = 0
        for a in pool:
            for b in pool:
                want = expected(Case(a, b)).exists
                entry = client.decide(hom_query(a, b))
                assert entry["status"] == "ok"
                assert entry["verdict"]["value"] == str(want).upper()
                if want:
                    witness = decode_witness(entry["verdict"]["witness"])
                    assert respects(Case(a, b), witness)
                checked += 1
        assert checked == len(pool) ** 2
        client.close()

    def test_containment_matches_chandra_merlin(self, server):
        _, host, port = server
        client = ServeClient(host, port)
        pairs = [
            (directed_path(3), directed_path(2)),
            (directed_path(2), directed_path(3)),
            (directed_cycle(3), directed_cycle(6)),
            (directed_cycle(6), directed_cycle(3)),
        ]
        for q1, q2 in pairs:
            entry = client.decide(containment_query(q1, q2))
            want = expected(Case(q2, q1)).exists
            assert entry["verdict"]["value"] == str(want).upper()
        client.close()

    def test_equivalence(self, server):
        _, host, port = server
        client = ServeClient(host, port)
        c3, c6 = directed_cycle(3), directed_cycle(6)
        assert (
            client.decide(equivalence_query(c3, c3))["verdict"]["value"]
            == "TRUE"
        )
        # C6 -> C3 exists, C3 -> C6 does not: inequivalent.
        assert (
            client.decide(equivalence_query(c3, c6))["verdict"]["value"]
            == "FALSE"
        )
        client.close()

    def test_core_and_treewidth(self, server):
        _, host, port = server
        client = ServeClient(host, port)
        c6 = directed_cycle(6)
        entry = client.decide(core_query(c6))
        assert entry["verdict"]["witness"]["size"] == core_size(c6)
        tw = client.decide(treewidth_query(c6, exact=True))
        assert tw["verdict"]["witness"]["width"] == 2
        client.close()

    def test_batch_results_are_ordered(self, server):
        _, host, port = server
        client = ServeClient(host, port)
        p3, c3 = directed_path(3), directed_cycle(3)
        results = client.batch([
            hom_query(p3, c3),
            core_query(c3),
            treewidth_query(p3),
        ])
        assert [e["op"] for e in results] == ["hom", "core", "treewidth"]
        assert all(e["status"] == "ok" for e in results)
        client.close()


# ----------------------------------------------------------------------
# Circuit breaker: kernel faults are absorbed, not served
# ----------------------------------------------------------------------
class TestBreakerFallback:
    def test_kernel_fault_is_reanswered_on_fallback(self):
        # Exactly failure_threshold faults: the breaker trips, and the
        # first half-open probe meets a recovered kernel.
        faults = {"remaining": 3}

        def injector(op):
            if faults["remaining"] > 0:
                faults["remaining"] -= 1
                raise RuntimeError("synthetic kernel fault")

        st = fresh_engine_server(
            breaker=CircuitBreaker(failure_threshold=3, cooldown_s=0.05),
            kernel_fault_injector=injector,
        )
        host, port = st.start()
        try:
            client = ServeClient(host, port)
            c3, c6 = directed_cycle(3), directed_cycle(6)
            # Every answer is correct even while the kernel "faults".
            for _ in range(8):
                entry = client.decide(hom_query(c6, c3))
                assert entry["verdict"]["value"] == "TRUE"
            stats = client.stats()
            assert stats["service"]["breaker"]["trips"] >= 1
            serve = stats["serve"]
            assert serve["breaker_fallback_solves"] >= 3
            # Cooldown elapsed under repeated requests: the breaker
            # probed and recovered to CLOSED.
            time.sleep(0.1)
            entry = client.decide(hom_query(c3, c6))
            assert entry["verdict"]["value"] == "FALSE"
            assert client.stats()["service"]["breaker"]["state"] in (
                "CLOSED", "HALF_OPEN",
            )
            client.close()
        finally:
            st.stop()

    def test_validation_errors_are_not_faults(self):
        service = DecisionService(engine=HomEngine())
        entry = service.execute({"op": "hom", "source": {"bad": 1}})
        assert entry["status"] == "error"
        assert service.breaker.consecutive_faults == 0


# ----------------------------------------------------------------------
# Warm sessions shared across connections
# ----------------------------------------------------------------------
class TestSessions:
    def test_session_shared_and_editable_across_connections(self):
        st = fresh_engine_server()
        host, port = st.start()
        try:
            c3, p3 = directed_cycle(3), directed_path(3)
            with ServeClient(host, port) as c1:
                entry = c1.decide(hom_query(c3, p3, session="shared"))
                assert entry["session_created"] is True
                assert entry["verdict"]["value"] == "FALSE"
            with ServeClient(host, port) as c2:
                # Another connection reuses the same warm session.
                entry = c2.decide(hom_query(c3, p3, session="shared"))
                assert entry["session_created"] is False
                # Break the cycle: now a hom into the path exists.
                entry = c2.edit_session(
                    "shared", "source",
                    {"remove_facts": [["E", [2, 0]]]},
                )
                assert entry["verdict"]["value"] == "TRUE"
        finally:
            st.stop()

    def test_edit_unknown_session_is_structured(self):
        # A bad query inside an accepted request is a per-query error
        # *entry* (the frame itself is fine), not a frame-level error.
        st = fresh_engine_server()
        host, port = st.start()
        try:
            with ServeClient(host, port) as client:
                entry = client.edit_session("ghost", "source", {})
                assert entry["status"] == "error"
                assert entry["code"] == "unknown-session"
        finally:
            st.stop()


# ----------------------------------------------------------------------
# Hostile input on a live socket
# ----------------------------------------------------------------------
class TestHostileFrames:
    def test_malformed_then_valid_on_same_connection(self, server):
        _, host, port = server
        sock = socket.create_connection((host, port), timeout=10)
        rfile = sock.makefile("rb")
        sock.sendall(b"}{ not json\n")
        first = json.loads(rfile.readline())
        assert first["status"] == "error" and first["code"] == "bad-frame"
        # The connection survives malformed frames.
        sock.sendall(encode_frame({"op": "ping", "id": 1}))
        second = json.loads(rfile.readline())
        assert second["status"] == "ok" and second["id"] == 1
        sock.close()

    def test_oversized_frame_errors_and_closes(self, server):
        _, host, port = server
        sock = socket.create_connection((host, port), timeout=10)
        rfile = sock.makefile("rb")
        sock.sendall(b"x" * (2 << 20) + b"\n")
        reply = rfile.readline()
        assert json.loads(reply)["code"] == "frame-too-large"
        assert rfile.readline() == b""  # server closed the stream
        sock.close()

    def test_oversized_batch_is_rejected_before_compute(self, server):
        _, host, port = server
        c3 = directed_cycle(3)
        queries = [hom_query(c3, c3)] * 65
        with ServeClient(host, port) as client:
            with pytest.raises(ServeProtocolError) as exc:
                client.batch(queries)
            assert exc.value.code == "batch-too-large"

    def test_truncated_frame_then_disconnect_leaves_server_alive(
        self, server
    ):
        _, host, port = server
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b'{"op": "hom", "source"')  # no newline, vanish
        sock.close()
        with ServeClient(host, port) as client:
            assert client.ping()["ready"] is True


# ----------------------------------------------------------------------
# Overload and shedding
# ----------------------------------------------------------------------
def slow_checkpointing_injector(duration_s):
    """A kernel 'fault injector' that just burns governed time: it
    loops on the ambient checkpoint so deadlines/cancels still work."""

    def injector(op):
        ctx = current_context()
        t0 = time.monotonic()
        while time.monotonic() - t0 < duration_s:
            ctx.checkpoint("test.slow-serve")
            time.sleep(0.005)

    return injector


class TestOverload:
    def test_every_pipelined_frame_is_answered_exactly_once(self):
        from repro.serve.admission import AdmissionController

        st = ServerThread(
            service=DecisionService(
                engine=HomEngine(),
                kernel_fault_injector=slow_checkpointing_injector(0.3),
            ),
            admission=AdmissionController(queue_limit=1),
            idle_timeout_s=10.0,
        )
        host, port = st.start()
        try:
            c3 = directed_cycle(3)
            frames = b"".join(
                encode_frame({**hom_query(c3, c3), "id": i,
                              "deadline_s": 30.0})
                for i in range(6)
            )
            sock = socket.create_connection((host, port), timeout=30)
            sock.sendall(frames)
            rfile = sock.makefile("rb")
            responses = [json.loads(rfile.readline()) for _ in range(6)]
            sock.close()
            ids = sorted(r["id"] for r in responses)
            assert ids == list(range(6))  # exactly one answer each
            by_status = {}
            for r in responses:
                by_status.setdefault(r["status"], []).append(r["id"])
            assert len(by_status.get("ok", [])) >= 1
            assert len(by_status.get("overloaded", [])) >= 1
        finally:
            st.stop()

    def test_ping_stays_responsive_under_load(self):
        st = ServerThread(
            service=DecisionService(
                engine=HomEngine(),
                kernel_fault_injector=slow_checkpointing_injector(0.5),
            ),
            idle_timeout_s=10.0,
        )
        host, port = st.start()
        try:
            c3 = directed_cycle(3)
            busy = socket.create_connection((host, port), timeout=30)
            busy.sendall(encode_frame(hom_query(c3, c3)))
            t0 = time.monotonic()
            with ServeClient(host, port) as probe:
                assert probe.ping()["ready"] is True
            assert time.monotonic() - t0 < 0.4  # not behind the queue
            busy.makefile("rb").readline()  # collect the slow answer
            busy.close()
        finally:
            st.stop()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_cancels_in_flight_to_unknown(self):
        st = ServerThread(
            service=DecisionService(
                engine=HomEngine(),
                kernel_fault_injector=slow_checkpointing_injector(30.0),
            ),
            idle_timeout_s=10.0,
            drain_grace_s=0.1,
        )
        host, port = st.start()
        c3 = directed_cycle(3)
        sock = socket.create_connection((host, port), timeout=60)
        sock.sendall(encode_frame({**hom_query(c3, c3), "id": "inflight"}))
        time.sleep(0.2)  # let it enter the compute lane
        t0 = time.monotonic()
        st.stop()  # graceful drain, must not wait the full 30s
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        reply = json.loads(sock.makefile("rb").readline())
        sock.close()
        assert reply["id"] == "inflight"
        assert reply["status"] == "ok"
        assert reply["results"][0]["verdict"]["value"] == "UNKNOWN"
        assert "cancel" in reply["results"][0]["verdict"]["reason"].lower()

    def test_requests_after_drain_get_draining_response(self):
        st = fresh_engine_server()
        host, port = st.start()
        sock = socket.create_connection((host, port), timeout=5)
        rfile = sock.makefile("rb")
        st.drain()
        time.sleep(0.2)
        c3 = directed_cycle(3)
        try:
            sock.sendall(encode_frame(hom_query(c3, c3)))
            reply = rfile.readline()
        except socket.timeout:
            pytest.fail(
                "a connection opened before drain was neither answered "
                "nor closed"
            )
        except OSError:
            reply = b""
        # Either the listener already closed our connection (fine) or
        # we got an explicit draining soft-failure.
        if reply:
            assert json.loads(reply)["status"] == "overloaded"
        sock.close()
        st.stop()

    def test_double_drain_is_idempotent(self):
        st = fresh_engine_server()
        st.start()
        st.drain()
        st.drain()
        st.stop()


# ----------------------------------------------------------------------
# Client retries
# ----------------------------------------------------------------------
class _ScriptedServer(threading.Thread):
    """A minimal scripted peer: per accepted connection, optionally
    drop it; otherwise answer each frame from a canned list."""

    def __init__(self, script):
        super().__init__(daemon=True)
        self.script = list(script)
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.sock.settimeout(30)

    def run(self):
        while self.script:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            action = self.script.pop(0)
            if action == "drop":
                conn.close()
                continue
            rfile = conn.makefile("rb")
            while action:
                if not rfile.readline():
                    break
                conn.sendall(encode_frame(action.pop(0)))
            conn.close()
        self.sock.close()


class TestClientRetries:
    def test_retries_through_overload_to_success(self):
        script = [[
            {"id": 1, "status": "overloaded", "reason": "busy"},
            {"id": 1, "status": "overloaded", "reason": "busy"},
            {"id": 1, "status": "ok", "results": [{"op": "ping"}],
             "elapsed_ms": 0.0},
        ]]
        peer = _ScriptedServer(script)
        peer.start()
        sleeps = []
        client = ServeClient(
            "127.0.0.1", peer.port,
            retry_policy=RetryPolicy(
                max_attempts=4, base_delay=0.01, max_delay=0.05,
                retryable=frozenset({"ServeOverloadedError",
                                     "ServeConnectionError"}),
            ),
            sleep=sleeps.append,
        )
        response = client.request({"op": "ping", "id": 1})
        assert response["status"] == "ok"
        assert len(sleeps) == 2          # backed off twice
        assert sleeps[1] > sleeps[0]     # exponential
        client.close()

    def test_gives_up_with_overloaded_error(self):
        script = [[{"id": 1, "status": "overloaded", "reason": "full"}] * 9]
        peer = _ScriptedServer(script)
        peer.start()
        client = ServeClient(
            "127.0.0.1", peer.port,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0,
                retryable=frozenset({"ServeOverloadedError"}),
            ),
            sleep=lambda s: None,
        )
        with pytest.raises(ServeOverloadedError) as exc:
            client.request({"op": "ping", "id": 1})
        assert exc.value.reason == "full"
        client.close()

    def test_reconnects_after_dropped_connection(self):
        script = [
            "drop",
            [{"id": 1, "status": "ok", "results": [{"op": "ping"}],
              "elapsed_ms": 0.0}],
        ]
        peer = _ScriptedServer(script)
        peer.start()
        client = ServeClient(
            "127.0.0.1", peer.port,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.01,
                retryable=frozenset({"ServeConnectionError"}),
            ),
            sleep=lambda s: None,
        )
        assert client.request({"op": "ping", "id": 1})["status"] == "ok"
        client.close()

    def test_connection_error_when_nobody_listens(self):
        client = ServeClient(
            "127.0.0.1", 1,  # reserved port, nothing listens
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0,
                retryable=frozenset({"ServeConnectionError"}),
            ),
            sleep=lambda s: None,
        )
        with pytest.raises(ServeConnectionError):
            client.request({"op": "ping"})

    def test_protocol_errors_do_not_retry(self):
        script = [[
            {"id": 1, "status": "error", "code": "unknown-op",
             "detail": "nope"},
        ]]
        peer = _ScriptedServer(script)
        peer.start()
        calls = []
        client = ServeClient(
            "127.0.0.1", peer.port, sleep=calls.append
        )
        with pytest.raises(ServeProtocolError) as exc:
            client.request({"op": "ping", "id": 1})
        assert exc.value.code == "unknown-op"
        assert calls == []  # no backoff, no retry
        client.close()


# ----------------------------------------------------------------------
# Stats wiring and health checks
# ----------------------------------------------------------------------
class TestStatsAndHealth:
    def test_serve_counters_reach_engine_snapshot(self):
        engine = HomEngine()
        engine.reset_stats()  # zeroes the process-global SERVE family
        st = ServerThread(
            service=DecisionService(engine=engine), idle_timeout_s=10.0
        )
        host, port = st.start()
        try:
            c3 = directed_cycle(3)
            with ServeClient(host, port) as client:
                client.decide(hom_query(c3, c3))
            snapshot = engine.snapshot()
            assert snapshot["serve"]["completed"] == 1
            assert snapshot["serve"]["accepted"] == 1
            assert snapshot["serve"]["latency_samples"] == 1
            assert snapshot["serve"]["latency_p99_ms"] >= 0.0
        finally:
            st.stop()

    def test_health_check_roundtrip(self):
        st = fresh_engine_server()
        host, port = st.start()
        try:
            ready, detail = health_check(host, port)
            assert ready and detail == "ready"
        finally:
            st.stop()
        ready, detail = health_check(host, port, timeout_s=1.0)
        assert not ready

    def test_reset_stats_zeroes_serve_family(self):
        SERVE.frames += 3
        HomEngine().reset_stats()
        assert SERVE.frames == 0
