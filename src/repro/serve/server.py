"""The hom-decision server: an asyncio JSON-lines daemon over HomEngine.

One process, one engine, one compute lane, many connections.  The
design pins down three robustness properties the chaos campaign
(:mod:`tests.serve_chaos`) then attacks:

* **Every admitted request gets exactly one response frame** — ``ok``
  (with one trivalent verdict per query), ``overloaded`` (shed,
  expired, rejected, or draining) or ``error`` (protocol violation or
  internal fault).  Nothing is silently dropped; UNKNOWN is a verdict,
  never a missing answer.
* **No input and no client behaviour can hang the server** — frames
  are length-capped (an over-long line desynchronizes the stream, so
  the connection is closed after a structured error), idle connections
  are reaped after ``idle_timeout_s``, every query runs under a
  governed :class:`~repro.resources.RunContext` carrying what is left
  of the request's deadline, and drain cancels stragglers through the
  governor's thread-safe cooperative cancel.
* **Load sheds before it computes** — admission control
  (:mod:`repro.serve.admission`) refuses requests whose deadline the
  queue has already spent, and evicts the oldest-deadline ticket when
  the bounded queue overflows.

Concurrency model: connection handling is pure asyncio on one event
loop; *all* compute runs on a single dedicated worker thread (the
engine and its caches are single-threaded by design — sharing them is
the point of the server).  The admission controller is only touched
from the event loop, so it needs no locks; the governor's ``cancel()``
is the one cross-thread call, and it is documented thread-safe.

``ServerThread`` wraps the whole thing for synchronous callers (tests,
benchmarks, the chaos harness): start it, get ``(host, port)``, hammer
it from plain sockets, ``stop()`` drains it.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Set, Tuple

from ..engine.instrumentation import SERVE
from ..exceptions import ServeProtocolError
from ..resources import RunContext
from .admission import AdmissionController, Ticket
from .protocol import (
    CONTROL_OPS,
    MAX_BATCH_QUERIES,
    MAX_FRAME_BYTES,
    Request,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    overloaded_response,
    parse_request,
)
from .service import DecisionService

#: Grace period drain gives the in-flight request before cooperatively
#: cancelling it (it then surfaces as an UNKNOWN verdict, not an error).
DEFAULT_DRAIN_GRACE_S = 2.0

#: Idle connections are closed after this long without a complete frame.
DEFAULT_IDLE_TIMEOUT_S = 30.0


class _Connection:
    """Per-connection plumbing: serialized writes, liveness flag."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.alive = True
        self._write_lock = asyncio.Lock()

    async def send(self, payload: Dict[str, Any]) -> bool:
        """Write one response frame; ``False`` if the client is gone.

        A vanished client must never take the server down or leave the
        compute loop blocked — the failure is counted and the
        connection marked dead."""
        if not self.alive:
            return False
        if payload.get("status") == "error":
            SERVE.error_responses += 1
        async with self._write_lock:
            try:
                self.writer.write(encode_frame(payload))
                # Bounded: a stalled client (full socket buffer) must
                # not wedge the compute pump or a graceful drain.
                await asyncio.wait_for(self.writer.drain(), 5.0)
                return True
            except (
                ConnectionError,
                RuntimeError,
                OSError,
                asyncio.TimeoutError,
            ):
                self.alive = False
                SERVE.client_gone += 1
                return False

    def close(self) -> None:
        self.alive = False
        try:
            self.writer.close()
        except Exception:
            pass


class ReproServer:
    """The asyncio hom-decision server.

    Parameters
    ----------
    host, port:
        Listen address; port 0 picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    service:
        The :class:`~repro.serve.service.DecisionService`; a default
        one over the process-global engine when omitted.
    admission:
        The :class:`~repro.serve.admission.AdmissionController`;
        defaults to a 64-ticket queue.
    max_frame_bytes, max_batch:
        Wire-protocol caps (see :mod:`repro.serve.protocol`).
    idle_timeout_s:
        Close a connection after this long without a complete frame
        (``None`` disables — only for controlled tests).
    drain_grace_s:
        Seconds drain waits for the in-flight request before
        cooperatively cancelling it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[DecisionService] = None,
        admission: Optional[AdmissionController] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_batch: int = MAX_BATCH_QUERIES,
        idle_timeout_s: Optional[float] = DEFAULT_IDLE_TIMEOUT_S,
        drain_grace_s: float = DEFAULT_DRAIN_GRACE_S,
    ) -> None:
        self.host = host
        self.port = port
        self.service = service if service is not None else DecisionService()
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.max_frame_bytes = max_frame_bytes
        self.max_batch = max_batch
        self.idle_timeout_s = idle_timeout_s
        self.drain_grace_s = drain_grace_s

        self._server: Optional[asyncio.base_events.Server] = None
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._pump_task: Optional[asyncio.Task] = None
        self._queue_kick = asyncio.Event()
        self._draining = False
        self._drained = asyncio.Event()
        self._connections: Set[_Connection] = set()
        self._inflight_ctx: Optional[RunContext] = None
        self._inflight_done = asyncio.Event()
        self._inflight_done.set()
        self._ticket_ids = itertools.count(1)
        self.started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind, start the compute pump, update :attr:`port`."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.max_frame_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.ensure_future(self._pump())

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, answer everything queued
        ``overloaded: draining``, give the in-flight request
        ``drain_grace_s`` to finish, then cooperatively cancel it (it
        surfaces as UNKNOWN).  Idempotent."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        SERVE.drains += 1
        loop = asyncio.get_event_loop()
        if self._server is not None:
            # Stop accepting first, then yield once so a connection the
            # loop already accepted attaches its transport: asyncio
            # drops a transport created after close() without closing
            # its socket, so that client would be neither answered nor
            # closed.  Its frames are answered ``server draining``.
            for sock in self._server.sockets:
                loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
        for ticket in self.admission.drain_queue():
            SERVE.drained_unknowns += 1
            await self._respond_overloaded(ticket, "server draining")
        self._queue_kick.set()  # wake the pump so it can observe drain
        try:
            await asyncio.wait_for(
                self._inflight_done.wait(), self.drain_grace_s
            )
        except asyncio.TimeoutError:
            ctx = self._inflight_ctx
            if ctx is not None:
                SERVE.drained_unknowns += 1
                ctx.cancel()  # thread-safe; surfaces as UNKNOWN verdicts
            await self._inflight_done.wait()
        if self._pump_task is not None:
            # Cooperative exit, never cancel(): the pump may still be
            # delivering the final in-flight response.
            self._queue_kick.set()
            await self._pump_task
        # Give connection handlers a moment to consume frames the
        # clients already pipelined (each is answered ``overloaded:
        # server draining``) and to flush responses — closing with
        # unread input would RST the socket and destroy them.
        grace_end = loop.time() + min(self.drain_grace_s, 1.0)
        while self._connections and loop.time() < grace_end:
            await asyncio.sleep(0.02)
        for conn in list(self._connections):
            conn.close()
        close_end = loop.time() + 1.0
        while self._connections and loop.time() < close_end:
            await asyncio.sleep(0.02)
        self._compute.shutdown(wait=True)
        self._drained.set()

    async def serve_until_drained(self) -> None:
        """Run until :meth:`drain` completes (signal-driven or direct)."""
        await self._drained.wait()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (event-loop safe)."""
        loop = asyncio.get_event_loop()

        def _initiate() -> None:
            asyncio.ensure_future(self.drain())

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _initiate)
            except (NotImplementedError, RuntimeError):
                # Platforms without loop signal support fall back to
                # the default KeyboardInterrupt path.
                pass

    # ------------------------------------------------------------------
    # Connection handling (event loop only)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        SERVE.connections += 1
        try:
            # The loop keeps reading during a drain on purpose: frames
            # the client already pipelined must be *consumed* and
            # answered ``overloaded: server draining`` — abandoning
            # them unread would RST the socket and destroy responses
            # still in flight to the client.  drain() force-closes the
            # connection after its grace period.
            while conn.alive:
                try:
                    if self.idle_timeout_s is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), self.idle_timeout_s
                        )
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    SERVE.idle_closes += 1
                    break
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                ):
                    await self._reject_oversized(conn)
                    break
                except ValueError:
                    # StreamReader signals a line over its limit as a
                    # bare ValueError; the stream is desynchronized.
                    await self._reject_oversized(conn)
                    break
                except (ConnectionError, OSError):
                    SERVE.client_gone += 1
                    break
                if not line:
                    break  # clean EOF
                if line.strip() == b"":
                    continue
                if len(line) > self.max_frame_bytes:
                    await self._reject_oversized(conn)
                    break
                SERVE.frames += 1
                await self._handle_frame(conn, line)
        finally:
            self._connections.discard(conn)
            conn.close()

    async def _reject_oversized(self, conn: _Connection) -> None:
        SERVE.oversized_frames += 1
        await conn.send(
            error_response(
                None,
                "frame-too-large",
                f"frame exceeds {self.max_frame_bytes} bytes; "
                "closing desynchronized connection",
            )
        )

    async def _handle_frame(self, conn: _Connection, line: bytes) -> None:
        try:
            payload = decode_frame(line)
        except ServeProtocolError as err:
            SERVE.malformed_frames += 1
            await conn.send(error_response(None, err.code, str(err)))
            return
        request_id = payload.get("id")
        op = payload.get("op")
        if op in CONTROL_OPS:
            await conn.send(self._control_response(request_id, op))
            return
        SERVE.requests += 1
        try:
            request = parse_request(payload, max_batch=self.max_batch)
        except ServeProtocolError as err:
            await conn.send(error_response(request_id, err.code, str(err)))
            return
        if self._draining:
            SERVE.drained_unknowns += 1
            await conn.send(
                overloaded_response(request_id, "server draining")
            )
            return
        ticket = Ticket(
            request_id=next(self._ticket_ids),
            weight=request.weight,
            deadline_s=request.deadline_s,
            payload={"request": request, "conn": conn},
        )
        decision = self.admission.admit(ticket)
        for victim in decision.shed:
            await self._respond_overloaded(
                victim, "shed: queue full, earliest deadline evicted"
            )
        if not decision.admitted:
            SERVE.overloaded += 1
            await conn.send(
                overloaded_response(request_id, decision.reason)
            )
            return
        self._queue_kick.set()

    def _control_response(
        self, request_id: Any, op: str
    ) -> Dict[str, Any]:
        """Ping/stats are answered inline from the event loop — they
        must stay responsive while the compute queue is saturated."""
        if op == "ping":
            entry = {
                "op": "ping",
                "ready": self._server is not None and not self._draining,
                "draining": self._draining,
                "uptime_s": time.monotonic() - self.started_at,
            }
        else:
            entry = {
                "op": "stats",
                "serve": SERVE.snapshot(),
                "admission": self.admission.snapshot(),
                "service": self.service.snapshot(),
                "engine": self.service.engine.snapshot(),
            }
        return ok_response(request_id, [entry], 0.0)

    # ------------------------------------------------------------------
    # The compute pump (one lane)
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        while True:
            await self._queue_kick.wait()
            self._queue_kick.clear()
            while True:
                ticket, expired = self.admission.next_ready()
                for stale in expired:
                    await self._respond_overloaded(
                        stale, "deadline expired while queued"
                    )
                if ticket is None:
                    break
                await self._run_ticket(ticket)
            if self._draining:
                return  # drain() awaits this cooperative exit

    async def _run_ticket(self, ticket: Ticket) -> None:
        request: Request = ticket.payload["request"]
        conn: _Connection = ticket.payload["conn"]
        now = self.admission.clock()
        remaining: Optional[float] = None
        if ticket.deadline_at is not None:
            remaining = ticket.deadline_at - now
            if remaining <= 0:
                SERVE.shed += 1
                self.admission.finish(ticket, 0.0)
                await self._respond_overloaded(
                    ticket, "deadline expired while queued"
                )
                return
        ctx = RunContext(deadline=remaining, budget=request.budget)
        self._inflight_ctx = ctx
        self._inflight_done.clear()
        loop = asyncio.get_event_loop()
        start = time.monotonic()
        try:
            results = await loop.run_in_executor(
                self._compute, self._compute_request, ctx, request
            )
        except Exception as err:  # a service bug — answer, don't die
            await conn.send(
                error_response(
                    request.id,
                    "internal",
                    f"{type(err).__name__}: {err}",
                )
            )
            return
        finally:
            elapsed = time.monotonic() - start
            self.admission.finish(ticket, elapsed)
            self._inflight_ctx = None
            self._inflight_done.set()
        SERVE.completed += 1
        SERVE.record_latency(
            (self.admission.clock() - ticket.enqueued_at) * 1000.0
        )
        await conn.send(
            ok_response(request.id, results, elapsed * 1000.0)
        )

    def _compute_request(
        self, ctx: RunContext, request: Request
    ) -> List[Dict[str, Any]]:
        """Runs on the compute thread; the governed context is entered
        *here* so the ambient contextvar binds to this thread."""
        with ctx:
            return [self.service.execute(q) for q in request.queries]

    async def _respond_overloaded(
        self, ticket: Ticket, reason: str
    ) -> None:
        SERVE.overloaded += 1
        request: Request = ticket.payload["request"]
        conn: _Connection = ticket.payload["conn"]
        await conn.send(overloaded_response(request.id, reason))


# ----------------------------------------------------------------------
# Synchronous wrapper for tests / benchmarks / the chaos harness
# ----------------------------------------------------------------------
class ServerThread:
    """Run a :class:`ReproServer` on a background event loop.

    ``start()`` blocks until the socket is bound and returns
    ``(host, port)``; ``stop()`` drains gracefully and joins the
    thread.  Exceptions from startup propagate to the caller.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self._kwargs = server_kwargs
        self.server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        assert self.server is not None
        return self.server.host, self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.server = ReproServer(**self._kwargs)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as err:
            self._startup_error = err
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_until_complete(self.server.serve_until_drained())
        finally:
            loop.close()

    def drain(self) -> None:
        """Trigger a graceful drain from any thread (non-blocking,
        idempotent — a no-op once the loop has already shut down)."""
        loop = self._loop
        if loop is None or self.server is None or loop.is_closed():
            return
        coro = self.server.drain()
        try:
            asyncio.run_coroutine_threadsafe(coro, loop)
        except RuntimeError:  # loop closed in the window above
            coro.close()

    def stop(self, timeout: float = 30.0) -> None:
        self.drain()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("server thread failed to drain in time")


def run_server(
    host: str,
    port: int,
    *,
    queue_limit: int = 64,
    idle_timeout_s: Optional[float] = DEFAULT_IDLE_TIMEOUT_S,
    drain_grace_s: float = DEFAULT_DRAIN_GRACE_S,
    announce: bool = True,
) -> int:
    """Blocking entry point used by ``repro serve``.

    Prints one machine-parseable ready line (``repro-serve ready on
    HOST:PORT``) once bound, installs SIGTERM/SIGINT drain handlers,
    and returns 0 after a graceful drain.
    """
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    server = ReproServer(
        host=host,
        port=port,
        admission=AdmissionController(queue_limit=queue_limit),
        idle_timeout_s=idle_timeout_s,
        drain_grace_s=drain_grace_s,
    )
    try:
        loop.run_until_complete(server.start())
        server.install_signal_handlers()
        if announce:
            print(
                f"repro-serve ready on {server.host}:{server.port}",
                flush=True,
            )
        try:
            loop.run_until_complete(server.serve_until_drained())
        except KeyboardInterrupt:
            loop.run_until_complete(server.drain())
        if announce:
            stats = SERVE.snapshot()
            print(
                "repro-serve drained: "
                f"completed={stats['completed']} "
                f"shed={stats['shed']} "
                f"rejected={stats['rejected']} "
                f"drained_unknowns={stats['drained_unknowns']}",
                file=sys.stderr,
                flush=True,
            )
        return 0
    finally:
        loop.close()
